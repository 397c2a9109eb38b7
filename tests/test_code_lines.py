"""``tools/code_lines.py``: code lines without blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(path) == 7


def test_main_sums_the_tree(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "8\n"


def test_main_counts_a_file(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.main(["code_lines.py", str(path)]) == 0
    assert capsys.readouterr().out == "7\n"
