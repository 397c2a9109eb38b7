"""Every module-level import of the library is read where it is imported.

An import that its module never reads is dead unless it re-exports the
name (it is in ``__all__``) or the benchmark's tracer patches the name
there, in which case its line carries the note that
``test_trace_targets.py`` checks against the tracer's targets.  So moving
a call out of a module cannot leave its import behind unnoticed.  The
check parses the sources with ``ast``, so it needs no linter.
"""

import ast
from pathlib import Path

NOTE = "(perfbench/tracer.py patches it here)"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sullivan"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unread_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = _exported(tree)
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in read or name in exported or NOTE in lines[alias.lineno - 1]:
                continue
            unread.append(f"{path.name}:{alias.lineno}: {name}")
    return unread


def test_every_import_is_read_exported_or_a_tracer_target():
    unread = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _unread_imports(path)]
    assert unread == []


def test_an_unread_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from .models import (\n"
        "    GroupData,\n"
        f"    GroupDiagram,  # noqa: F401  {NOTE}\n"
        ")\n"
        "__all__ = ['json']\n"
        "def f(g: GroupData):\n"
        "    return g\n"
    )
    assert _unread_imports(module) == ["module.py:2: os"]
