"""The README's examples run as written.

The python block of "A worked example" is executed and its commented
results are checked, every JSON document of "Documents" (with its
``//`` comment lines removed) goes through ``run_analysis``, and every
"Command line" example that needs no input file exits 0 through
``cli.main``, and every name that the "Public surface" paragraph of
"Library layout" lists imports from its module.  An edit to the library that breaks an example, or an
example edited into something the library rejects, fails here.
"""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from sullivan.cli import main
from sullivan.documents import run_analysis

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.S | re.M).group(1)


def _blocks(title: str, language: str = "") -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", _section(title), re.S | re.M)


def _documents() -> list[str]:
    (block,) = _blocks("Documents", "jsonc")
    text = "\n".join(line for line in block.splitlines() if not line.lstrip().startswith("//"))
    decoder, documents, pos = json.JSONDecoder(), [], 0
    while text[pos:].strip():
        pos += len(text[pos:]) - len(text[pos:].lstrip())
        doc, pos = decoder.raw_decode(text, pos)
        documents.append(doc)
    return documents


def _commands() -> list[list[str]]:
    (block,) = _blocks("Command line")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    return [argv[1:] for argv in commands if "--file" not in argv]


def _public_surface() -> list[tuple[str, str]]:
    """(module, name) for each name of the "Public surface" list, whose
    items read ``- `sullivan.module`: `name`, `name`, ...``."""
    text = _section("Library layout").split("**Public surface.**", 1)[1]
    items = re.findall(r"^- `(sullivan\.\w+)`: (.+)$", text, re.M)
    return [(module, name) for module, names in items for name in re.findall(r"`(\w+)`", names)]


def test_public_surface_imports():
    surface = _public_surface()
    assert {module for module, _ in surface} >= {
        "sullivan.cdga",
        "sullivan.cohomology",
        "sullivan.criteria",
        "sullivan.documents",
        "sullivan.ktheory",
        "sullivan.models",
    }
    missing = [
        f"{module}.{name}"
        for module, name in surface
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing


def test_worked_example_runs():
    """The block runs, and each expression line whose comment is a Python
    literal evaluates to it."""
    (block,) = _blocks("A worked example", "python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked


def test_every_document_kind_is_shown():
    assert sorted(doc["kind"] for doc in _documents()) == sorted(
        ["model", "homogeneous", "biquotient", "diagram", "betti"]
    )


@pytest.mark.parametrize("doc", _documents(), ids=lambda doc: doc["kind"])
def test_document_reports(doc):
    assert run_analysis(doc)["kind"] == doc["kind"]


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_command_exits_zero(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err
