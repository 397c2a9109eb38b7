"""Every private function, method and class of the library is read in it.

A private name (one leading underscore, not a dunder) that no module of
``src/sullivan/`` reads is dead, unless the benchmark's tracer patches
it: it is a ``PATCHES`` target of ``perfbench/tracer.py`` (a module or
class attribute, or the class that holds one, as ``_Reducer`` is), or its
line carries the tracer note.  A helper that only tests read belongs in
``tests/``.  So folding a helper into another cannot leave the old one
behind unnoticed.  A name counts as read wherever a module loads it, as
a name or as an attribute; the check parses the sources with ``ast``, so
it needs no linter.
"""

import ast
from pathlib import Path

from test_trace_targets import _patches
from test_unread_imports import NOTE, PACKAGE


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(node: ast.AST, owner: str | None = None):
    """(class holding it or None, name, line) of every function, method
    and class defined under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield owner, child.name, child.lineno
            yield from _definitions(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owner, child.name, child.lineno
            yield from _definitions(child)
        else:
            yield from _definitions(child, owner)


def _loaded(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_privates(package: Path, targets: set) -> list[str]:
    """``file:line: [Class.]name`` of each private definition of the
    package's modules that none of them reads, that is no target and that
    carries no note; ``targets`` holds ``(module, class or None,
    attribute)`` triples."""
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set().union(*map(_loaded, trees.values()))
    classes = {(module, None, owner) for module, owner, _ in targets if owner}
    unread = []
    for path, tree in trees.items():
        module = f"{package.name}.{path.stem}"
        lines = sources[path].splitlines()
        for owner, name, line in _definitions(tree):
            if (
                not _private(name)
                or name in read
                or NOTE in lines[line - 1]
                or (module, owner, name) in targets | classes
            ):
                continue
            unread.append(f"{path.name}:{line}: {owner + '.' if owner else ''}{name}")
    return unread


def test_every_private_definition_is_read_or_a_tracer_target():
    targets = {(module, owner, attribute) for module, owner, attribute, _ in _patches()}
    assert unread_privates(PACKAGE, targets) == []


def test_an_unread_private_definition_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def _dead():\n"
        "    pass\n"
        "def _used():\n"
        "    def _inner():\n"
        "        pass\n"
        "    return _inner\n"
        "class _Patched:\n"
        "    def _method(self):\n"
        "        pass\n"
        "    def _unread(self):\n"
        "        pass\n"
        "    def __init__(self):\n"
        "        pass\n"
        f"def _noted():  # {NOTE}\n"
        "    pass\n"
    )
    (package / "b.py").write_text("from .a import _used\n_used()\n")
    targets = {("pkg.a", "_Patched", "_method")}
    assert unread_privates(package, targets) == ["a.py:1: _dead", "a.py:10: _Patched._unread"]
