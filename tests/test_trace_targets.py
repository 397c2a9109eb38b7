"""Every function the benchmark's tracer wraps exists in the library.

``perfbench/tracer.py`` patches each ``(module, class, attribute)`` of
its ``PATCHES`` where callers look it up, and a traced run leaves out
every metric of a name the library no longer has.  A rename or deletion
of such a name therefore fails here rather than only in the benchmark's
own smoke test.  The tracer's source is executed, not imported, so no
file is written under ``perfbench/``.  Conversely, every library name
kept only for the tracer carries a note saying so and must be one of
its targets.
"""

import importlib
import re
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patches():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["PATCHES"]


def test_every_patch_target_resolves():
    patches = _patches()
    assert patches
    missing = []
    for module_name, class_name, attribute, _ in patches:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None or attribute not in vars(owner):
            missing.append(f"{module_name}:{class_name or ''}.{attribute}")
    assert not missing, missing


NOTE = "(perfbench/tracer.py patches it here)"
SRC = Path(__file__).resolve().parent.parent / "src"
NAMED = re.compile(r"^\s*(?:def\s+)?([A-Za-z_][A-Za-z0-9_]*)")
CLASS = re.compile(r"^class\s+([A-Za-z_][A-Za-z0-9_]*)")
METHOD = re.compile(r"^\s+def\s")


def test_every_tracer_only_name_is_a_patch_target():
    # A name kept alive only for the tracer carries NOTE on its line, so
    # it can be deleted once the tracer stops patching it.  A method's
    # note names the class whose body holds it.
    targets = {(module, class_name, attribute) for module, class_name, attribute, _ in _patches()}
    noted = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        owner = None
        for line in path.read_text(encoding="utf-8").splitlines():
            header = CLASS.match(line)
            if header:
                owner = header.group(1)
            if NOTE in line:
                name = NAMED.match(line).group(1)
                noted.append((module, owner if METHOD.match(line) else None, name))
    assert ("sullivan.criteria", None, "_rank") in noted
    assert ("sullivan.cdga", "SullivanAlgebra", "coordinates") in noted
    assert [name for name in noted if name not in targets] == []
