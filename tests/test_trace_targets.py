"""Every function the benchmark's tracer wraps exists in the library.

``perfbench/tracer.py`` patches each ``(module, class, attribute)`` of
its ``PATCHES`` where callers look it up, and a traced run leaves out
every metric of a name the library no longer has.  A rename or deletion
of such a name therefore fails here rather than only in the benchmark's
own smoke test.  The tracer's source is executed, not imported, so no
file is written under ``perfbench/``.
"""

import importlib
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
