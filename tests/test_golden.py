"""Golden structured reports: the bytes every change must reproduce.

Each file under ``tests/golden/`` was written by ``sullivan report ...
--format structured --output``.  A report must match its golden byte for
byte, and re-running the report's own ``input`` block as a document must
give the same bytes again, as the README promises.
"""

import json
from pathlib import Path

import pytest

from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cli import main

GOLDEN = Path(__file__).parent / "golden"

DOCUMENTS = {
    "homogeneous-SU4-T3": {"kind": "homogeneous", "G": "SU(4)", "H": "T3", "embedding": "maximal-torus"},
    "biquotient-readme": {
        "kind": "biquotient",
        "G": "SU(2)",
        "H": "T1",
        "left": {"u1": "-u1^2"},
        "right": {"u1": "-4*u1^2"},
    },
    "model-readme": {
        "kind": "model",
        "generators": [["x", 2], ["y", 2], ["n", 3], ["m", 3]],
        "differential": {"n": "x^2+y^2", "m": "x*y"},
        "cutoff": 6,
    },
    # the cohomology is that of (S^2)^3, but the quotient bases are large
    "model-pure-cutoff12": {
        "kind": "model",
        "generators": [["x", 2], ["y", 2], ["z", 2], ["a", 3], ["b", 3], ["c", 3]],
        "differential": {"a": "x^2", "b": "y^2", "c": "z^2"},
        "cutoff": 12,
    },
}

CASES = [f"preset-{p}" for p in sorted(DIAGRAM_PRESETS)] + sorted(DOCUMENTS)


def _report_file(tmp_path, document: dict) -> bytes:
    source = tmp_path / "input.json"
    source.write_text(json.dumps(document), encoding="ascii")
    return _report(tmp_path, "--file", str(source))


def _report(tmp_path, *source) -> bytes:
    output = tmp_path / "report.json"
    assert main(["report", *source, "--format", "structured", "--output", str(output)]) == 0
    return output.read_bytes()


def test_every_golden_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, tmp_path):
    if name in DOCUMENTS:
        data = _report_file(tmp_path, DOCUMENTS[name])
    else:
        data = _report(tmp_path, "--preset", name.removeprefix("preset-"))
    assert data == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_input_block_reproduces_report(name, tmp_path):
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert _report_file(tmp_path, json.loads(golden)["input"]) == golden
