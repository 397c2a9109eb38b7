"""Command-line surface: verbs, exit codes, output determinism."""

import json

from sullivan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "SU(2)" in out and "T1" in out

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "SU(3)")
        assert code == 0
        assert "degrees: [3, 5]" in out

    def test_show_unknown_is_validation_error(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "E8")
        assert code == 1
        assert "unknown catalog group" in err


class TestModelAndCohomology:
    def test_build_from_catalog(self, capsys):
        code, out, _ = run(capsys, "model", "build", "--group", "SU(3)", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["generators"] == [["q1", 3], ["q2", 5]]

    def test_cohomology_of_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "model",
                    "generators": [["u", 2], ["q", 3]],
                    "differential": {"q": "u^2"},
                    "cutoff": 4,
                }
            )
        )
        code, out, _ = run(capsys, "cohomology", "--file", str(path), "--format", "structured")
        assert code == 0
        report = json.loads(out)
        assert report["space"]["betti"] == [1, 0, 1, 0, 0]

    def test_cutoff_override(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "model",
                    "generators": [["u", 2], ["q", 3]],
                    "differential": {"q": "u^2"},
                    "cutoff": 4,
                }
            )
        )
        code, out, _ = run(
            capsys, "cohomology", "--file", str(path), "--cutoff", "7", "--format", "structured"
        )
        assert code == 0
        report = json.loads(out)
        assert report["space"]["betti"] == [1, 0, 1, 0, 0, 0, 0, 0]
        # the widened window certifies ellipticity, so the pure invariants appear
        assert report["even_coverage"]["chi_pi"] == 0
        assert report["formality"]["formal"] is True


class TestCheck:
    def test_homogeneous_flags(self, capsys):
        code, out, _ = run(capsys, "check", "homogeneous", "--g", "SU(2)", "--h", "T1")
        assert code == 0
        assert "betti: [1, 0, 1]" in out
        assert "rank criterion True, direct check True" in out

    def test_coho1_preset_failure_note(self, capsys):
        code, out, err = run(capsys, "check", "coho1", "--preset", "gap-two-diagonal")
        assert code == 0
        assert "first failing degree 6" in out
        assert "fails at degree 6" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "check", "homogeneous")
        assert code == 1 and "pass --file" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "check", "coho1", "--preset", "nope")
        assert code == 1 and "unknown preset" in err

    def test_cutoff_below_formal_dimension_is_validation_error(self, capsys):
        # the direct check finds no failure up to 2, the rank criterion
        # says it fails: no verdict and no stabilization conclusion
        code, out, err = run(capsys, "report", "--preset", "gap-three-diagonal", "--cutoff", "2")
        assert code == 1 and out == ""
        assert "below the formal dimension 13" in err


class TestMoreSurfaces:
    def test_circle_alias(self, capsys):
        code, out, _ = run(capsys, "check", "homogeneous", "--g", "SU(2)", "--h", "S1")
        assert code == 0 and "betti: [1, 0, 1]" in out

    def test_model_build_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        doc = {
            "kind": "model",
            "generators": [["u", 2]],
            "differential": {},
            "cutoff": 4,
        }
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "model", "build", "--file", str(path), "--format", "structured")
        assert code == 0
        assert json.loads(out)["generators"] == [["u", 2]]

    def test_check_biquotient_file(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        doc = {
            "kind": "biquotient",
            "G": "SU(2)",
            "H": "T1",
            "left": {"u1": "-u1^2"},
            "right": {"u1": "-4*u1^2"},
        }
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "biquotient", "--file", str(path))
        assert code == 0 and "direct check True" in out

    def test_wrong_kind_file(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"kind": "betti", "betti": [1]}))
        code, _, err = run(capsys, "check", "biquotient", "--file", str(path))
        assert code == 1 and "expected a 'biquotient' document" in err


class TestKTheoryAndReport:
    def test_betti_file(self, capsys, tmp_path):
        path = tmp_path / "betti.json"
        path.write_text(json.dumps({"kind": "betti", "betti": [1, 0, 0, 0, 1, 0, 0, 0, 1]}))
        code, out, _ = run(capsys, "ktheory", "--file", str(path), "--format", "structured")
        assert code == 0
        report = json.loads(out)
        assert report["ktheory"]["k0_dim"] == 3
        assert report["ktheory"]["k1_dim"] == 0
        assert report["ktheory"]["infinite_stable_classes"] is True

    def test_report_structured_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "report", "--preset", "cp2-sum", "--format", "structured")
        code2, out2, _ = run(capsys, "report", "--preset", "cp2-sum", "--format", "structured")
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["space"]["betti"] == [1, 0, 2, 0, 1]
        assert report["theorem_applicability"]["integral_clause"] is True

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "report",
            "--preset",
            "cp2-sum",
            "--format",
            "structured",
            "--output",
            str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "diagram"

    def test_invalid_json_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "report", "--file", str(path))
        assert code == 1 and "not valid JSON" in err

    def test_cross_process_byte_identity(self, tmp_path):
        # reports must not depend on interpreter hash randomization
        import os
        import subprocess
        import sys

        import sullivan

        # the directory holding the package, so the child imports this copy
        src = os.path.dirname(os.path.dirname(os.path.abspath(sullivan.__file__)))
        outputs = []
        for seed in ("0", "424242"):
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "sullivan.cli",
                    "report",
                    "--preset",
                    "gap-two-diagonal",
                    "--format",
                    "structured",
                ],
                capture_output=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": src},
            )
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
