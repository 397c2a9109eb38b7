"""Command-line surface: verbs, exit codes, output determinism."""

import argparse
import json
import sys
from pathlib import Path

import pytest

from sullivan import criteria, documents
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cli import build_parser, main
from sullivan.errors import SchemaError

GOLDEN = Path(__file__).parent / "golden"


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

    def test_show_without_a_name_is_validation_error(self, capsys):
        code, out, err = run(capsys, "catalog", "show")
        assert code == 1 and out == ""
        assert err == "error: catalog show needs a group name\n"

    def test_list_with_a_name_is_validation_error(self, capsys):
        code, out, err = run(capsys, "catalog", "list", "SU(3)")
        assert code == 1 and out == ""
        assert err == "error: catalog list takes no group name, got 'SU(3)'\n"

    def test_list_structured(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--format", "structured")
        assert code == 0
        listing = json.loads(out)
        assert listing["kind"] == "catalog"
        assert {"name": "SU(3)", "rank": 2, "dim": 8, "degrees": [3, 5]}.items() <= next(
            g for g in listing["groups"] if g["name"] == "SU(3)"
        ).items()
        assert "cp2-sum" in listing["diagram_presets"]

    def test_show_structured(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "SU(3)", "--format", "structured")
        assert code == 0
        entry = json.loads(out)
        assert entry["kind"] == "catalog-entry"
        assert entry["group"]["degrees"] == [3, 5]
        assert entry["classifying_generators"] == {"u1": 4, "u2": 6}

    def test_cutoff_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "catalog", "list", "--cutoff", "3")
        assert code == 1 and out == ""
        assert err.endswith("sullivan: error: unrecognized arguments: --cutoff 3\n")

    def test_list_output_file_matches_stdout(self, capsys, tmp_path):
        _, shown, _ = run(capsys, "catalog", "list")
        target = tmp_path / "catalog.txt"
        code, out, _ = run(capsys, "catalog", "list", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="ascii") == shown

    @pytest.mark.parametrize(
        "power, message",
        [
            ("999999999", "product group 'SU(2)^999999999' has rank above 10000"),
            ("10000000", "product group 'SU(2)^10000000' has rank above 10000"),
            (
                "7" * (sys.get_int_max_str_digits() + 1),
                f"unknown catalog group: power has more than {sys.get_int_max_str_digits()} digits",
            ),
            ("0", "unknown catalog group 'SU(2)^0': power below 1"),
        ],
        ids=["billion", "ten-million", "over-long", "zero"],
    )
    def test_product_power_out_of_range(self, power, message):
        # its own process, limited in time and to 1 GiB of address space,
        # so that a product built in full fails alone instead of taking
        # the run down
        import subprocess

        import sullivan

        limited_main = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from sullivan.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        src = Path(sullivan.__file__).parent.parent
        result = subprocess.run(
            [sys.executable, "-c", limited_main, "catalog", "show", f"SU(2)^{power}"],
            capture_output=True,
            timeout=20,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src)},
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode() == f"error: {message}\n"

    def test_product_at_the_rank_limit(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "SU(2)^10000", "--format", "structured")
        assert code == 0
        assert json.loads(out)["group"]["degrees"] == [3] * 10_000


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

    def test_whitespace_around_polynomial_tokens(self, capsys, tmp_path):
        # trailing whitespace is accepted as leading whitespace is
        path = tmp_path / "model.json"
        doc = {"kind": "model", "generators": [["x", 2], ["a", 3]], "cutoff": 6}
        reports = set()
        for text in ("x^2", "x^2 ", " x^2", "x ^ 2", " x ^ 2 \n"):
            path.write_text(json.dumps({**doc, "differential": {"a": text}}))
            code, out, err = run(capsys, "report", "--file", str(path), "--format", "structured")
            assert code == 0, (text, err)
            reports.add(out)
        assert len(reports) == 1
        path.write_text(json.dumps({**doc, "differential": {"a": "x^2 + "}}))
        code, out, err = run(capsys, "report", "--file", str(path))
        assert code == 1 and out == ""
        assert "$.differential.a: empty term in polynomial: 'x^2 + '" in err


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

    def test_non_elliptic_maps_are_validation_errors(self, capsys, tmp_path):
        # both generators of H*(BT2) restrict to u1^2, so u2 is free and the
        # model's cohomology is infinite-dimensional: the rank criterion and
        # the direct check agree, but duality fails at the formal dimension 4
        path = tmp_path / "doubled.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "homogeneous",
                    "G": "SU(2)^2",
                    "H": "T2",
                    "embedding": {"u1": "u1^2", "u2": "u1^2"},
                }
            )
        )
        for cutoff in ("4", "8"):
            code, out, err = run(capsys, "report", "--file", str(path), "--cutoff", cutoff)
            assert code == 1 and out == ""
            assert "infinite-dimensional" in err
        # a table cut off below the formal dimension is reported as it is
        code, _, _ = run(capsys, "report", "--file", str(path), "--cutoff", "3")
        assert code == 0


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

    def test_non_object_file_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for argv, message in (
            (["cohomology"], "cohomology expects a model document"),
            (["ktheory"], "ktheory expects a model or betti document"),
            (["check", "biquotient"], "expected a 'biquotient' document, got kind None"),
            (["report"], "$: expected a non-empty document object"),
        ):
            code, out, err = run(capsys, *argv, "--file", str(path))
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_model_build_rejects_unknown_keys(self, capsys, tmp_path):
        # a misspelled differential is refused, as by report --file
        path = tmp_path / "m.json"
        doc = {"kind": "model", "generators": [["u", 2], ["a", 3]], "differentials": {"a": "u^2"}, "cutoff": 6}
        path.write_text(json.dumps(doc))
        for argv in (["model", "build"], ["report"]):
            code, out, err = run(capsys, *argv, "--file", str(path))
            assert (code, out, err) == (1, "", "error: $: unknown key 'differentials'\n")
        path.write_text(json.dumps({"kind": "betti", "betti": [1]}))
        code, _, err = run(capsys, "model", "build", "--file", str(path))
        assert code == 1 and "expected a 'model' document, got kind 'betti'" in err

    def test_two_document_sources_are_validation_errors(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "model", "generators": [["u", 2]], "cutoff": 4}))
        for argv, flags in (
            (["report", "--file", str(path), "--preset", "cp2-sum"], "--file and --preset"),
            (["check", "homogeneous", "--preset", "cp2-sum", "--g", "SU(2)", "--h", "T1"], "--preset and --g and --h"),
            (["check", "coho1", "--preset", "cp2-sum", "--h", "T1"], "--preset and --h"),
            (["check", "homogeneous", "--file", str(path), "--g", "SU(2)", "--h", "T1"], "--file and --g and --h"),
            (["model", "build", "--file", str(path), "--group", "SU(2)"], "--file and --group"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: pass one document source, not {flags}\n")
        # one source each still works
        assert run(capsys, "report", "--file", str(path))[0] == 0
        assert run(capsys, "report", "--preset", "cp2-sum")[0] == 0
        assert run(capsys, "model", "build", "--file", str(path))[0] == 0

    def test_embedding_with_a_document_is_validation_error(self, capsys, tmp_path):
        # a --file or --preset document names its own maps, so the flag
        # would be ignored; with --g/--h it is still read
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"kind": "homogeneous", "G": "SU(2)", "H": "T1"}))
        message = "error: --embedding goes with --g and --h; a --file or --preset document has its own maps\n"
        for argv in (
            ["check", "homogeneous", "--file", str(path), "--embedding", "nonsense"],
            ["check", "coho1", "--preset", "cp2-sum", "--embedding", "nonsense"],
        ):
            assert run(capsys, *argv) == (1, "", message)
        code, _, err = run(capsys, "check", "homogeneous", "--g", "SU(2)", "--h", "T1", "--embedding", "nonsense")
        assert code == 1 and "unknown embedding kind 'nonsense'" in err
        assert run(capsys, "check", "homogeneous", "--file", str(path))[0] == 0

    def test_model_build_honours_cutoff_on_a_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "model", "generators": [["u", 2]], "cutoff": 4}))
        code, out, _ = run(capsys, "model", "build", "--file", str(path), "--cutoff", "9", "--format", "structured")
        assert code == 0 and json.loads(out)["cutoff"] == 9
        code, out, err = run(capsys, "model", "build", "--file", str(path), "--cutoff", "-1")
        assert (code, out) == (1, "") and "cutoff must be a non-negative integer" in err


class TestBooleanFlags:
    """Group flags and ``allow_disconnected`` are JSON booleans; a string or
    a number is rejected rather than read by its truthiness."""

    GROUP = {"name": "S3", "rank": 1, "dim": 3, "degrees": [3]}

    def report(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "report", "--file", str(path), "--format", "structured")

    def test_string_and_number_group_flags(self, capsys, tmp_path):
        group = {**self.GROUP, "flags": {"connected": "false", "pi1_torsion_free": 1}}
        doc = {"kind": "homogeneous", "G": group, "H": "T1", "embedding": {"u1": "-u1^2"}}
        code, out, err = self.report(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err == "error: $.G.flags.connected: expected bool, got str\n"
        group["flags"]["connected"] = True
        code, _, err = self.report(capsys, tmp_path, doc)
        assert code == 1
        assert err == "error: $.G.flags.pi1_torsion_free: expected bool, got int\n"
        group["flags"]["pi1_torsion_free"] = True
        code, out, _ = self.report(capsys, tmp_path, doc)
        assert code == 0
        flags = json.loads(out)["input"]["G"]["flags"]
        assert flags == {"connected": True, "pi1_torsion_free": True, "steinberg": False}

    def test_string_allow_disconnected(self, capsys, tmp_path):
        doc = {**DIAGRAM_PRESETS["cp2-sum"], "H": "Z2", "allow_disconnected": "yes"}
        code, out, err = self.report(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err == "error: $.allow_disconnected: expected bool, got str\n"
        doc["allow_disconnected"] = True
        code, out, _ = self.report(capsys, tmp_path, doc)
        assert code == 0 and json.loads(out)["input"]["allow_disconnected"] is True


class TestInputRejections:
    """Each input rejection, run in this process: a validation error
    (exit 1) with its message on stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("catalog", "show", "SU(2)^" + "7" * (sys.get_int_max_str_digits() + 1)),
                f"unknown catalog group: power has more than {sys.get_int_max_str_digits()} digits",
            ),
            (("catalog", "show", "SU(2)^0"), "unknown catalog group 'SU(2)^0': power below 1"),
            (("catalog", "show", "SU(2)^1"), "unknown catalog group 'SU(2)^1'"),
            (("catalog", "show", "SU(2)^10001"), "product group 'SU(2)^10001' has rank above 10000"),
            (
                ("check", "homogeneous", "--g", "SU(2)xSU(3)", "--h", "SU(2)", "--embedding", "diagonal"),
                "diagonal embedding needs a power of a single factor",
            ),
            (
                ("check", "homogeneous", "--g", "SU(3)", "--h", "SU(2)"),
                "no default embedding of SU(2) in SU(3); pass an explicit kind from trivial, "
                "block, coordinate, maximal-torus, diagonal, diagonal-circle",
            ),
            (("check", "coho1"), "pass --file or --preset"),
            (("check", "biquotient"), "pass --file"),
            (("model", "build"), "pass --file or --group"),
        ],
        ids=[
            "over-long-power",
            "zero-power",
            "first-power",
            "rank-above-limit",
            "diagonal-of-mixed-product",
            "no-default-embedding",
            "coho1-without-source",
            "biquotient-without-file",
            "model-build-without-source",
        ],
    )
    def test_arguments(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    SOLVABLE = {"name": "S", "rank": 1, "dim": 1, "degrees": [1]}

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"H": "e", "Kminus": "T3", "Kplus": "T3", "sphere_dims": [3, 3]},
                "rank K- = 3, expected rank H + 1 = 1",
            ),
            (
                {"embeddings": {"G->Kminus": {"u9": "-em^2"}, "G->Kplus": {"u1": "-ep^2"}}},
                "$.embeddings.G->Kminus.u9: no classifying-space generator of SU(2) named 'u9'",
            ),
            (
                {"embeddings": {"G->Kminus": {"u1": "-em^2"}, "G->Kplus": {"u1": "-zz^2"}}},
                "restriction of u1 to the plus side: no generator named 'zz'",
            ),
            (
                {
                    "H": {**SOLVABLE, "flags": {"connected": False}},
                    "Kminus": "T2",
                    "Kplus": "T2",
                    "allow_disconnected": True,
                },
                "only finite disconnected principal isotropy is supported",
            ),
        ],
        ids=[
            "sphere-rank",
            "unknown-restriction-key",
            "unknown-name-in-restriction",
            "disconnected-positive-rank",
        ],
    )
    def test_diagrams(self, capsys, tmp_path, changes, message):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps({**DIAGRAM_PRESETS["cp2-sum"], **changes}))
        code, out, err = run(capsys, "report", "--file", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"H": {**SOLVABLE, "flags": 1}}, "$.H.flags: expected an object"),
            ({"embedding": 5}, "$.embedding: expected an object of generator -> polynomial"),
            (
                {"H": SOLVABLE, "embedding": "maximal-torus"},
                "$.embedding: named embeddings need catalog group names",
            ),
            ({"embedding": {"u1": "-w^2"}}, "left image of u1: no generator named 'w'"),
            (
                {"kind": "biquotient", "left": {"u1": "-w^2"}, "right": {"u1": "-4*u1^2"}},
                "left image of u1: no generator named 'w'",
            ),
            (
                {"kind": "biquotient", "left": {"u1": "-u1^2"}, "right": {"u1": "-w^2"}},
                "right image of u1: no generator named 'w'",
            ),
        ],
        ids=[
            "flags-not-an-object",
            "embedding-not-a-name-or-object",
            "named-embedding-inline-group",
            "unknown-name-in-embedding",
            "unknown-name-in-left-map",
            "unknown-name-in-right-map",
        ],
    )
    def test_pairs(self, capsys, tmp_path, changes, message):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"kind": "homogeneous", "G": "SU(2)", "H": "T1", **changes}))
        code, out, err = run(capsys, "report", "--file", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "doc, at",
        [
            ({"kind": "biquotient", "left": {"u9": "-u1^2"}, "right": {"u1": "-4*u1^2"}}, "$.left.u9"),
            ({"kind": "biquotient", "left": {"u1": "-u1^2"}, "right": {"u9": "-u1^2"}}, "$.right.u9"),
            ({"kind": "homogeneous", "embedding": {"u9": "-u1^2"}}, "$.embedding.u9"),
            (
                {
                    **DIAGRAM_PRESETS["cp2-sum"],
                    "embeddings": {"G->Kminus": {"u9": "-em^2"}, "G->Kplus": {"u1": "-ep^2"}},
                },
                "$.embeddings.G->Kminus.u9",
            ),
        ],
        ids=["left-map", "right-map", "embedding", "diagram-embeddings"],
    )
    def test_restriction_key_names_no_generator(self, capsys, tmp_path, monkeypatch, doc, at):
        """A restriction-map key that names no classifying-space generator
        of G is a schema error at its path, raised before any map or
        model is built."""
        doc = {"G": "SU(2)", "H": "T1", **doc}
        message = f"{at}: no classifying-space generator of SU(2) named 'u9'"
        with monkeypatch.context() as m:
            m.setattr(documents, "RestrictionMap", None)
            m.setattr(documents, "GroupDiagram", None)
            with pytest.raises(SchemaError) as raised:
                documents.load_document(doc)
        assert str(raised.value) == message
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", "--file", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("cutoff", ["-3", "4"])
    def test_betti_file_rejects_a_cutoff(self, capsys, tmp_path, cutoff):
        # a Betti table has no degrees to cut off, so a cutoff is an error
        # on the command line, as the key is inside the document
        path = tmp_path / "betti.json"
        path.write_text(json.dumps({"kind": "betti", "betti": [1, 0, 1]}))
        code, out, err = run(capsys, "ktheory", "--file", str(path), "--cutoff", cutoff)
        assert (code, out) == (1, "")
        assert err == "error: a betti document takes no cutoff\n"
        with pytest.raises(SchemaError):
            documents.run_analysis({"kind": "betti", "betti": [1]}, 2)
        path.write_text(json.dumps({"kind": "betti", "betti": [1], "cutoff": 2}))
        code, _, err = run(capsys, "ktheory", "--file", str(path))
        assert code == 1 and "unknown key" in err

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

    def test_malformed_cutoff_with_cutoff_flag(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        for doc in (
            {"kind": "homogeneous", "G": "SU(2)", "H": "T1", "cutoff": "x"},
            {**DIAGRAM_PRESETS["cp2-sum"], "cutoff": "x"},
        ):
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "report", "--file", str(path), "--cutoff", "4")
            assert (code, out, err) == (1, "", "error: $.cutoff: expected int, got str\n")

    def test_unreadable_document(self, capsys, tmp_path):
        code, out, err = run(capsys, "report", "--file", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read document: ") and err.count("\n") == 1

    def test_document_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "betti", "betti": [1], "\xe9": 1}')
        code, out, err = run(capsys, "report", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: document is not valid JSON: ") and err.count("\n") == 1

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "report", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: document is not valid JSON: ") and err.count("\n") == 1

    def test_over_long_json_integer(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text('{"kind": "betti", "betti": [1, %s]}' % ("7" * (limit + 1)))
        code, out, err = run(capsys, "report", "--file", str(path))
        assert code == 1 and out == ""
        assert err == f"error: document is not valid JSON: integer has more than {limit} digits\n"

    @pytest.mark.parametrize(
        "template, what",
        [("{}*x^2", "coefficient"), ("1/{}*x^2", "coefficient"), ("x^{}", "exponent")],
    )
    def test_over_long_polynomial_integer(self, capsys, tmp_path, template, what):
        limit = sys.get_int_max_str_digits()
        doc = {
            "kind": "model",
            "generators": [["x", 2], ["a", 3]],
            "differential": {"a": template.format("7" * (limit + 1))},
            "cutoff": 4,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", "--file", str(path))
        assert code == 1 and out == ""
        assert err == f"error: $.differential.a: {what} has more than {limit} digits\n"

    @pytest.mark.parametrize("target", [".", "missing/report.json"])
    def test_unwritable_output(self, capsys, tmp_path, target):
        output = str(tmp_path / target)
        code, out, err = run(capsys, "report", "--preset", "cp2-sum", "--output", output)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1

    def test_computation_error_exits_two(self, capsys, monkeypatch):
        # a direct check that contradicts the rank criterion on an elliptic
        # model is an internal inconsistency, not bad input
        monkeypatch.setattr(criteria, "_strand_surjectivity", lambda table: ((False, 2), (True, None)))
        code, out, err = run(capsys, "report", "--preset", "cp2-sum")
        assert code == 2 and out == ""
        assert err.startswith("computation error: ") and err.count("\n") == 1

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


class TestUsageErrors:
    """argparse's usage errors are validation errors (exit 1); its help
    exits 0."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["report", "--cutoff", "abc"], "sullivan report: error: argument --cutoff: invalid int value: 'abc'"),
            (["frobnicate"], "sullivan: error: argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["bad-cutoff", "unknown-verb"],
    )
    def test_usage_error_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: sullivan") and message in err

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["report", "--help"]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            assert out.startswith("usage: sullivan")

    def test_help_after_a_usage_error(self, capsys):
        assert run(capsys, "report", "--bogus")[0] == 1
        code, out, err = run(capsys, "--help")
        assert code == 0 and err == ""
        assert out == build_parser.__wrapped__().format_help()


class TestOneParser:
    """``main`` parses every argv against one parser per process."""

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.__wrapped__()
        one_build = len(built)
        built.clear()
        build_parser.cache_clear()
        for argv in (["catalog", "list"], ["report", "--bogus"], ["catalog", "list", "--format", "structured"]):
            run(capsys, *argv)
        assert len(built) == one_build

    def test_no_state_carries_between_calls(self, capsys, tmp_path):
        assert run(capsys, "report", "--preset", "cp2-sum", "--cutoff", "4")[0] == 0
        output = tmp_path / "report.json"
        argv = ["report", "--preset", "cp2-sum", "--format", "structured", "--output", str(output)]
        assert run(capsys, *argv)[0] == 0
        assert output.read_bytes() == (GOLDEN / "preset-cp2-sum.json").read_bytes()


class TestManyGenerators:
    """Models with hundreds or thousands of generators report: basis
    enumeration takes no stack frame per generator, and its memory grows
    with the basis."""

    def _report(self, capsys, tmp_path, count, degree, cutoff):
        path = tmp_path / "model.json"
        generators = [[f"x{i}", degree] for i in range(count)]
        path.write_text(json.dumps({"kind": "model", "generators": generators, "cutoff": cutoff}))
        code, out, err = run(capsys, "report", "--file", str(path), "--format", "structured")
        assert (code, err) == (0, "")
        return json.loads(out)

    @pytest.mark.parametrize("count", [494, 1100, 5000])
    def test_degree_three_generators_at_cutoff_zero(self, capsys, tmp_path, count):
        assert self._report(capsys, tmp_path, count, 3, 0)["space"]["betti"] == [1]

    def test_bases_hold_only_the_basis(self, capsys, tmp_path, monkeypatch):
        analyzed = []
        analyze = documents._analyze_model

        def recording(a):
            analyzed.append(a)
            return analyze(a)

        monkeypatch.setattr(documents, "_analyze_model", recording)
        assert self._report(capsys, tmp_path, 400, 1, 1)["space"]["betti"] == [1, 400]
        (a,) = analyzed
        # 1 + 400 + 400*399/2 monomials through degree 2, the cutoff + 1
        assert [len(monos) for monos in a._bases] == [1, 400, 79_800]
        assert sum(map(len, a._bases)) == 80_201


class TestAboveTheWindow:
    @staticmethod
    def _limited_report(tmp_path, document: dict) -> dict:
        """The structured report of a document, run in its own process,
        limited in time and to 1 GiB of address space."""
        import subprocess

        import sullivan

        limited_main = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from sullivan.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document))
        result = subprocess.run(
            [sys.executable, "-c", limited_main, "report", "--file", str(path), "--format", "structured"],
            capture_output=True,
            timeout=20,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(sullivan.__file__).parent.parent)},
        )
        assert result.returncode == 0, result.stderr.decode()
        return json.loads(result.stdout)

    def test_elliptic_space_far_above_its_window(self, tmp_path):
        # SU(4)/T3 has formal dimension 12 and generators up to degree 7:
        # its table and direct check stop after degree 19, so cutoff 400
        # answers at once
        document = {"kind": "homogeneous", "G": "SU(4)", "H": "T3", "cutoff": 400}
        report = self._limited_report(tmp_path, document)
        assert report["space"]["betti"] == [1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1] + [0] * 388
        assert report["verdict"]["cutoff"] == 400

    def test_sheared_model_far_above_its_window(self, tmp_path):
        # the golden's non-pure model has formal dimension 7, and its
        # associated pure algebra passes the H_0 rule, so its table stops
        # at 7 and cutoff 400 answers at once
        document = json.loads((GOLDEN / "model-sheared-cutoff14.json").read_text())["input"]
        report = self._limited_report(tmp_path, {**document, "cutoff": 400})
        assert report["space"]["betti"] == [1] * 8 + [0] * 393
        assert report["space"]["formal_dimension"] == 7
