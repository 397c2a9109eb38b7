"""Document schema, round-trips, report determinism."""

import json
from pathlib import Path

import pytest

from sullivan import cohomology as ch
from sullivan import linalg
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import CdgaMorphism, Generator, SullivanAlgebra
from sullivan.cli import main
from sullivan.documents import (
    diagram_document,
    load_diagram,
    load_document,
    load_model,
    model_document,
    run_analysis,
    to_json,
)
from sullivan.errors import EvenSphere, InvalidDegrees, SchemaError, UnknownCatalogName
from sullivan.models import cohomogeneity_one_model

GOLDEN = Path(__file__).parent / "golden"
INLINE_GROUP = {"name": "X", "rank": 1, "dim": 3, "degrees": [3]}

CP2_MODEL_DOC = {
    "kind": "model",
    "generators": [["x", 2], ["y", 2], ["n", 3], ["m", 3]],
    "differential": {"n": "x^2+y^2", "m": "x*y"},
    "cutoff": 6,
}


class TestSchema:
    def test_empty_document(self):
        with pytest.raises(SchemaError):
            load_document({})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            load_document({"kind": "mystery"})

    def test_missing_key_has_path(self):
        with pytest.raises(SchemaError, match=r"\$: missing key 'cutoff'"):
            load_model({"kind": "model", "generators": []})

    def test_unknown_catalog_name(self):
        with pytest.raises(UnknownCatalogName):
            load_document({"kind": "homogeneous", "G": "E8", "H": "T1"})

    def test_even_sphere_rejected(self):
        doc = dict(DIAGRAM_PRESETS["cp2-sum"])
        doc["sphere_dims"] = [2, 1]
        with pytest.raises(EvenSphere):
            load_diagram(doc)

    def test_bad_polynomial_type(self):
        doc = {
            "kind": "homogeneous",
            "G": "SU(2)",
            "H": "T1",
            "embedding": {"u1": 3},
        }
        with pytest.raises(SchemaError):
            load_document(doc)

    @pytest.mark.parametrize("image", ["x^", "x y", "x+", "2/0*x*y", 3, "x^2*", "x*y*"])
    def test_malformed_model_polynomial(self, image, tmp_path, capsys):
        doc = dict(CP2_MODEL_DOC, differential={"n": "x^2+y^2", "m": image})
        with pytest.raises(SchemaError, match=r"\$\.differential\.m: "):
            load_model(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--file", str(path)]) == 1
        assert "error: $.differential.m: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["x-y", "2", "n m", ""])
    def test_generator_name_outside_polynomial_grammar(self, name, tmp_path, capsys):
        doc = dict(CP2_MODEL_DOC, generators=[["x", 2], ["y", 2], ["n", 3], [name, 3]])
        doc["differential"] = {"n": "x^2+y^2"}
        with pytest.raises(SchemaError, match=r"\$\.generators\[3\]: generator name"):
            load_model(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--file", str(path)]) == 1
        assert "error: $.generators[3]: generator name" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"kind": "homogeneous", "G": "SU(3)", "H": "T2", "cutof": 2, "embeding": {"u1": "u1"}},
                "$: unknown key 'cutof'",
            ),
            (
                {"kind": "biquotient", "G": "SU(2)", "H": "T1", "embedding": "maximal-torus"},
                "$: unknown key 'embedding'",
            ),
            ({**CP2_MODEL_DOC, "differentials": {}}, "$: unknown key 'differentials'"),
            (
                {**DIAGRAM_PRESETS["cp2-sum"], "allow_disconected": True},
                "$: unknown key 'allow_disconected'",
            ),
            ({"kind": "betti", "betti": [1], "cutoff": 2}, "$: unknown key 'cutoff'"),
            (
                {"kind": "homogeneous", "G": {**INLINE_GROUP, "degree": [3]}, "H": "e"},
                "$.G: unknown key 'degree'",
            ),
            (
                {"kind": "homogeneous", "G": "SU(2)", "H": {**INLINE_GROUP, "flags": {"conected": True}}},
                "$.H.flags: unknown key 'conected'",
            ),
            (
                {**DIAGRAM_PRESETS["cp2-sum"], "embeddings": {"G->Kminus": {}, "G->Kplus": {}, "G->K": {}}},
                "$.embeddings: unknown key 'G->K'",
            ),
        ],
    )
    def test_unknown_key_rejected(self, doc, message, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_presets_and_golden_inputs_load(self):
        inputs = [json.loads(f.read_text())["input"] for f in sorted(GOLDEN.glob("*.json"))]
        assert len(inputs) >= 11
        for doc in [*DIAGRAM_PRESETS.values(), *inputs]:
            load_document(doc)

    def test_betti_document(self):
        kind, betti = load_document({"kind": "betti", "betti": [1, 0, 1]})
        assert kind == "betti" and betti == (1, 0, 1)
        with pytest.raises(SchemaError):
            load_document({"kind": "betti", "betti": [1, -1]})


class TestIntegerFields:
    """JSON ``true`` loads as a Python int; integer fields must reject it."""

    INLINE_GROUP = {"name": "X", "rank": 1, "dim": 3, "degrees": [3]}

    def _homogeneous(self, **group):
        return {
            "kind": "homogeneous",
            "G": {**self.INLINE_GROUP, **group},
            "H": "T1",
            "embedding": {"u1": "0"},
        }

    def test_bool_rank(self):
        with pytest.raises(SchemaError, match=r"\$\.G\.rank"):
            load_document(self._homogeneous(rank=True))

    def test_bool_cutoff(self):
        doc = dict(CP2_MODEL_DOC, cutoff=True)
        with pytest.raises(SchemaError, match=r"\$\.cutoff"):
            load_document(doc)
        with pytest.raises(SchemaError, match=r"\$\.cutoff"):
            run_analysis({"kind": "homogeneous", "G": "SU(2)", "H": "T1", "cutoff": True})

    def test_bool_sphere_dims(self):
        doc = dict(DIAGRAM_PRESETS["cp2-sum"])
        doc["sphere_dims"] = [True, 1]
        with pytest.raises(SchemaError, match="sphere_dims"):
            load_diagram(doc)

    def test_bool_generator_degree(self):
        doc = dict(CP2_MODEL_DOC, generators=[["x", True]], differential={})
        with pytest.raises(SchemaError, match=r"generators\[0\]"):
            load_model(doc)

    @pytest.mark.parametrize("degree", [True, "3", 3.0])
    def test_non_integer_group_degree(self, degree):
        with pytest.raises(SchemaError, match="degrees"):
            load_document(self._homogeneous(degrees=[degree]))

    def test_bool_betti(self):
        with pytest.raises(SchemaError):
            load_document({"kind": "betti", "betti": [1, True]})

    def test_bool_generator_object(self):
        with pytest.raises(InvalidDegrees):
            Generator("x", True)

    def test_cli_exit_code(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(self._homogeneous(rank=True)))
        assert main(["report", "--file", str(path)]) == 1
        assert "expected int, got bool" in capsys.readouterr().err


class TestRoundTrip:
    def test_model_document(self):
        algebra = load_model(CP2_MODEL_DOC)
        echoed = model_document(algebra)
        assert load_model(echoed).signature == algebra.signature
        assert model_document(load_model(echoed)) == echoed

    def test_diagram_document(self):
        diagram = load_diagram(DIAGRAM_PRESETS["cp2-sum"])
        echoed = diagram_document(diagram)
        again = diagram_document(load_diagram(echoed))
        assert echoed == again

    def test_inline_group(self):
        doc = {
            "kind": "homogeneous",
            "G": {"name": "X", "rank": 1, "dim": 3, "degrees": [3]},
            "H": {"name": "Y", "rank": 0, "dim": 0, "degrees": []},
            "embedding": {},
        }
        kind, (g, h, _) = load_document(doc)
        assert g.rank == 1 and h.is_trivial


class TestOneBorelPackagePerReport:
    """A report builds its Borel package once: the verdict, the space's
    table, the ``borel`` section and the Euler relations all read it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {"signatures": [], "morphisms": 0, "betti_numbers": 0, "parses": 0}
        init = SullivanAlgebra.__init__
        morphism_init = CdgaMorphism.__init__
        betti_numbers = ch.betti_numbers
        parse = SullivanAlgebra.parse

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            counts["signatures"].append(self.signature)

        def counting_morphism_init(self, *args, **kwargs):
            counts["morphisms"] += 1
            morphism_init(self, *args, **kwargs)

        def counting_betti(*args, **kwargs):
            counts["betti_numbers"] += 1
            return betti_numbers(*args, **kwargs)

        def counting_parse(self, text):
            counts["parses"] += 1
            return parse(self, text)

        monkeypatch.setattr(SullivanAlgebra, "__init__", counting_init)
        monkeypatch.setattr(SullivanAlgebra, "parse", counting_parse)
        monkeypatch.setattr(CdgaMorphism, "__init__", counting_morphism_init)
        monkeypatch.setattr(ch, "betti_numbers", counting_betti)
        return counts

    @pytest.mark.parametrize("name", sorted(DIAGRAM_PRESETS))
    def test_diagram_report(self, name, builds):
        diagram = load_diagram(DIAGRAM_PRESETS[name])
        manifold = cohomogeneity_one_model(diagram).signature
        builds["signatures"].clear()
        builds["parses"] = 0
        run_analysis(DIAGRAM_PRESETS[name])
        assert builds["morphisms"] == 1
        # the manifold model's draft and final algebra, nothing more
        assert builds["signatures"].count(manifold) <= 2
        # the manifold and Borel models (two each), one draft for the
        # orbits' restriction images and each orbit's draft and model
        assert len(builds["signatures"]) <= 11
        # the Borel model and the three orbit models; M is read from its table
        assert builds["betti_numbers"] == 4
        # each restriction string once for the manifold, once for the orbits
        assert builds["parses"] == 4 * diagram.g.rank

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "homogeneous", "G": "SU(2)", "H": "T1"},
            {"kind": "biquotient", "G": "SU(2)", "H": "T1", "left": {"u1": "-u1^2"}, "right": {"u1": "-4*u1^2"}},
        ],
    )
    def test_pair_report(self, doc, builds):
        run_analysis(doc)
        assert builds["morphisms"] == 1
        # the space model's draft and final algebra and the Borel model
        assert len(builds["signatures"]) <= 3


class TestReports:
    def test_determinism(self):
        doc = DIAGRAM_PRESETS["cp2-sum"]
        first = to_json(run_analysis(doc))
        second = to_json(run_analysis(doc))
        assert first == second

    def test_report_is_rerunnable(self):
        report = run_analysis(DIAGRAM_PRESETS["cp2-sum"])
        again = run_analysis(report["input"])
        assert again["space"]["betti"] == report["space"]["betti"]
        assert again["verdict"] == report["verdict"]

    def test_model_report(self):
        report = run_analysis(CP2_MODEL_DOC)
        assert report["space"]["betti"] == [1, 0, 2, 0, 1, 0, 0]
        assert report["space"]["euler_characteristic"] == 4
        assert report["space"]["poincare_duality"]
        assert report["ktheory"]["k0_dim"] == 4

    @pytest.mark.parametrize(
        "cutoff, betti",
        [(2, [1, 0, 2]), (4, [1, 0, 2, 0, 1]), (7, [1, 0, 2, 0, 1, 0, 0, 0])],
        ids=["below-dim-M", "at-dim-M", "above-dim-M"],
    )
    def test_euler_relations_at_truncated_cutoff(self, cutoff, betti):
        # At cutoff 2 the table stops below dim M = 4 and misses the top
        # class, so its Euler characteristic (3) is not chi(M); the
        # relations count the ranks of the manifold's model up to dim M.
        # At and above dim M they read the report's own Betti numbers.
        report = run_analysis(dict(DIAGRAM_PRESETS["cp2-sum"], cutoff=cutoff))
        assert report["space"]["betti"] == betti
        assert report["euler_relations"]["chi_m"] == 4
        assert report["euler_relations"]["identity_holds"]

    def test_rows_reach_the_kernel_as_integer_mappings(self, monkeypatch):
        """Kernel vectors, representatives and the surjectivity check's
        images enter elimination as ``{position: int}`` rows, with no
        conversion of ``Fraction`` or dense rows on a report's path."""
        seen = []
        convert = linalg._int_rows

        def recording(rows):
            rows = list(rows)
            seen.extend(rows)
            return convert(rows)

        monkeypatch.setattr(linalg, "_int_rows", recording)
        pure = {
            "kind": "model",
            "generators": [["x", 2], ["y", 2], ["z", 2], ["a", 3], ["b", 3], ["c", 3]],
            "differential": {"a": "x^2", "b": "y^2", "c": "z^2"},
            "cutoff": 10,
        }
        for doc in (pure, DIAGRAM_PRESETS["cp2-sum-times-sphere"]):
            seen.clear()
            run_analysis(doc)
            assert len(seen) > 100
            assert all(isinstance(row, dict) for row in seen)
            assert {type(x) for row in seen for x in row.values()} == {int}

    def test_every_verdict_cites(self):
        for doc in (
            DIAGRAM_PRESETS["cp2-sum"],
            DIAGRAM_PRESETS["gap-two-diagonal"],
            {"kind": "homogeneous", "G": "SU(2)", "H": "T1"},
        ):
            report = run_analysis(doc)
            assert report["citations"]
            assert report["verdict"]["citation"]

    def test_homogeneous_report_contents(self):
        report = run_analysis({"kind": "homogeneous", "G": "SU(2)", "H": "T1"})
        assert report["space"]["betti"] == [1, 0, 1]
        assert report["verdict"]["rank_criterion"] is True
        assert report["verdict"]["direct_check"] is True
        assert report["ktheory"]["k0_dim"] == 2
        assert report["input"]["cutoff"] == 2

    def test_biquotient_report(self):
        doc = {
            "kind": "biquotient",
            "G": "SU(2)",
            "H": "T1",
            "left": {"u1": "-u1^2"},
            "right": {"u1": "-4*u1^2"},
        }
        report = run_analysis(doc)
        assert report["verdict"]["direct_check"] is True
        assert report["kind"] == "biquotient"
