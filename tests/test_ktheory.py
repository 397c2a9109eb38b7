"""Rational K-theory counts and stabilization conclusions."""

from typing import NamedTuple

import pytest

from sullivan.catalog import lookup
from sullivan.cohomology import betti_numbers, cohomology
from sullivan.criteria import cohomogeneity_one_surjectivity, homogeneous_surjectivity
from sullivan.documents import load_diagram, load_document, run_analysis
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import SullivanAlgebra
from sullivan.ktheory import (
    CITATION_CHERN,
    CITATION_INTEGRAL_COHO1,
    CITATION_INTEGRAL_HOMOGENEOUS,
    CITATION_KO,
    CITATION_RATIONAL,
    CITATION_STABLE,
    CITATION_TRANSLATION,
    INTEGRAL,
    NONE,
    RATIONAL,
    rational_k_dimensions,
    stabilization_report,
    stable_class_infinitude,
)
from sullivan.models import RestrictionMap


class TestDimensions:
    def test_rank_one_symmetric_space_table(self):
        # Betti numbers 1, 0, 0, 0, 1, 0, 0, 0, 1 in degrees 0..8
        betti = (1, 0, 0, 0, 1, 0, 0, 0, 1)
        assert rational_k_dimensions(betti) == (3, 0, 3)
        assert stable_class_infinitude(betti)

    def test_two_sphere(self):
        s2 = SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=4)
        betti = cohomology(s2).betti
        assert rational_k_dimensions(betti) == (2, 0, 1)
        assert not stable_class_infinitude(betti)

    def test_three_sphere(self):
        s3 = SullivanAlgebra.build([("q", 3)], cutoff=3)
        assert rational_k_dimensions(betti_numbers(s3)) == (1, 1, 1)

    def test_sum_rule(self):
        betti = (1, 2, 3, 4, 5)
        k0, k1, ko = rational_k_dimensions(betti)
        assert k0 + k1 == sum(betti)
        assert ko <= k0


class TestTranslation:
    @staticmethod
    def report(g, h, restriction):
        verdict = homogeneous_surjectivity(g, h, restriction)
        integral = g.pi1_torsion_free and verdict.rank_gap <= 1
        citation = CITATION_INTEGRAL_HOMOGENEOUS if integral else ""
        return verdict, stabilization_report(verdict, citation, (1,))  # the Betti numbers of a point

    def test_verdict_passthrough(self):
        su2, t1 = lookup("SU(2)"), lookup("T1")
        from sullivan.catalog import standard_restriction

        verdict, report = self.report(su2, t1, standard_restriction("SU(2)", "T1"))
        assert report.forgetful_even_surjective is verdict.direct_check
        assert report.forgetful_odd_surjective is verdict.odd_direct_check

    def test_self_action_not_surjective(self):
        g = lookup("SU(2)^2")
        trivial = lookup("e")
        _, report = self.report(g, trivial, RestrictionMap(g, trivial, {}))
        assert not report.forgetful_even_surjective
        assert not report.forgetful_odd_surjective  # H^3 of either factor is missed


class TestStabilization:
    def _coho1_report(self, preset, integral):
        diagram = load_diagram(DIAGRAM_PRESETS[preset])
        verdict = cohomogeneity_one_surjectivity(diagram)
        from sullivan.models import cohomogeneity_one_model

        betti = betti_numbers(cohomogeneity_one_model(diagram))
        return stabilization_report(verdict, CITATION_INTEGRAL_COHO1 if integral else "", betti)

    def test_integral_route(self):
        report = self._coho1_report("cp2-sum", True)
        assert report.stabilization_conclusion == INTEGRAL
        assert CITATION_INTEGRAL_COHO1 in report.citations
        assert report.infinite_stable_classes  # b4 = 1
        assert report.forgetful_even_surjective

    def test_rational_route(self):
        report = self._coho1_report("gap-one-diagonal", False)
        assert report.stabilization_conclusion == RATIONAL

    def test_no_route(self):
        report = self._coho1_report("gap-two-diagonal", False)
        assert report.stabilization_conclusion == NONE
        assert not report.forgetful_even_surjective

    def test_homogeneous_integral(self):
        su2, t1 = lookup("SU(2)"), lookup("T1")
        from sullivan.catalog import standard_restriction

        verdict = homogeneous_surjectivity(su2, t1, standard_restriction("SU(2)", "T1"))
        betti = (1, 0, 1)
        report = stabilization_report(verdict, CITATION_INTEGRAL_HOMOGENEOUS, betti)
        assert report.stabilization_conclusion == INTEGRAL
        assert report.k0_dim == 2 and report.k1_dim == 0 and report.ko_dim == 1

    def test_every_conclusion_cites(self):
        for preset, integral in (("cp2-sum", True), ("gap-one-diagonal", False), ("gap-two-diagonal", False)):
            report = self._coho1_report(preset, integral)
            assert report.citations


class _Flags(NamedTuple):
    """The group hypotheses that gated the integral conclusions when
    ``ktheory`` worked them out itself; kept here as the reference rule."""

    connected: bool
    pi1_torsion_free: bool
    steinberg: bool
    rank_equality: bool

    @classmethod
    def from_homogeneous(cls, g, h):
        return cls(g.connected and h.connected, g.pi1_torsion_free, False, g.rank == h.rank)

    @classmethod
    def from_diagram(cls, diagram):
        return cls(
            all(grp.connected for grp in diagram.groups()),
            diagram.g.pi1_torsion_free,
            diagram.k_minus.steinberg and diagram.k_plus.steinberg,
            diagram.rank_gap == 0,
        )


def _reference_conclusion(kind, flags, verdict, betti):
    """The conclusion and citations the flag rule gives for one report."""
    if kind == "homogeneous":
        integral = flags.connected and flags.pi1_torsion_free and verdict["rank_gap"] <= 1
        integral_citation = CITATION_INTEGRAL_HOMOGENEOUS
    elif kind == "diagram":
        integral = (
            flags.connected and flags.pi1_torsion_free and flags.steinberg and flags.rank_equality
        )
        integral_citation = CITATION_INTEGRAL_COHO1
    else:
        integral = False
    citations = [CITATION_CHERN, CITATION_KO, CITATION_TRANSLATION]
    if integral:
        conclusion = INTEGRAL
        citations.append(integral_citation)
    elif verdict["direct_check"]:
        conclusion = RATIONAL
        citations.append(CITATION_RATIONAL)
    else:
        conclusion = NONE
    if stable_class_infinitude(betti) and conclusion != NONE:
        citations.append(CITATION_STABLE)
    return conclusion, tuple(citations)


def _pair(g, h, embedding):
    return {"kind": "homogeneous", "G": g, "H": h, "embedding": embedding}


REFERENCE_DOCUMENTS = {
    **{f"preset:{name}": doc for name, doc in DIAGRAM_PRESETS.items()},
    "SU(4)/T3": _pair("SU(4)", "T3", "maximal-torus"),
    "Sp(2)/T2": _pair("Sp(2)", "T2", "maximal-torus"),
    # SO(3) has a fundamental group with torsion
    "SO(3)/T1": _pair("SO(3)", "T1", "maximal-torus"),
    "SU(3)/SU(2)": _pair("SU(3)", "SU(2)", "block"),
    # a biquotient has no integral clause
    "biquotient-readme": {
        "kind": "biquotient",
        "G": "SU(2)",
        "H": "T1",
        "left": {"u1": "-u1^2"},
        "right": {"u1": "-4*u1^2"},
    },
    # finite principal isotropy: not every group is connected
    "Z2-isotropy": {
        "kind": "diagram",
        "G": "SU(2)",
        "H": "Z2",
        "Kminus": "T1",
        "Kplus": "T1",
        "sphere_dims": [1, 1],
        "embeddings": {"G->Kminus": {"u1": "-em^2"}, "G->Kplus": {"u1": "-ep^2"}},
        "allow_disconnected": True,
    },
}


@pytest.mark.parametrize("name", sorted(REFERENCE_DOCUMENTS))
def test_report_conclusion_matches_the_flag_rule(name):
    # The flag rule leaves out the integral clause's circle fibres, and so
    # do reports: preset:sphere-s4 (sphere dims [3, 3]) concludes
    # integral-from-flags although its theorem_applicability has
    # integral_clause false (CHANGES.md FOUND 72, ROADMAP item 15).
    doc = REFERENCE_DOCUMENTS[name]
    report = run_analysis(doc)
    kind, payload = load_document(doc)
    if kind == "diagram":
        flags = _Flags.from_diagram(payload)
    else:
        flags = _Flags.from_homogeneous(*payload[:2])
    expected = _reference_conclusion(kind, flags, report["verdict"], report["space"]["betti"])
    ktheory = report["ktheory"]
    assert (ktheory["stabilization_conclusion"], tuple(ktheory["citations"])) == expected
    assert set(expected[1]) <= set(report["citations"])
