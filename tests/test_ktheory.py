"""Rational K-theory counts and stabilization conclusions."""

from sullivan.catalog import lookup
from sullivan.cohomology import betti_numbers, cohomology
from sullivan.criteria import cohomogeneity_one_surjectivity, homogeneous_surjectivity
from sullivan.documents import load_diagram
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import SullivanAlgebra
from sullivan.ktheory import (
    INTEGRAL,
    NONE,
    RATIONAL,
    StabilizationFlags,
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
        flags = StabilizationFlags.from_homogeneous(g, h)
        return verdict, stabilization_report(verdict, flags, (1,))  # the Betti numbers of a point

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
    def _coho1_report(self, preset):
        diagram = load_diagram(DIAGRAM_PRESETS[preset])
        verdict = cohomogeneity_one_surjectivity(diagram)
        from sullivan.models import cohomogeneity_one_model

        betti = betti_numbers(cohomogeneity_one_model(diagram))
        return stabilization_report(verdict, StabilizationFlags.from_diagram(diagram), betti)

    def test_integral_route(self):
        report = self._coho1_report("cp2-sum")
        assert report.stabilization_conclusion == INTEGRAL
        assert report.infinite_stable_classes  # b4 = 1
        assert report.forgetful_even_surjective

    def test_rational_route(self):
        report = self._coho1_report("gap-one-diagonal")
        assert report.stabilization_conclusion == RATIONAL

    def test_no_route(self):
        report = self._coho1_report("gap-two-diagonal")
        assert report.stabilization_conclusion == NONE
        assert not report.forgetful_even_surjective

    def test_homogeneous_integral(self):
        su2, t1 = lookup("SU(2)"), lookup("T1")
        from sullivan.catalog import standard_restriction

        verdict = homogeneous_surjectivity(su2, t1, standard_restriction("SU(2)", "T1"))
        betti = (1, 0, 1)
        report = stabilization_report(
            verdict, StabilizationFlags.from_homogeneous(su2, t1), betti
        )
        assert report.stabilization_conclusion == INTEGRAL
        assert report.k0_dim == 2 and report.k1_dim == 0 and report.ko_dim == 1

    def test_every_conclusion_cites(self):
        for preset in ("cp2-sum", "gap-one-diagonal", "gap-two-diagonal"):
            report = self._coho1_report(preset)
            assert report.citations
