"""Decision layer: rank criteria against direct checks, formality,
Euler identities, theorem applicability."""

import pytest

from sullivan.catalog import lookup, standard_restriction
from sullivan.cdga import SullivanAlgebra
from sullivan.cohomology import cohomology
from sullivan.criteria import (
    CriterionDisagreement,
    biquotient_surjectivity,
    cohomogeneity_one_surjectivity,
    euler_characteristic_relations,
    homogeneous_surjectivity,
    pure_formality,
    pure_h0_equals_heven,
    theorem_a_applicability,
)
from sullivan.errors import CutoffExceeded, DisconnectedGroup, NotElliptic, NotPure
from sullivan.models import GroupDiagram, RestrictionMap, cohomogeneity_one_model

SU2 = lookup("SU(2)")
T1 = lookup("T1")
TRIVIAL = lookup("e")


def diagram(name):
    from sullivan.catalog import DIAGRAM_PRESETS
    from sullivan.documents import load_diagram

    return load_diagram(DIAGRAM_PRESETS[name])


class TestHomogeneous:
    def test_equal_rank(self):
        verdict = homogeneous_surjectivity(SU2, T1, standard_restriction("SU(2)", "T1"))
        assert verdict.rank_criterion and verdict.direct_check
        assert verdict.chi_pi == 0
        assert verdict.odd_direct_check  # no odd cohomology on the two-sphere

    def test_gap_one(self):
        verdict = homogeneous_surjectivity(SU2, TRIVIAL, RestrictionMap(SU2, TRIVIAL, {}))
        assert verdict.rank_criterion and verdict.direct_check
        assert verdict.chi_pi == 1
        assert not verdict.odd_direct_check  # H^3 of the three-sphere is missed
        assert verdict.odd_first_failing_degree == 3

    def test_gap_two_fails_at_six(self):
        g = lookup("SU(2)^2")
        verdict = homogeneous_surjectivity(g, TRIVIAL, RestrictionMap(g, TRIVIAL, {}))
        assert not verdict.rank_criterion and not verdict.direct_check
        assert verdict.first_failing_degree == 6

    def test_truncated_check_without_failure_is_a_validation_error(self):
        # SU(2)^2 fails first in degree 6 (above); cut off at 4, below the
        # formal dimension 6, the direct check cannot confirm surjectivity
        g = lookup("SU(2)^2")
        with pytest.raises(CutoffExceeded):
            homogeneous_surjectivity(g, TRIVIAL, RestrictionMap(g, TRIVIAL, {}), cutoff=4)
        with pytest.raises(CutoffExceeded):
            cohomogeneity_one_surjectivity(diagram("gap-three-diagonal"), cutoff=2)
        # agreeing checks at a truncated cutoff give a verdict
        su3 = lookup("SU(3)")
        t2 = lookup("T2")
        verdict = homogeneous_surjectivity(su3, t2, standard_restriction("SU(3)", "T2"), cutoff=2)
        assert verdict.rank_criterion and verdict.direct_check and verdict.cutoff == 2

    def test_non_elliptic_model_is_a_validation_error(self):
        # zero maps: H*(BH) is not finite over H*(BG), there is no quotient
        t2 = lookup("T2")
        for check in (homogeneous_surjectivity, biquotient_surjectivity):
            with pytest.raises(NotElliptic):
                check(t2, t2, RestrictionMap(t2, t2, {}), cutoff=2)

    def test_elliptic_against_known_models(self):
        from sullivan.criteria import _elliptic

        cases = [
            ([("u", 2), ("q", 3)], {"q": "u^2"}, True),
            ([("u", 4), ("q", 7)], {"q": "u^2"}, True),
            ([("q", 3), ("r", 5)], {}, True),
            ([("u", 2), ("q", 3)], {}, False),
            ([("u", 2), ("v", 2), ("q", 3)], {"q": "u^2"}, False),
            ([("u", 2), ("v", 4), ("q", 3), ("r", 7)], {"q": "u^2", "r": "u^4"}, False),
        ]
        for gens, d, elliptic in cases:
            top = sum(deg if deg % 2 else 1 - deg for _, deg in gens)
            assert _elliptic(SullivanAlgebra.build(gens, d, cutoff=2), top) is elliptic

    def test_disconnected_rejected(self):
        z2 = lookup("Z2")
        with pytest.raises(DisconnectedGroup):
            homogeneous_surjectivity(SU2, z2, RestrictionMap(SU2, z2, {}))


class TestBiquotient:
    def test_equal_rank_two_sided(self):
        restriction = RestrictionMap(SU2, T1, {"u1": "-u1^2"}, {"u1": "-4*u1^2"})
        verdict = biquotient_surjectivity(SU2, T1, restriction)
        assert verdict.rank_criterion and verdict.direct_check

    def test_gap_one(self):
        g = lookup("SU(2)^2")
        restriction = RestrictionMap(g, T1, {"u1": "-u1^2"}, {"u2": "-u1^2"})
        verdict = biquotient_surjectivity(g, T1, restriction)
        assert verdict.rank_criterion and verdict.direct_check
        assert verdict.chi_pi == 1

    def test_gap_two_product_witness(self):
        # two split odd classes force an even product class outside the image
        g = lookup("SU(2)^2")
        verdict = biquotient_surjectivity(g, TRIVIAL, RestrictionMap(g, TRIVIAL, {}))
        assert not verdict.direct_check
        assert verdict.first_failing_degree == 6


class TestCohomogeneityOne:
    def test_cp2sum(self):
        verdict = cohomogeneity_one_surjectivity(diagram("cp2-sum"))
        assert verdict.rank_criterion and verdict.direct_check
        assert verdict.chi_pi == 0

    def test_equal_rank_product(self):
        verdict = cohomogeneity_one_surjectivity(diagram("cp2-sum-times-sphere"))
        assert verdict.rank_criterion and verdict.direct_check
        assert verdict.chi_pi == 0

    def test_gap_two_agrees(self):
        verdict = cohomogeneity_one_surjectivity(diagram("gap-two-diagonal"))
        assert not verdict.rank_criterion and not verdict.direct_check
        assert verdict.chi_pi == 2
        assert verdict.first_failing_degree == 6

    def test_three_sphere_fibres(self):
        verdict = cohomogeneity_one_surjectivity(diagram("sphere-s7"))
        assert verdict.rank_criterion and verdict.direct_check
        assert verdict.chi_pi == 1

    def test_smallest_diagram_gives_two_sphere(self):
        # both singular orbits are points, the principal orbit a circle:
        # the double mapping cylinder is the two-sphere
        from sullivan.cohomology import betti_numbers
        from sullivan.models import cohomogeneity_one_model

        smallest = GroupDiagram(
            T1, TRIVIAL, T1, T1, {"u1": "em"}, {"u1": "ep"}, (1, 1)
        )
        model = cohomogeneity_one_model(smallest)
        assert betti_numbers(model) == (1, 0, 1)
        relations = euler_characteristic_relations(smallest, cohomology(cohomogeneity_one_model(smallest)))
        assert (relations.chi_m, relations.chi_orbit_minus, relations.chi_principal) == (2, 1, 0)
        verdict = cohomogeneity_one_surjectivity(smallest)
        assert verdict.rank_criterion and verdict.direct_check

    def test_mixed_sphere_dimensions(self):
        # one circle fibre and one three-sphere fibre: the sphere classes
        # live in different degrees and the relation generator in degree 5
        from sullivan.cohomology import betti_numbers, euler_characteristic
        from sullivan.models import cohomogeneity_one_model

        mixed = GroupDiagram(
            lookup("SU(2)^2"),
            T1,
            lookup("T2"),
            lookup("SU(2)xT1"),
            {"u1": "-em^2", "u2": "-u1^2"},
            {"u1": "ep", "u2": "-u1^2"},
            (1, 3),
        )
        model = cohomogeneity_one_model(mixed)
        betti = betti_numbers(model)
        assert betti == (1, 0, 2, 0, 2, 0, 1)
        assert euler_characteristic(betti) == 6
        relations = euler_characteristic_relations(mixed, cohomology(cohomogeneity_one_model(mixed)))
        assert (relations.chi_orbit_minus, relations.chi_orbit_plus, relations.chi_principal) == (4, 2, 0)
        verdict = cohomogeneity_one_surjectivity(mixed)
        assert verdict.rank_criterion and verdict.direct_check and verdict.chi_pi == 0
        # three-sphere fibres put the diagram outside the circle clauses
        clauses = theorem_a_applicability(mixed)
        assert not clauses.integral_clause and not clauses.rational_clause
        assert clauses.even_surjectivity_theorem_applies

    def test_second_product_family_member(self):
        # next member of the equal-rank product family: chi = 4 * 2 * 2
        from sullivan.cohomology import betti_numbers, euler_characteristic
        from sullivan.models import cohomogeneity_one_model

        g, h, k = lookup("SU(2)^3"), lookup("T2"), lookup("T3")
        family = GroupDiagram(
            g,
            h,
            k,
            k,
            {"u1": "-em^2", "u2": "-u1^2", "u3": "-u2^2"},
            {"u1": "-ep^2", "u2": "-u1^2", "u3": "-u2^2"},
            (1, 1),
        )
        model = cohomogeneity_one_model(family)
        betti = betti_numbers(model)
        assert betti == (1, 0, 4, 0, 6, 0, 4, 0, 1)
        assert euler_characteristic(betti) == 16
        verdict = cohomogeneity_one_surjectivity(family)
        assert verdict.rank_criterion and verdict.direct_check
        relations = euler_characteristic_relations(family, cohomology(cohomogeneity_one_model(family)))
        assert (relations.chi_orbit_minus, relations.chi_orbit_plus, relations.chi_principal) == (8, 8, 0)
        clauses = theorem_a_applicability(family)
        assert clauses.integral_clause and clauses.rational_clause


class TestEvenCoverage:
    def test_two_free_spheres(self):
        a = SullivanAlgebra.build([("q1", 3), ("q2", 5)], cutoff=13)
        report = pure_h0_equals_heven(cohomology(a))
        assert not report.h0_equals_heven
        assert report.chi_pi == 2
        assert report.first_uncovered_degree == 8

    def test_two_sphere(self):
        a = SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=6)
        report = pure_h0_equals_heven(cohomology(a))
        assert report.h0_equals_heven and report.chi_pi == 0

    def test_three_sphere(self):
        a = SullivanAlgebra.build([("q", 3)], cutoff=6)
        report = pure_h0_equals_heven(cohomology(a))
        assert report.h0_equals_heven and report.chi_pi == 1

    def test_not_pure(self):
        a = SullivanAlgebra.build([("q", 3), ("p", 3), ("z", 5)], {"z": "q*p"}, cutoff=8)
        with pytest.raises(NotPure):
            pure_h0_equals_heven(cohomology(a))

    def test_not_elliptic(self):
        a = SullivanAlgebra.build([("u", 2)], cutoff=6)
        with pytest.raises(NotElliptic):
            pure_h0_equals_heven(cohomology(a))


class TestFormality:
    def test_cp2sum(self):
        a = SullivanAlgebra.build(
            [("x", 2), ("y", 2), ("n", 3), ("m", 3)],
            {"n": "x^2+y^2", "m": "x*y"},
            cutoff=7,
        )
        verdict = pure_formality(cohomology(a))
        assert verdict.minimal_generators_mu == 2
        assert verdict.split_k == 0
        assert verdict.formal

    def test_odd_sphere(self):
        a = SullivanAlgebra.build([("q", 3)], cutoff=6)
        verdict = pure_formality(cohomology(a))
        assert verdict.minimal_generators_mu == 0
        assert verdict.split_k == 1
        assert verdict.formal

    def test_three_strands_on_one_polynomial_generator(self):
        a = SullivanAlgebra.build(
            [("u", 2), ("q1", 3), ("q2", 3), ("q3", 3)],
            {"q1": "u^2", "q2": "u^2", "q3": "u^2"},
            cutoff=11,
        )
        verdict = pure_formality(cohomology(a))
        assert verdict.minimal_generators_mu == 1
        assert verdict.split_k == 2
        assert verdict.formal  # mu equals the number of even generators
        report = pure_h0_equals_heven(cohomology(a))
        assert report.chi_pi == 2 and not report.h0_equals_heven

    def test_nonformal_chi_one_instance(self):
        # three relations on two polynomial generators: not a regular
        # sequence, so the algebra is non-formal, yet chi_pi = 1 keeps
        # the even coverage equivalence intact
        a = SullivanAlgebra.build(
            [("u", 2), ("v", 2), ("q1", 3), ("q2", 3), ("q3", 3)],
            {"q1": "u^2", "q2": "u*v", "q3": "v^2"},
            cutoff=10,
        )
        verdict = pure_formality(cohomology(a))
        assert verdict.minimal_generators_mu == 3
        assert verdict.split_k == 0
        assert not verdict.formal
        report = pure_h0_equals_heven(cohomology(a))
        assert report.h0_equals_heven and report.chi_pi == 1
        from sullivan.cohomology import betti_numbers, lower_grading

        assert betti_numbers(a) == (1, 0, 2, 0, 0, 2, 0, 1, 0, 0, 0)
        # the one-dimensional top class sits in lower word length one
        assert lower_grading(a).dims(7) == {1: 1}

    def test_redundant_relation_absorbed(self):
        # d q2 = u^3 lies in the ideal generated by d q1 = u^2 up to a
        # generator change, so only one minimal relation remains
        a = SullivanAlgebra.build(
            [("u", 2), ("q1", 3), ("q2", 5)],
            {"q1": "u^2", "q2": "u^3"},
            cutoff=12,
        )
        verdict = pure_formality(cohomology(a))
        assert verdict.minimal_generators_mu == 1
        assert verdict.split_k == 1

    @pytest.mark.parametrize(
        "generators, differential, cutoff, calls",
        [
            # the six-generator pure model: candidates only in degree 4
            (
                [("x", 2), ("y", 2), ("z", 2), ("a", 3), ("b", 3), ("c", 3)],
                {"a": "x^2", "b": "y^2", "c": "z^2"},
                14,
                1,
            ),
            # candidates in degree 4 (u^2) and 6 (u * u^2 and u^3)
            ([("u", 2), ("q1", 3), ("q2", 5)], {"q1": "u^2", "q2": "u^3"}, 12, 2),
        ],
    )
    def test_one_elimination_per_degree_with_candidates(
        self, generators, differential, cutoff, calls, monkeypatch
    ):
        from sullivan import linalg

        table = cohomology(SullivanAlgebra.build(generators, differential, cutoff=cutoff))
        echelon = linalg.ff_row_echelon
        seen = []

        def counting_echelon(rows):
            seen.append(1)
            return echelon(rows)

        monkeypatch.setattr(linalg, "ff_row_echelon", counting_echelon)
        pure_formality(table)
        assert len(seen) == calls


class TestDiagramReports:
    def test_euler_identity_cp2sum(self):
        d = diagram("cp2-sum")
        report = euler_characteristic_relations(d, cohomology(cohomogeneity_one_model(d)))
        assert (report.chi_m, report.chi_orbit_minus, report.chi_orbit_plus, report.chi_principal) == (4, 2, 2, 0)
        assert report.identity_holds and report.positive_iff_equal_rank

    def test_euler_identity_product(self):
        d = diagram("cp2-sum-times-sphere")
        report = euler_characteristic_relations(d, cohomology(cohomogeneity_one_model(d)))
        assert report.chi_m == 8 and report.chi_orbit_minus == 4
        assert report.chi_principal == 0

    def test_euler_identity_gap_two(self):
        d = diagram("gap-two-diagonal")
        report = euler_characteristic_relations(d, cohomology(cohomogeneity_one_model(d)))
        assert report.chi_m == 0
        assert report.identity_holds and report.positive_iff_equal_rank

    def test_applicability(self):
        full = theorem_a_applicability(diagram("cp2-sum"))
        assert full.integral_clause and full.rational_clause
        gap_one = theorem_a_applicability(diagram("gap-one-diagonal"))
        assert not gap_one.integral_clause and gap_one.rational_clause
        spheres = theorem_a_applicability(diagram("sphere-s4"))
        assert not spheres.integral_clause and not spheres.rational_clause
        assert spheres.even_surjectivity_theorem_applies


class TestDiagnostics:
    def test_disagreement_raises(self):
        from sullivan.criteria import SurjectivityVerdict, _reconcile

        verdict = SurjectivityVerdict(
            context="homogeneous",
            rank_gap=0,
            chi_pi=0,
            rank_criterion=True,
            direct_check=False,
            first_failing_degree=4,
        )
        with pytest.raises(CriterionDisagreement):
            _reconcile(verdict)
        relaxed = SurjectivityVerdict(
            context="homogeneous",
            rank_gap=0,
            chi_pi=0,
            rank_criterion=True,
            direct_check=False,
            first_failing_degree=4,
            hypotheses_hold=False,
        )
        assert _reconcile(relaxed) is relaxed

    def test_finite_isotropy_relaxes_hypotheses(self):
        from sullivan.catalog import lookup as clookup
        from sullivan.models import GroupDiagram

        diagram = GroupDiagram(
            SU2,
            clookup("Z2"),
            T1,
            T1,
            {"u1": "-em^2"},
            {"u1": "-ep^2"},
            (1, 1),
        )
        verdict = cohomogeneity_one_surjectivity(diagram, allow_disconnected=True)
        assert not verdict.hypotheses_hold
        assert verdict.rank_criterion and verdict.direct_check

    def test_fast_surjectivity_matches_matrix_route(self):
        # the rank-counting path and the induced-matrix path must agree
        import random

        from induced_reference import induced_map
        from instance_generators import random_pure_elliptic
        from sullivan.cohomology import cohomology, even_degree_surjectivity
        from sullivan.criteria import even_subalgebra_inclusion
        from sullivan.linalg import rank

        rng = random.Random(307)
        checked = 0
        while checked < 15:
            algebra = random_pure_elliptic(rng, max_even=2, max_odd=3, max_cutoff=14)
            if algebra is None:
                continue
            evens = [g.name for g in algebra.generators if not g.is_odd]
            inclusion = even_subalgebra_inclusion(algebra, evens)
            fast, fast_fail = even_degree_surjectivity(inclusion)
            table = cohomology(algebra)
            matrices = induced_map(inclusion, target_table=table)
            slow_fail = None
            for n in range(0, algebra.cutoff + 1, 2):
                if rank(matrices[n]) != table.betti[n]:
                    slow_fail = n
                    break
            assert fast == (slow_fail is None)
            assert fast_fail == slow_fail
            checked += 1
