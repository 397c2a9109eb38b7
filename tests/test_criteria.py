"""Decision layer: rank criteria against direct checks, formality,
Euler identities, theorem applicability."""

import random
from types import SimpleNamespace

import pytest

from instance_generators import random_pure, random_pure_elliptic

from sullivan import linalg
from sullivan.catalog import lookup, standard_restriction
from sullivan.cdga import SullivanAlgebra
from sullivan.cohomology import (
    _elliptic,
    _formal_dimension,
    betti_numbers,
    cohomology,
    h0_dims,
    top_window_vanishes,
)
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
        cases = [
            ([("u", 2), ("q", 3)], {"q": "u^2"}, True),
            ([("u", 4), ("q", 7)], {"q": "u^2"}, True),
            ([("q", 3), ("r", 5)], {}, True),
            ([("u", 2), ("q", 3)], {}, False),
            ([("u", 2), ("v", 2), ("q", 3)], {"q": "u^2"}, False),
            ([("u", 2), ("v", 4), ("q", 3), ("r", 7)], {"q": "u^2", "r": "u^4"}, False),
        ]
        for gens, d, elliptic in cases:
            assert _elliptic(SullivanAlgebra.build(gens, d, cutoff=2)) is elliptic

    def test_elliptic_agrees_with_the_betti_and_h0_windows(self):
        """On random pure algebras, elliptic or not, the H_0 test agrees
        with H vanishing on N + 1..N + w, for w the largest generator
        degree, and with ``h0_dims`` vanishing on N + 1..N + w_Q, for w_Q
        the largest even one, whatever the algebra's cutoff."""
        rng = random.Random(307)
        algebras = [SullivanAlgebra.build([("x", 2), ("y", 2), ("a", 3)], {"a": "x*y"}, cutoff=0)]
        while len(algebras) < 60:
            algebra = random_pure(rng)
            if algebra is not None:
                algebras.append(algebra)
        verdicts = []
        for a in algebras:
            n = _formal_dimension(a)
            w_q = max((g.degree for g in a.generators if not g.is_odd), default=0)
            wide = a.with_cutoff(n + max(g.degree for g in a.generators))
            elliptic = top_window_vanishes(wide, betti_numbers(wide))
            h0 = h0_dims(a.with_cutoff(n + w_q))
            assert elliptic == all(h0[k] == 0 for k in h0 if k > n)
            assert _elliptic(a) is _elliptic(wide) is elliptic
            verdicts.append(elliptic)
        assert not verdicts[0]
        assert 10 < sum(verdicts) < len(verdicts) - 10

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


def strand_formality(a):
    """The reference formality count (k, mu) over ΛV's strands: in each
    even degree n up to the largest |y_j| + 1, the d rows of the
    strand-1 monomials of degree n - 1, the products x^a*y (a != 0)
    first and the bare odd generators last, over the strand-0 monomials
    of degree n; mu adds the bare rows independent of those before
    them."""
    top = max((g.degree + 1 for g, image in zip(a.generators, a._images) if image), default=0)
    mu = 0
    for n in range(2, top + 1, 2):
        index = a._positions(n)  # fits the packed fields to degree n
        odd = a._odd_bits
        strand0 = {p: i for i, p in enumerate(q for q in index if not q & odd)}
        strand1 = [p for p in a._positions(n - 1) if (p & odd).bit_count() == 1]
        products = [p for p in strand1 if p & ~odd]
        bare = [p for p in strand1 if not p & ~odd]
        _, pivots = linalg._echelon(linalg._transpose(a._d_rows(products + bare, strand0)))
        mu += sum(c >= len(products) for c in pivots)
    return len(a._odd) - mu, mu


def ideal_formality(a):
    """The reference formality count (k, mu) over ΛQ, one elimination of
    its own per even degree n up to the largest |f_j|: the rows f_j m of
    the ideal (f_j), m running over the monomials of ΛQ of degree
    n - |f_j|, the products (m != 1) first and the bare f_j last, each
    row a column of one echelon; mu adds the bare rows independent of
    those before them."""
    evens = [i for i, g in enumerate(a.generators) if not g.is_odd]
    ideal = [(g.degree + 1, image) for g, image in zip(a.generators, a.differential) if not image.is_zero]
    top = max((d for d, _ in ideal), default=0)
    ring = SullivanAlgebra([a.generators[i] for i in evens], top)
    ideal = [(d, ring._element({tuple(m[i] for i in evens): c for m, c in f.terms.items()})) for d, f in ideal]
    mu = 0
    for n in range(2, top + 1, 2):
        products = [(f * ring._element({m: 1})).terms for d, f in ideal if d < n for m in ring._basis(n - d)]
        bare = [f.terms for d, f in ideal if d == n]
        _, pivots = linalg._echelon(linalg._transpose(products + bare))
        mu += sum(c >= len(products) for c in pivots)
    return len(a._odd) - mu, mu


class TestFormalityAgainstTheIdeal:
    """``pure_formality`` sums the shares μ_k that the ΛQ helper keeps,
    against the reference ``ideal_formality``, on every draw of
    ``random_pure_elliptic`` from seeds 0-399: once after the table, so
    that μ reads the degrees the table read, and once on a fresh
    algebra that no table has read."""

    def test_random_pure_elliptic(self):
        draws = chi_zero = 0
        for seed in range(400):
            a = random_pure_elliptic(random.Random(seed))
            if a is None:
                continue
            draws += 1
            chi_zero += a.homotopy_euler_characteristic() == 0
            expected = ideal_formality(a)
            table = cohomology(a)
            verdict = pure_formality(table)
            assert (verdict.split_k, verdict.minimal_generators_mu) == expected
            fresh = SullivanAlgebra(a.generators, a.cutoff, dict(zip((g.name for g in a.generators), a.differential)))
            verdict = pure_formality(SimpleNamespace(algebra=fresh, betti=table.betti))
            assert (verdict.split_k, verdict.minimal_generators_mu) == expected
        assert (draws, chi_zero) == (346, 81)


# The pure models of ``TestFormality``: generators, differential, cutoff.
FORMALITY_MODELS = {
    "cp2sum": ([("x", 2), ("y", 2), ("n", 3), ("m", 3)], {"n": "x^2+y^2", "m": "x*y"}, 7),
    "odd-sphere": ([("q", 3)], {}, 6),
    "three-strands": (
        [("u", 2), ("q1", 3), ("q2", 3), ("q3", 3)],
        {"q1": "u^2", "q2": "u^2", "q3": "u^2"},
        11,
    ),
    "nonformal-chi-one": (
        [("u", 2), ("v", 2), ("q1", 3), ("q2", 3), ("q3", 3)],
        {"q1": "u^2", "q2": "u*v", "q3": "v^2"},
        10,
    ),
    "redundant-relation": ([("u", 2), ("q1", 3), ("q2", 5)], {"q1": "u^2", "q2": "u^3"}, 12),
    "six-generators": (
        [("x", 2), ("y", 2), ("z", 2), ("a", 3), ("b", 3), ("c", 3)],
        {"a": "x^2", "b": "y^2", "c": "z^2"},
        14,
    ),
}


class TestFormalityAgainstStrands:
    """``pure_formality`` reads the rows f_j m of ΛQ; the reference count
    reads the same rows as d of ΛV's strand-1 monomials."""

    @staticmethod
    def assert_matches(a):
        verdict = pure_formality(cohomology(a))
        assert (verdict.split_k, verdict.minimal_generators_mu) == strand_formality(a)

    @pytest.mark.parametrize("name", sorted(FORMALITY_MODELS))
    def test_formality_models(self, name):
        gens, d, cutoff = FORMALITY_MODELS[name]
        self.assert_matches(SullivanAlgebra.build(gens, d, cutoff=cutoff))

    def test_random_pure_elliptic(self):
        rng = random.Random(521)
        counts = []
        while len(counts) < 40:
            a = random_pure_elliptic(rng, max_cutoff=16)
            if a is not None:
                self.assert_matches(a)
                counts.append(strand_formality(a))
        assert any(k for k, _ in counts) and any(mu > 1 for _, mu in counts)


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
        "generators, differential, cutoff, degrees",
        [
            # the six-generator pure model: candidates only in degree 4,
            # which its table, read from ΛQ, has read already
            (
                [("x", 2), ("y", 2), ("z", 2), ("a", 3), ("b", 3), ("c", 3)],
                {"a": "x^2", "b": "y^2", "c": "z^2"},
                14,
                0,
            ),
            # candidates in degree 4 (u^2) and 6 (u * u^2 and u^3), which
            # the H_0 rule of its ΛV table grew the basis through
            ([("u", 2), ("q1", 3), ("q2", 5)], {"q1": "u^2", "q2": "u^3"}, 12, 2),
        ],
    )
    def test_one_elimination_per_degree_with_candidates(
        self, generators, differential, cutoff, degrees, monkeypatch
    ):
        """The count reads each degree of some f_j from the helper the
        table asked, once: it eliminates nothing and reduces nothing the
        basis has not, and reads only the degrees no one read before."""
        from sullivan import cohomology as ch
        from sullivan import linalg

        a = SullivanAlgebra.build(generators, differential, cutoff=cutoff)
        table = cohomology(a)
        kept = dict(ch._ideal(a).kept)
        monkeypatch.setattr(linalg, "ff_row_echelon", None)
        monkeypatch.setattr(ch._Ideal, "_reduced", None)
        pure_formality(table)
        assert len(ch._ideal(a).kept) - len(kept) == degrees


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
    def test_disagreement_raises(self, monkeypatch):
        # a table reading that contradicts the rank criterion (gap 0 says
        # onto) on an elliptic space: the verdict is refused, unless the
        # hypotheses are relaxed
        from sullivan import criteria
        from sullivan.models import biquotient_model, cohomogeneity_one_model

        monkeypatch.setattr(criteria, "_strand_surjectivity", lambda table: ((False, 4), (True, None)))
        space = biquotient_model(SU2, T1, standard_restriction("SU(2)", "T1", "maximal-torus"))
        with pytest.raises(CriterionDisagreement) as info:
            criteria._space_verdict(space, "homogeneous", 0, True, "")
        assert str(info.value) == (
            "homogeneous: rank criterion says True but the direct check says False "
            "(first failing degree 4)"
        )
        relaxed = GroupDiagram(SU2, lookup("Z2"), T1, T1, {"u1": "-em^2"}, {"u1": "-ep^2"}, (1, 1))
        space = cohomogeneity_one_model(relaxed, None, True)
        _, verdict = criteria._space_verdict(
            space, "cohomogeneity_one", relaxed.rank_gap, False, criteria.CITATION_COHO1
        )
        assert not verdict.hypotheses_hold
        assert verdict.rank_criterion and not verdict.direct_check
        assert verdict.first_failing_degree == 4

    @pytest.mark.parametrize("check", [homogeneous_surjectivity, biquotient_surjectivity])
    def test_non_elliptic_maps_have_no_verdict(self, check):
        # both generators of H*(BT2) restrict to u1^2: the rank criterion
        # and the direct check agree, but u2 is free, so the space fails
        # the H_0 rule, which a cutoff at the formal dimension 4 or above asks
        g, h = lookup("SU(2)^2"), lookup("T2")
        doubled = RestrictionMap(g, h, {"u1": "u1^2", "u2": "u1^2"})
        for cutoff in (4, 8):
            with pytest.raises(NotElliptic, match="infinite-dimensional"):
                check(g, h, doubled, cutoff)
        # a table cut off below the formal dimension is not checked
        verdict = check(g, h, doubled, 3)
        assert verdict.rank_criterion and verdict.direct_check

    def test_no_compact_quotient_at_the_default_cutoff(self):
        """Maps whose model has infinite cohomology are rejected at the
        default cutoff, the formal dimension N, where the table reads no
        class above N and so satisfies Poincaré duality: the zero
        embedding of T1 in SU(2), the equal two-sided biquotient of
        SU(2) by T1, and cp2-sum with the plus restriction zero."""
        from sullivan.catalog import DIAGRAM_PRESETS
        from sullivan.documents import load_diagram

        square = RestrictionMap(SU2, T1, {"u1": "-u1^2"}, {"u1": "-u1^2"})
        zero_plus = {"G->Kminus": {"u1": "-em^2"}, "G->Kplus": {"u1": "0"}}
        checks = [
            lambda: homogeneous_surjectivity(SU2, T1, RestrictionMap(SU2, T1, {"u1": "0"})),
            lambda: biquotient_surjectivity(SU2, T1, square),
            lambda: cohomogeneity_one_surjectivity(
                load_diagram({**DIAGRAM_PRESETS["cp2-sum"], "embeddings": zero_plus})
            ),
        ]
        for check in checks:
            with pytest.raises(NotElliptic, match="define no compact quotient"):
                check()

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
        from sullivan.linalg import rank_rows

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
                if rank_rows(matrices[n].entries) != table.betti[n]:
                    slow_fail = n
                    break
            assert fast == (slow_fail is None)
            assert fast_fail == slow_fail
            checked += 1


def _reports() -> dict:
    """The report documents of the ``reports`` benchmark, by name: every
    diagram preset, SU(4)/T3 and Sp(2)/T2 at their maximal tori, and the
    README biquotient."""
    from sullivan.catalog import DIAGRAM_PRESETS

    reports = dict(DIAGRAM_PRESETS)
    for g, h in (("SU(4)", "T3"), ("Sp(2)", "T2")):
        reports[f"{g}/{h}"] = {"kind": "homogeneous", "G": g, "H": h, "embedding": "maximal-torus"}
    reports["biquotient-readme"] = {
        "kind": "biquotient",
        "G": "SU(2)",
        "H": "T1",
        "left": {"u1": "-u1^2"},
        "right": {"u1": "-4*u1^2"},
    }
    return reports


REPORTS = _reports()


class TestOneWalk:
    """A report's one pass over its space model is the space's table:
    the verdict reads that table, and no cleared chain of the space is
    walked."""

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_verdict_walks_the_space_chain_once(self, name, monkeypatch):
        from sullivan import cohomology as ch
        from sullivan import criteria
        from sullivan.documents import run_analysis

        walked, tabled, analyses, built = [], [], [], []
        echelons, init = ch._echelons, ch.CohomologyTable.__init__
        monkeypatch.setattr(ch, "_echelons", lambda a, top: walked.append(a) or echelons(a, top))

        def recording_init(table, a):
            tabled.append(a)
            init(table, a)

        monkeypatch.setattr(ch.CohomologyTable, "__init__", recording_init)
        for analysis in ("pair_analysis", "cohomogeneity_one_analysis"):
            original = getattr(criteria, analysis)
            monkeypatch.setattr(
                criteria, analysis, lambda *args, f=original: analyses.append(f(*args)) or analyses[-1]
            )
        for builder in ("biquotient_model", "cohomogeneity_one_model"):
            original = getattr(criteria, builder)
            monkeypatch.setattr(
                criteria, builder, lambda *args, f=original: built.append(f(*args)) or built[-1]
            )
        report = run_analysis(REPORTS[name])
        [(table, verdict)] = analyses
        [space] = built
        assert not any(a is space for a in walked)
        assert [a for a in tabled if a is space] == [space]
        assert table.algebra is space
        assert report["space"]["betti"] == list(table.betti)
        assert report["verdict"]["direct_check"] == verdict.direct_check
