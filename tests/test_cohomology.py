"""Cohomology tables, lower grading and surjectivity of induced maps,
the last against the reference matrices of ``induced_reference``, and
the cleared rank chain against its uncleared rank counts."""

import random
from fractions import Fraction
from operator import mul

import pytest

from induced_reference import induced_map, uncleared_betti_numbers, uncleared_surjectivity_by_parity
from instance_generators import (
    borel_packages,
    conjugated,
    k_pair_model,
    random_degree_algebras,
    random_pure,
    sheared_pairs,
    shears,
)
from sullivan import linalg
from sullivan.catalog import _TORUS_DATA, DIAGRAM_PRESETS, resolve, standard_restriction
from sullivan.cdga import CdgaMorphism, SullivanAlgebra
from sullivan.cohomology import (
    LowerGradedTable,
    _action_rows,
    _echelons,
    _formal_dimension,
    betti_numbers,
    cohomology,
    euler_characteristic,
    even_degree_surjectivity,
    h0_dims,
    lower_grading,
    poincare_duality_holds,
    surjectivity_by_parity,
    top_window_vanishes,
)
from sullivan.criteria import even_subalgebra_inclusion
from sullivan.documents import load_diagram
from sullivan.errors import InvalidDifferential, NotPure
from sullivan.models import (
    borel_model_cohomogeneity_one,
    borel_model_homogeneous,
    cohomogeneity_one_model,
)


@pytest.fixture
def s2():
    return SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=4)


@pytest.fixture
def cp2sum():
    return SullivanAlgebra.build(
        [("x", 2), ("y", 2), ("n", 3), ("m", 3)],
        {"n": "x^2+y^2", "m": "x*y"},
        cutoff=6,
    )


class TestTables:
    def test_s2_betti(self, s2):
        # deg 2: [u]; deg 4: u^2 = dq is exact; odd degrees have no cocycles
        assert betti_numbers(s2) == (1, 0, 1, 0, 0)
        assert cohomology(s2).betti == (1, 0, 1, 0, 0)

    def test_cp2sum_betti(self, cp2sum):
        # deg 4: three monomials modulo span(x^2+y^2, x y)
        assert betti_numbers(cp2sum) == (1, 0, 2, 0, 1, 0, 0)

    def test_free_exterior(self):
        a = SullivanAlgebra.build([("q1", 3), ("q2", 5)], cutoff=8)
        assert betti_numbers(a) == (1, 0, 0, 1, 0, 1, 0, 0, 1)

    def test_representatives_are_cocycles(self, cp2sum):
        table = cohomology(cp2sum)
        for n in range(7):
            for rep in table.representatives(n):
                assert cp2sum._d_element(rep).is_zero

    def test_invalid_differential_rejected(self, s2, monkeypatch):
        # d(d(u)) = d(q) = u^2 is rejected when the algebra is built; the
        # algebra is immutable, so tables and Betti numbers check d^2 no more
        with pytest.raises(InvalidDifferential):
            SullivanAlgebra.build([("u", 2), ("q", 3)], {"u": "q", "q": "u^2"}, cutoff=4)
        d_sums = SullivanAlgebra._d_sums
        calls = []

        def counting_d_sums(self, images):
            if any(images):  # a nonzero image, as the old per-image count saw
                calls.append(images)
            return d_sums(self, images)

        monkeypatch.setattr(SullivanAlgebra, "_d_sums", counting_d_sums)
        cohomology(s2)
        betti_numbers(s2)
        assert calls == []

    def test_euler_characteristic(self, s2, cp2sum):
        assert euler_characteristic(cohomology(s2).betti) == 2
        assert euler_characteristic(betti_numbers(cp2sum)) == 4
        assert euler_characteristic((1, 0, 0, 1)) == 0

    def test_formal_dimension_and_duality(self, cp2sum):
        table = cohomology(cp2sum)
        assert table.formal_dimension() == 4
        assert poincare_duality_holds(table.betti, 4)
        assert not poincare_duality_holds((1, 0, 2, 0, 2, 0, 0), 4)

    def test_top_window(self, cp2sum):
        # cutoff 4 leaves the window (2..4) touching nonzero cohomology
        tight = SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=4)
        assert not top_window_vanishes(tight, betti_numbers(tight))
        wide = SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=6)
        assert top_window_vanishes(wide, betti_numbers(wide))
        free = SullivanAlgebra.build([("u", 2)], cutoff=6)
        assert not top_window_vanishes(free, betti_numbers(free))


class TestLowerGrading:
    def test_free_odd_generator(self):
        a = SullivanAlgebra.build([("q", 3)], cutoff=4)
        lg = lower_grading(a)
        assert lg.dims(0) == {0: 1}
        assert lg.dims(3) == {1: 1}

    def test_s2_all_in_word_length_zero(self, s2):
        lg = lower_grading(s2)
        assert lg.dims(2) == {0: 1}
        assert lg.dim(4, 0) == 0 and lg.dim(4, 1) == 0

    def test_cp2sum_concentrated_in_h0(self, cp2sum):
        lg = lower_grading(cp2sum)
        betti = betti_numbers(cp2sum)
        for n in range(7):
            dims = lg.dims(n)
            assert sum(dims.values()) == betti[n]
            assert all(i == 0 for i in dims)

    def test_sum_matches_betti_and_parity(self):
        a = SullivanAlgebra.build(
            [("u", 2), ("q1", 3), ("q2", 3)], {"q1": "u^2"}, cutoff=10
        )
        lg = lower_grading(a)
        betti = betti_numbers(a)
        for n in range(11):
            dims = lg.dims(n)
            assert sum(dims.values()) == betti[n]
            for i in dims:
                assert (n - i) % 2 == 0  # parity of class = parity of word length

    def test_strands_merge_in_basis_order(self):
        # degree 4 has the basis (s t, u): a class in strand 2 comes first
        a = SullivanAlgebra.build(
            [("u", 4), ("q", 7), ("s", 1), ("t", 3)], {"q": "u^2"}, cutoff=15
        )
        table = cohomology(a)
        assert [a.format_element(e) for e in table.representatives(4)] == ["s*t", "u"]
        lg = lower_grading(a)
        assert lg.dims(4) == {0: 1, 2: 1}
        assert [a.format_element(e) for e in lg.representatives(4, 2)] == ["s*t"]

    def test_not_pure_rejected(self):
        a = SullivanAlgebra.build(
            [("q", 3), ("p", 3), ("z", 5)], {"z": "q*p"}, cutoff=8
        )
        with pytest.raises(NotPure):
            lower_grading(a)


class TestEliminationCount:
    """One elimination per degree or strand block gives its cocycles and
    the coboundaries of the next block; at most one more picks the
    representatives.  A table read from ΛQ eliminates nothing: its
    helper reduces each f_j and each S-pair it keeps once."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        echelon = linalg.ff_row_echelon

        def counting(rows):
            calls.append(len(rows))
            return echelon(rows)

        monkeypatch.setattr(linalg, "ff_row_echelon", counting)
        return calls

    @pytest.fixture
    def reductions(self, monkeypatch):
        """The polynomials the ΛQ helpers reduce."""
        from sullivan import cohomology as ch

        calls, reduced = [], ch._Ideal._reduced
        monkeypatch.setattr(ch._Ideal, "_reduced", lambda self, p: calls.append(dict(p)) or reduced(self, p))
        return calls

    def test_table_at_most_two_per_degree(self, cp2sum, eliminations, reductions, monkeypatch):
        """cp2sum is read from ΛQ: f_n = x^2 + y^2, f_m = xy and their one
        S-pair, of degree 6, are reduced once each.  With the route
        patched out, the ΛV walk eliminates at most twice per degree."""
        from sullivan import cohomology as ch

        table = cohomology(cp2sum)
        assert table.betti == (1, 0, 2, 0, 1, 0, 0)
        assert eliminations == [] and len(reductions) == 3
        monkeypatch.setattr(ch, "_h0_blocks", lambda a: None)
        assert cohomology(cp2sum).betti == table.betti
        assert 0 < len(eliminations) <= 2 * (table.cutoff + 1) and len(reductions) == 3

    def test_lower_grading_at_most_two_per_strand(self, cp2sum, eliminations, reductions, monkeypatch):
        from sullivan import cohomology as ch

        lg = lower_grading(cp2sum)
        assert lg.table.betti == (1, 0, 2, 0, 1, 0, 0)
        assert eliminations == [] and len(reductions) == 3
        monkeypatch.setattr(ch, "_h0_blocks", lambda a: None)
        assert lower_grading(cp2sum).table.betti == lg.table.betti
        blocks = sum(
            len({cp2sum.odd_word_length(m) for m in cp2sum._basis(n)})
            for n in range(cp2sum.cutoff + 1)
        )
        assert 0 < len(eliminations) <= 2 * blocks

    def test_pure_model_report_eliminates_each_strand_once(self, eliminations, reductions, monkeypatch):
        """A pure model report reads Betti numbers, representatives, the
        lower grading and H_0 from one table, with no rank-only pass.
        Its table is read from ΛQ, so it eliminates no strand of ΛV, and
        its one helper, which the table, the H_0 rule and the formality
        count share, reduces each f_j once (their leading monomials are
        coprime, so there is no S-pair); with the route patched out each
        strand block is eliminated at most twice."""
        from sullivan import cohomology as ch
        from sullivan.documents import load_model, run_analysis

        rank_only = []
        for name in ("betti_numbers", "h0_dims"):
            original = getattr(ch, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                rank_only.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(ch, name, counting)
        doc = {
            "kind": "model",
            "generators": [["x", 2], ["y", 2], ["z", 2], ["a", 3], ["b", 3], ["c", 3]],
            "differential": {"a": "x^2", "b": "y^2", "c": "z^2"},
            "cutoff": 12,
        }
        report = run_analysis(doc)
        assert report["even_coverage"]["h0_equals_heven"]  # chi_pi = 0
        assert rank_only == []
        assert eliminations == [] and len(reductions) == 3
        monkeypatch.setattr(ch, "_h0_blocks", lambda a: None)
        assert run_analysis(doc) == report
        a = load_model(doc)
        blocks = sum(
            len({a.odd_word_length(m) for m in a._basis(n)}) for n in range(a.cutoff + 1)
        )
        assert blocks == 18
        assert 0 < len(eliminations) <= 2 * blocks

    def test_elliptic_table_stops_after_the_window(self, monkeypatch):
        """x, y, z / a, b, c has formal dimension 6 and even generators of
        degree 2, and its H_0 vanishes in degree 8, so at cutoff 12 its
        table hands ``ff_row_echelon`` no block above degree 6 and reads
        degrees 7..12 as zero.  That is its ΛV walk, with the ΛQ route
        patched out; on the route it builds no d rows and eliminates
        nothing: its helper completes the basis through degree 8, the
        window, reducing each f_j once, and reads the standard monomials
        of degrees 0..6 from it, for the same table."""
        from sullivan import cohomology as ch

        def build():
            return SullivanAlgebra.build(
                [("x", 2), ("y", 2), ("z", 2), ("a", 3), ("b", 3), ("c", 3)],
                {"a": "x^2", "b": "y^2", "c": "z^2"},
                cutoff=12,
            )

        reduced, reduce = [], ch._Ideal._reduced
        monkeypatch.setattr(ch, "_action_rows", None)
        monkeypatch.setattr(linalg, "ff_row_echelon", None)
        monkeypatch.setattr(ch._Ideal, "_reduced", lambda self, p: reduced.append(p) or reduce(self, p))
        a = build()
        routed = cohomology(a)
        helper = ch._ideal(a)
        assert len(reduced) == 3 and len(helper._standard) - 1 == 8 and helper.elliptic  # grown through 8
        assert list(helper.kept) == [0, 2, 4, 6]
        monkeypatch.undo()
        monkeypatch.setattr(ch, "_h0_blocks", lambda a: None)

        degree, eliminated = [None], []
        action_rows, echelon = ch._action_rows, linalg.ff_row_echelon

        def recording_action_rows(a, n):
            degree[0] = n
            return action_rows(a, n)

        def recording_echelon(rows):
            eliminated.append(degree[0])
            return echelon(rows)

        monkeypatch.setattr(ch, "_action_rows", recording_action_rows)
        monkeypatch.setattr(linalg, "ff_row_echelon", recording_echelon)
        table = cohomology(build())
        assert table.cutoff == 12
        assert table.betti == (1, 0, 3, 0, 3, 0, 1) + (0,) * 6
        assert None not in eliminated  # the H_0 rule eliminates nothing
        assert max(eliminated) == 6
        assert all(table.representatives(n) == () for n in range(7, 13))
        assert routed.betti == table.betti
        assert all(routed.representatives(n) == table.representatives(n) for n in range(13))


class TestBackSubstitutionCount:
    """A table back-substitutes one kernel vector per class, not the
    whole kernel of d."""

    @pytest.fixture
    def back_substitutions(self, monkeypatch):
        calls = []
        back_substitute = linalg._back_substitute

        def counting(echelon, pivots, v):
            calls.append(len(v))
            return back_substitute(echelon, pivots, v)

        monkeypatch.setattr(linalg, "_back_substitute", counting)
        return calls

    @staticmethod
    def assert_one_per_class_in_lv(a, back_substitutions, monkeypatch):
        """A table with χ_π = 0 that takes the ΛQ route back-substitutes
        nothing; with the route patched out, its ΛV walk back-substitutes
        once per class, as every other table does."""
        from sullivan import cohomology as ch

        routed = cohomology(a)
        on_route = a.homotopy_euler_characteristic() == 0
        assert len(back_substitutions) == (0 if on_route else sum(routed.betti))
        del back_substitutions[:]
        monkeypatch.setattr(ch, "_h0_blocks", lambda a: None)
        table = cohomology(a)
        assert table.betti == routed.betti
        assert len(back_substitutions) == sum(table.betti) > 0
        return table

    @pytest.mark.parametrize(
        "k, cutoff", [(2, 6), (2, 12), (3, 10), (3, 14), (4, 8), (4, 12), (5, 10), (5, 12)]
    )
    def test_k_pair_models(self, back_substitutions, k, cutoff, monkeypatch):
        table = self.assert_one_per_class_in_lv(k_pair_model(k, cutoff), back_substitutions, monkeypatch)
        assert sum(table.betti) == 2**k

    @pytest.mark.parametrize("name", sorted(DIAGRAM_PRESETS))
    def test_diagram_preset_space_models(self, back_substitutions, name, monkeypatch):
        space = cohomogeneity_one_model(load_diagram(DIAGRAM_PRESETS[name]))
        self.assert_one_per_class_in_lv(space, back_substitutions, monkeypatch)

    def test_direct_check_back_substitutes_nothing(self, monkeypatch):
        # one elimination per checked degree builds no source cocycle
        morphisms = [package.forgetful for _, package in borel_packages()]
        for sheared, core in sheared_pairs(1013, 20):
            evens = [g.name for g in core.generators if not g.is_odd]
            morphisms += [even_subalgebra_inclusion(a, evens) for a in (sheared, core)]
        calls = []
        for name in ("_back_substitute", "_kernel_vectors", "_transpose"):
            original = getattr(linalg, name)

            def recording(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(linalg, name, recording)
        for f in morphisms:
            surjectivity_by_parity(f, (0, 1))
        assert calls == []


class TestEvenSubalgebraImage:
    def test_s2_even_coverage(self, s2):
        dims = h0_dims(s2)
        betti = betti_numbers(s2)
        assert dims == {0: 1, 2: 1, 4: 0}
        assert all(dims[n] == betti[n] for n in dims)

    def test_two_spheres_miss_top_class(self):
        a = SullivanAlgebra.build([("q1", 3), ("q2", 3)], cutoff=6)
        dims = h0_dims(a)
        assert dims[6] == 0  # [q1 q2] is not representable by even monomials
        assert betti_numbers(a)[6] == 1

    def test_unit_algebra(self):
        unit = SullivanAlgebra([], cutoff=2)
        assert h0_dims(unit) == {0: 1, 2: 0}


class TestInducedMaps:
    def test_identity(self, cp2sum):
        identity = CdgaMorphism(cp2sum, cp2sum, {g.name: cp2sum.gen(g.name) for g in cp2sum.generators})
        matrices = induced_map(identity)
        betti = betti_numbers(cp2sum)
        for n, matrix in matrices.items():
            assert matrix.rows == matrix.cols == betti[n]
            for i in range(matrix.rows):
                for j in range(matrix.cols):
                    assert matrix.entries[i][j] == (1 if i == j else 0)

    def test_polynomial_into_sphere(self, s2):
        poly = SullivanAlgebra.build([("u", 2)], cutoff=4)
        phi = CdgaMorphism(poly, s2, {"u": s2.gen("u")})
        matrices = induced_map(phi)
        assert matrices[0].entries == ((Fraction(1),),)
        assert matrices[2].entries == ((Fraction(1),),)
        # degree 4: u^2 is exact in the target, so the matrix has no rows
        assert matrices[4].rows == 0

    def test_target_table_cutoff_bounds_the_map(self):
        # a table of ``with_cutoff`` stops the map lower, with the same matrices
        from sullivan.catalog import DIAGRAM_PRESETS
        from sullivan.documents import load_diagram
        from sullivan.models import borel_model_cohomogeneity_one

        f = borel_model_cohomogeneity_one(load_diagram(DIAGRAM_PRESETS["cp2-sum"])).forgetful
        full = induced_map(f)
        low = induced_map(f, target_table=cohomology(f.target.with_cutoff(2)))
        assert sorted(full) == [0, 1, 2, 3, 4]
        assert sorted(low) == [0, 1, 2]
        for n in low:
            assert (low[n].rows, low[n].cols, low[n].entries) == (
                full[n].rows,
                full[n].cols,
                full[n].entries,
            )
        assert any(low[n].entries for n in low)

    def test_composition_is_product(self, s2):
        poly = SullivanAlgebra.build([("u", 2)], cutoff=4)
        phi = CdgaMorphism(poly, s2, {"u": s2.gen("u")})
        doubled = CdgaMorphism(poly, poly, {"u": 2 * poly.gen("u")})
        composed = CdgaMorphism(
            poly, s2, {name: phi.apply(image) for name, image in doubled.assignment.items()}
        )
        m_phi = induced_map(phi)
        m_doubled = induced_map(doubled)
        m_comp = induced_map(composed)
        for n in m_comp:
            a, b, c = m_phi[n], m_doubled[n], m_comp[n]
            if not a.entries or not b.entries:
                assert c.rows == a.rows
                continue
            product = [
                [
                    sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols))
                    for j in range(b.cols)
                ]
                for i in range(a.rows)
            ]
            assert [list(row) for row in c.entries] == product

    def test_surjectivity_matches_induced_rank(self, s2):
        poly = SullivanAlgebra.build([("u", 2)], cutoff=4)
        phi = CdgaMorphism(poly, s2, {"u": s2.gen("u")})
        ok, failing = even_degree_surjectivity(phi)
        assert ok and failing is None
        ((odd_ok, _),) = surjectivity_by_parity(phi, (1,))
        assert odd_ok  # target has no odd cohomology
        matrices, betti = induced_map(phi), cohomology(s2).betti
        assert all(linalg.rank_rows(matrices[n].entries) == betti[n] for n in matrices)

    def test_failing_degree_reported(self):
        two_spheres = SullivanAlgebra.build([("q1", 3), ("q2", 3)], cutoff=6)
        unit = SullivanAlgebra([], cutoff=6)
        phi = CdgaMorphism(unit, two_spheres, {})
        ok, failing = even_degree_surjectivity(phi)
        assert not ok and failing == 6


def assert_chain_matches(a):
    """Every degree's cleared pivots are those of its full d rows, and
    the Betti numbers are the uncleared rank count's."""
    for n, (_, pivots) in enumerate(_echelons(a, a.cutoff)):
        assert pivots == linalg._echelon(_action_rows(a, n))[1], n
    assert betti_numbers(a) == uncleared_betti_numbers(a)


def assert_verdicts_match(f):
    """Both parities' (verdict, first failing degree) from one walk equal
    those of one walk per parity and the uncleared loop's; returns the
    verdicts."""
    verdicts = list(surjectivity_by_parity(f, (0, 1)))
    assert verdicts == [surjectivity_by_parity(f, (parity,))[0] for parity in (0, 1)]
    assert verdicts == [uncleared_surjectivity_by_parity(f, parity) for parity in (0, 1)]
    return verdicts


class TestClearedChain:
    """``betti_numbers`` and the direct check read the cleared chain
    ``_echelons``; the references rank every degree's full d rows."""

    @pytest.mark.parametrize("seed", [4243, 1013])
    def test_sheared_pairs(self, seed):
        verdicts = []
        for sheared, core in sheared_pairs(seed, 60):
            evens = [g.name for g in core.generators if not g.is_odd]
            for a in (sheared, core):
                assert_chain_matches(a)
                verdicts += assert_verdicts_match(even_subalgebra_inclusion(a, evens))
        # both outcomes occur, with failures in both parities
        assert {ok for ok, _ in verdicts} == {True, False}
        assert {n % 2 for ok, n in verdicts if not ok} == {0, 1}

    @pytest.mark.parametrize("seed", [3, 1013])
    def test_free_algebras(self, seed):
        for a, _ in random_degree_algebras(seed, 25):
            assert_chain_matches(a)

    @pytest.mark.parametrize("k, cutoff", [(3, 14), (4, 14), (5, 14), (6, 14)])
    def test_k_pair_models(self, k, cutoff):
        assert_chain_matches(k_pair_model(k, cutoff))

    @pytest.mark.parametrize("name, package", list(borel_packages()))
    def test_borel_packages(self, name, package):
        assert_chain_matches(package.borel)
        assert_verdicts_match(package.forgetful)


def non_monomial_cocycle_degrees(a):
    """The degrees whose cocycles the closed monomials do not span."""
    degrees = []
    for n in range(a.cutoff + 1):
        rows = _action_rows(a, n)
        if len(rows) - linalg.rank_rows(rows) > sum(not row for row in rows):
            degrees.append(n)
    return degrees


class TestDirectCheckOnCocycles:
    """The direct check against the reference on morphisms whose sources
    have cocycles that are not sums of closed monomials, or whose images
    have fractional coefficients."""

    @pytest.mark.parametrize("seed, sources", [(4243, 87), (1013, 78)])
    def test_shear_isomorphisms(self, seed, sources):
        # the shear sheared -> core and its inverse core -> sheared are
        # isomorphisms, so every degree is onto
        with_cocycles = 0
        for core, forward, backward in shears(seed, 60):
            sheared = conjugated(core, forward, backward)
            for source, target, shear in ((sheared, core, forward), (core, sheared, backward)):
                images = {g.name: shear.get(g.name, core.gen(g.name)) for g in core.generators}
                f = CdgaMorphism(source, target, images)
                assert assert_verdicts_match(f) == [(True, None), (True, None)]
                with_cocycles += bool(non_monomial_cocycle_degrees(source))
        assert with_cocycles == sources

    @staticmethod
    def fractional_morphism():
        """The 2-pair model into cp2sum with a free degree-3 generator q,
        x1 -> (x+y)/2 and x2 -> (x-y)/2: both degree-2 classes and the
        degree-4 class are hit, and [q] is not."""
        source = k_pair_model(2, 8)
        target = SullivanAlgebra.build(
            [("x", 2), ("y", 2), ("n", 3), ("m", 3), ("q", 3)],
            {"n": "x^2+y^2", "m": "x*y"},
            cutoff=8,
        )
        images = {"x1": "1/2*x+1/2*y", "x2": "1/2*x-1/2*y", "a1": "1/4*n+1/2*m", "a2": "1/4*n-1/2*m"}
        return CdgaMorphism(source, target, {g: target.parse(e) for g, e in images.items()})

    def test_both_outcomes_in_both_parities(self):
        # the inclusions fail in even degree 2 and the fractional map in
        # odd degree 3; the other parity of each holds
        with_cocycles = []
        for k in range(1, 5):
            source, target = k_pair_model(k, 10), k_pair_model(k + 1, 10)
            f = CdgaMorphism(source, target, {g.name: target.gen(g.name) for g in source.generators})
            # [x_{k+1}] is not hit; the (k+1)-pair model has no odd classes
            assert assert_verdicts_match(f) == [(False, 2), (True, None)]
            with_cocycles.append(non_monomial_cocycle_degrees(source))
        assert with_cocycles == [[], [7, 9], [7, 9, 10], [7, 9, 10]]
        f = self.fractional_morphism()
        assert non_monomial_cocycle_degrees(f.source) == [7]
        assert assert_verdicts_match(f) == [(True, None), (False, 3)]


class TestClearedWork:
    """The chain hands ``ff_row_echelon`` d_n's rows only for monomials
    that are not pivots of d_{n-1}, which with the coboundaries span
    C^n, so the rows it finds dependent in degree n are cocycles that
    are not coboundaries: at most b_n of them."""

    @staticmethod
    def work(a, monkeypatch):
        """Rows handed to ``ff_row_echelon`` and its rank, summed per
        degree of the monomials whose d rows they are, while
        ``betti_numbers(a)`` runs."""
        degree, work = [None], {}
        d_rows, echelon = a._d_rows, linalg.ff_row_echelon

        def recording_d_rows(monos, index):
            monos = list(monos)
            if monos:
                degree[0] = sum(map(mul, a._unpack(monos[0]), a._degrees))
            return d_rows(monos, index)

        def recording_echelon(rows):
            result = echelon(rows)
            handed, rank = work.get(degree[0], (0, 0))
            work[degree[0]] = handed + len(rows), rank + len(result[1])
            return result

        monkeypatch.setattr(a, "_d_rows", recording_d_rows)
        monkeypatch.setattr(linalg, "ff_row_echelon", recording_echelon)
        betti_numbers(a)
        monkeypatch.undo()
        return work

    @staticmethod
    def assert_dependent_at_most_betti(a, work):
        betti = uncleared_betti_numbers(a)
        for n, (handed, rank) in work.items():
            assert handed - rank <= betti[n], (n, handed, rank, betti[n])

    def test_three_pair_model_rows_above_six_are_pivots(self, monkeypatch):
        a = k_pair_model(3, 14)
        work = self.work(a, monkeypatch)
        self.assert_dependent_at_most_betti(a, work)
        assert uncleared_betti_numbers(a)[7:] == (0,) * 8  # (1 + t^2)^3
        above = [work[n] for n in range(7, 15)]
        assert all(handed == rank > 0 for handed, rank in above), above

    @pytest.mark.parametrize("seed", [4243, 1013])
    def test_sheared_pairs(self, seed, monkeypatch):
        for pair in sheared_pairs(seed, 20):
            for a in pair:
                self.assert_dependent_at_most_betti(a, self.work(a, monkeypatch))

    @pytest.mark.parametrize("name, package", list(borel_packages()))
    def test_borel_packages(self, name, package, monkeypatch):
        a = package.borel
        self.assert_dependent_at_most_betti(a, self.work(a, monkeypatch))


def _space_packages(margin):
    """(name, Borel package) of every catalog maximal-torus pair and every
    diagram preset, its space model cut off at N + ``margin(space)`` for
    formal dimension N."""
    builds = {
        name: lambda cutoff, name=name: borel_model_cohomogeneity_one(
            load_diagram(DIAGRAM_PRESETS[name]), cutoff
        )
        for name in DIAGRAM_PRESETS
    }
    for g in _TORUS_DATA:
        r = standard_restriction(g, f"T{resolve(g).group.rank}", "maximal-torus")
        builds[f"{r.source.name}/{r.target.name}"] = lambda cutoff, r=r: borel_model_homogeneous(
            r.source, r.target, r, cutoff
        )
    for name, build in sorted(builds.items()):
        space = build(None).space
        yield name, build(_formal_dimension(space) + margin(space))


class TestWindowRule:
    """The table and the direct check stop at the formal dimension N of an
    algebra whose associated pure algebra has H_0 vanishing on
    N + 1..N + w_Q; with the helper ``_elliptic`` patched out they run
    to the cutoff, and both walks must give the same answers."""

    @staticmethod
    def walks(algebra, morphism, monkeypatch):
        """Everything the two walks give on an algebra and a morphism into
        it, and the largest degree of the d rows they build."""
        from sullivan import cohomology as ch

        degrees = []
        action_rows = ch._action_rows

        def recording(a, n):
            degrees.append(n)
            return action_rows(a, n)

        monkeypatch.setattr(ch, "_action_rows", recording)
        table = cohomology(algebra)
        strands = LowerGradedTable(table) if algebra.is_pure() else None
        answers = (
            table.betti,
            [table.representatives(n) for n in range(table.cutoff + 1)],
            [strands.dims(n) for n in range(table.cutoff + 1)] if strands else None,
            surjectivity_by_parity(morphism, (0, 1)),
        )
        monkeypatch.setattr(ch, "_action_rows", action_rows)
        return answers, max(degrees)

    def assert_capped_matches_uncapped(self, algebra, morphism, monkeypatch):
        """A table with χ_π = 0 takes the ΛQ route ``_h0_blocks``, and
        no ΛV walk; patched out, it walks ΛV capped at N, as any other
        table does, for the same answers."""
        from sullivan import cohomology as ch

        walked = []
        strand_blocks = ch._strand_blocks
        monkeypatch.setattr(ch, "_strand_blocks", lambda a: walked.append(a) or strand_blocks(a))
        routed, _ = self.walks(algebra, morphism, monkeypatch)
        on_route = algebra.is_pure() and algebra.homotopy_euler_characteristic() == 0
        assert walked == ([] if on_route else [algebra])
        monkeypatch.setattr(ch, "_h0_blocks", lambda a: None)
        capped, capped_top = self.walks(algebra, morphism, monkeypatch)
        assert capped == routed
        assert capped_top == _formal_dimension(algebra) < algebra.cutoff  # the rule fired
        assert capped[0] == betti_numbers(algebra)
        monkeypatch.setattr(ch, "_elliptic", lambda a: False)
        uncapped, uncapped_top = self.walks(algebra, morphism, monkeypatch)
        monkeypatch.undo()
        assert uncapped_top == algebra.cutoff
        assert capped == uncapped

    @pytest.mark.parametrize(
        "name, package", list(_space_packages(lambda a: 2 * max(g.degree for g in a.generators)))
    )
    def test_capped_walks_match_uncapped(self, name, package, monkeypatch):
        self.assert_capped_matches_uncapped(package.space, package.forgetful, monkeypatch)

    @pytest.mark.parametrize(
        "name, package",
        list(_space_packages(lambda a: max(g.degree for g in a.generators if not g.is_odd))),
    )
    def test_capped_walks_match_uncapped_at_the_window(self, name, package, monkeypatch):
        self.assert_capped_matches_uncapped(package.space, package.forgetful, monkeypatch)

    @pytest.mark.parametrize(
        "name, package",
        list(_space_packages(lambda a: max(g.degree for g in a.generators if not g.is_odd) - 1)),
    )
    def test_capped_walks_match_uncapped_inside_the_window(self, name, package, monkeypatch):
        """Cut off in N + 1..N + w_Q - 1, where H_0 on the window is not
        all inside the cutoff, the walks still stop at N."""
        self.assert_capped_matches_uncapped(package.space, package.forgetful, monkeypatch)

    def test_su4_t3_inside_the_window(self, monkeypatch):
        """SU(4)/T3 has N = 12 and w_Q = 2.  Cut off at 13, as the golden
        ``homogeneous-SU4-T3-cutoff13``, its table builds no d rows above
        degree 12 and its direct check walks the chain to 12, not 13."""
        r = standard_restriction("SU(4)", "T3", "maximal-torus")
        package = borel_model_homogeneous(r.source, r.target, r, 13)
        assert _formal_dimension(package.space) == 12
        (betti, *_), top = self.walks(package.space, package.forgetful, monkeypatch)
        assert top == 12 and betti[12:] == (1, 0)
        answer, degrees = self.checked_degrees(package.forgetful, monkeypatch, (0, 1))
        assert degrees == list(range(13))
        assert answer == ((True, None), (True, None))

    def test_sheared_cores(self, monkeypatch):
        """The pure elliptic cores of criterion 5's sheared pairs, each cut
        off at N + w, against the inclusion of their even generators."""
        for _, core in sheared_pairs(1013, 20):
            evens = [g.name for g in core.generators if not g.is_odd]
            inclusion = even_subalgebra_inclusion(core, evens)
            self.assert_capped_matches_uncapped(core, inclusion, monkeypatch)

    def test_sheared_targets(self, monkeypatch):
        """The non-pure draws of criterion 5's sheared pairs, each cut off
        at N + w, against the inclusion of their even generators: the
        helper, run on the associated pure algebra, returns N, and the
        uncapped ``betti_numbers`` vanish above N, as the filtration by
        degree plus odd word length says they must."""
        from sullivan import cohomology as ch

        targets = [sheared for sheared, _ in sheared_pairs(1013, 60) if not sheared.is_pure()]
        assert len(targets) == 42
        for a in targets:
            n = _formal_dimension(a)
            assert a.cutoff == n + max(g.degree for g in a.generators)
            assert ch._elliptic(a)
            assert not any(betti_numbers(a)[n + 1 :])
            evens = [g.name for g in a.generators if not g.is_odd]
            self.assert_capped_matches_uncapped(a, even_subalgebra_inclusion(a, evens), monkeypatch)

    @staticmethod
    def checked_degrees(f, monkeypatch, parities=(0,)):
        """The direct check of f on ``parities`` (by default the
        even-degree check) and the degrees of the target's chain
        ``_echelons`` that it walks."""
        from sullivan import cohomology as ch

        degrees = []
        echelons = ch._echelons

        def recording(a, top):
            for n, item in enumerate(echelons(a, top)):
                degrees.append(n)
                yield item

        monkeypatch.setattr(ch, "_echelons", recording)
        answer = surjectivity_by_parity(f, parities)
        monkeypatch.setattr(ch, "_echelons", echelons)
        return answer, degrees

    def test_sheared_direct_check_stops_at_the_formal_dimension(self, monkeypatch):
        """The first non-pure draw of ``sheared_pairs(1013, 10)``, the
        golden ``model-sheared-cutoff14``, has formal dimension 7: its
        even-degree direct check walks the chain to 6, the last even
        degree at most 7, and with the helper patched out to its cutoff
        14, for the same verdict."""
        from sullivan import cohomology as ch

        a = next(sheared for sheared, _ in sheared_pairs(1013, 10) if not sheared.is_pure())
        assert (_formal_dimension(a), a.cutoff) == (7, 14)
        f = even_subalgebra_inclusion(a, [g.name for g in a.generators if not g.is_odd])
        capped, degrees = self.checked_degrees(f, monkeypatch)
        assert degrees == list(range(7))
        monkeypatch.setattr(ch, "_elliptic", lambda a: False)
        uncapped, degrees = self.checked_degrees(f, monkeypatch)
        assert degrees == list(range(15))
        assert capped == uncapped == ((True, None),)

    def test_non_elliptic_associated_pure_eliminates_as_uncapped(self, monkeypatch):
        """x, y / a, b / c with d c = x^3 + ab is not pure, and its
        associated pure algebra, d_σ c = x^3, has classes y^n in every
        even degree, so the helper's window, 10..11 past N = 9, falls
        short and both walks run to the cutoff.  ``ff_row_echelon``
        receives the same rows as with the helper patched out, and none
        from the helper, which reduces f_c = x^3 alone.  The helper keeps
        its answer per algebra, so each walk gets an algebra of its own."""
        from sullivan import cohomology as ch

        def build():
            return SullivanAlgebra.build(
                [("x", 2), ("y", 2), ("a", 3), ("b", 3), ("c", 5)], {"c": "x^3+a*b"}, cutoff=14
            )

        a = build()
        assert not a.is_pure() and _formal_dimension(a) == 9
        assert not ch._elliptic(build())

        def eliminations():
            """The answers, the rows each elimination receives, outside
            the helper and inside it, and the polynomials the helper
            reduces."""
            walks, helper, inside, reduced = [], [], [False], []
            echelon, elliptic, reduce = linalg.ff_row_echelon, ch._elliptic, ch._Ideal._reduced

            def recording(rows):
                (helper if inside[0] else walks).append([dict(row) for row in rows])
                return echelon(rows)

            def marked(a):
                inside[0] = True
                result = elliptic(a)
                inside[0] = False
                return result

            monkeypatch.setattr(linalg, "ff_row_echelon", recording)
            monkeypatch.setattr(ch, "_elliptic", marked)
            monkeypatch.setattr(ch._Ideal, "_reduced", lambda self, p: reduced.append(dict(p)) or reduce(self, p))
            f = even_subalgebra_inclusion(build(), ["x", "y"])
            answers = cohomology(a).betti, surjectivity_by_parity(f, (0, 1))
            monkeypatch.setattr(linalg, "ff_row_echelon", echelon)
            monkeypatch.setattr(ch, "_elliptic", elliptic)
            monkeypatch.setattr(ch._Ideal, "_reduced", reduce)
            return answers, walks, helper, reduced

        capped = eliminations()
        assert capped[2] == [] and len(capped[3]) == 2  # f_c once per walk's helper; no S-pair
        with monkeypatch.context() as m:  # asked again, through a copy, the helper does no work
            m.setattr(ch, "SullivanAlgebra", None)
            m.setattr(ch._Ideal, "standard", None)
            assert not ch._elliptic(a.with_cutoff(3).associated_pure())
        helper = ch._ideal(a)
        # grown through the failing window degree, and no degree up to N read
        assert len(helper._standard) - 1 == 10 and helper.kept == {}
        monkeypatch.setattr(ch, "_elliptic", lambda a: False)
        uncapped = eliminations()
        assert uncapped[2] == uncapped[3] == []
        assert capped[:2] == uncapped[:2]
        assert capped[0][0] == betti_numbers(a)

    def test_non_elliptic_model_eliminates_as_uncapped(self, monkeypatch):
        """x, y / a with d a = xy has formal dimension 1 but classes x^n
        in every even degree, so both walks run to the cutoff and hand
        ``ff_row_echelon`` the same rows as with the helper patched out.
        The helper reduces nothing, as its one f_j, xy, has degree 4,
        past the window's one even degree, 2."""
        from sullivan import cohomology as ch

        a = SullivanAlgebra.build([("x", 2), ("y", 2), ("a", 3)], {"a": "x*y"}, cutoff=12)
        f = even_subalgebra_inclusion(a, ["x", "y"])
        assert not ch._elliptic(a)

        def eliminations():
            calls = []
            echelon = linalg.ff_row_echelon

            def counting(rows):
                calls.append(len(rows))
                return echelon(rows)

            monkeypatch.setattr(linalg, "ff_row_echelon", counting)
            answers = cohomology(a).betti, surjectivity_by_parity(f, (0, 1))
            monkeypatch.setattr(linalg, "ff_row_echelon", echelon)
            return answers, calls

        capped = eliminations()
        monkeypatch.setattr(ch, "_elliptic", lambda a: False)
        assert eliminations() == capped
        assert capped[0][0] == betti_numbers(a) == (1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2)

    @staticmethod
    def strand_test(a):
        """The reference strand test of the H_0 rule: N >= 0 and
        ``h0_dims`` of the associated pure algebra, cut off at N + w_Q,
        vanish on N + 1..N + w_Q."""
        n = _formal_dimension(a)
        w_q = max((g.degree for g in a.generators if not g.is_odd), default=0)
        if n < 0:
            return False
        h0 = h0_dims(a.associated_pure().with_cutoff(n + w_q))
        return not any(h0[k] for k in h0 if k > n)

    def test_ideal_test_matches_strand_test(self, monkeypatch):
        """The ideal test in ΛQ agrees with the strand test on random pure
        algebras, elliptic or not, on the non-pure draws of criterion 5's
        sheared pairs and on x, y / a, b / c with d c = x^3 + ab.  It
        never builds an associated pure algebra or reads the bases of the
        algebra it is asked about, whatever its cutoff."""
        from sullivan import cohomology as ch

        rng = random.Random(409)
        pures = []
        while len(pures) < 60:
            algebra = random_pure(rng)
            if algebra is not None:
                pures.append(algebra)
        sheared = [a for a, _ in sheared_pairs(1013, 60) if not a.is_pure()]
        mixed = SullivanAlgebra.build(
            [("x", 2), ("y", 2), ("a", 3), ("b", 3), ("c", 5)], {"c": "x^3+a*b"}, cutoff=0
        )
        cases = [(a, self.strand_test(a)) for a in pures + sheared + [mixed]]
        assert len(sheared) == 42
        assert 10 < sum(passes for a, passes in cases[:60]) < 50
        assert all(passes for a, passes in cases[60:102]) and not cases[102][1]

        read = []
        for name in ("_monomials", "_positions"):
            original = getattr(SullivanAlgebra, name)

            def recording(self, degree, _original=original):
                read.append(self)
                return _original(self, degree)

            monkeypatch.setattr(SullivanAlgebra, name, recording)

        def no_associated_pure(self):
            raise AssertionError("the helper built an associated pure algebra")

        monkeypatch.setattr(SullivanAlgebra, "associated_pure", no_associated_pure)
        for a, passes in cases:
            n = _formal_dimension(a)
            w_q = max((g.degree for g in a.generators if not g.is_odd), default=0)
            for b in (a, a.with_cutoff(max(n + w_q - 1, 0)), a.with_cutoff(n + w_q + 3)):
                assert ch._elliptic(b) is passes
                assert all(c is not b for c in read)

    @staticmethod
    def criterion_5_checks():
        """Criterion 5's checks on ``sheared_pairs(1013, 60)``: for each
        sheared algebra, the inclusion of its even generators into its
        associated pure algebra (the hypothesis) and into itself (the
        conclusion)."""
        for a, _ in sheared_pairs(1013, 60):
            evens = [g.name for g in a.generators if not g.is_odd]
            yield even_subalgebra_inclusion(a.associated_pure(), evens), even_subalgebra_inclusion(a, evens)

    def test_failing_walks_never_ask_the_helper(self, monkeypatch):
        """Every failing hypothesis check fails at or below N, so it never
        asks ``_elliptic``, and its verdict is the uncleared loop's."""
        from sullivan import cohomology as ch

        calls = []
        elliptic = ch._elliptic
        monkeypatch.setattr(ch, "_elliptic", lambda a: calls.append(a) or elliptic(a))
        failing = 0
        for f, _ in self.criterion_5_checks():
            del calls[:]
            verdict = even_degree_surjectivity(f)
            if not verdict[0]:
                failing += 1
                assert calls == []
                assert verdict == uncleared_surjectivity_by_parity(f, 0)
        assert failing == 39

    def test_passing_walks_walk_the_eager_degrees(self, monkeypatch):
        """A passing hypothesis check, and the conclusion check that
        follows it, walk the target's chain through the last even degree
        at most N if the helper passes, and otherwise the cutoff: the
        degrees of a walk that asks the helper before it starts."""
        from sullivan import cohomology as ch

        passing = 0
        for hypothesis, conclusion in self.criterion_5_checks():
            if not even_degree_surjectivity(hypothesis)[0]:
                continue
            passing += 1
            for f in (hypothesis, conclusion):
                _, degrees = self.checked_degrees(f, monkeypatch)
                cutoff = min(f.source.cutoff, f.target.cutoff)
                top = _formal_dimension(f.target) if ch._elliptic(f.target) else cutoff
                assert degrees == list(range(top - top % 2 + 1))
        assert passing == 21

    @pytest.mark.parametrize("parities, walked", [((1,), []), ((0,), [0]), ((0, 1), [0])])
    def test_formal_dimension_zero(self, parities, walked, monkeypatch):
        """x (2), y (1) with d y = x has N = 0: the odd-degree check has no
        degree at most N and asks the helper before degree 0, which stops
        it there; the even-degree one walks degree 0 alone."""
        from sullivan import cohomology as ch

        a = SullivanAlgebra.build([("x", 2), ("y", 1)], {"y": "x"}, cutoff=6)
        f = even_subalgebra_inclusion(a, ["x"])
        degrees = []
        echelons = ch._echelons

        def recording(a, top):
            for n, item in enumerate(echelons(a, top)):
                degrees.append(n)
                yield item

        monkeypatch.setattr(ch, "_echelons", recording)
        assert surjectivity_by_parity(f, parities) == ((True, None),) * len(parities)
        assert degrees == walked
