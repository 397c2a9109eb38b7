"""Cohomology tables, lower grading and surjectivity of induced maps,
the last against the reference matrices of ``induced_reference``."""

from fractions import Fraction

import pytest

from induced_reference import induced_map
from sullivan import linalg
from sullivan.cdga import CdgaMorphism, SullivanAlgebra
from sullivan.cohomology import (
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
from sullivan.errors import InvalidDifferential, NotPure


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

    def test_invalid_differential_rejected(self, s2):
        # bypass construction-time validation to exercise the guard
        broken = object.__new__(SullivanAlgebra)
        broken.__dict__.update(s2.__dict__)
        broken._d_cache = {}
        broken._images = tuple(
            s2._image_terms(s2.gen("q").terms) if g.name == "u" else image
            for g, image in zip(s2.generators, s2._images)
        )
        assert str(broken.differential[0]) == "q"
        with pytest.raises(InvalidDifferential):
            betti_numbers(broken)

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
    representatives."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        echelon = linalg.ff_row_echelon

        def counting(rows):
            calls.append(len(rows))
            return echelon(rows)

        monkeypatch.setattr(linalg, "ff_row_echelon", counting)
        return calls

    def test_table_at_most_two_per_degree(self, cp2sum, eliminations):
        table = cohomology(cp2sum)
        assert table.betti == (1, 0, 2, 0, 1, 0, 0)
        assert 0 < len(eliminations) <= 2 * (table.cutoff + 1)

    def test_lower_grading_at_most_two_per_strand(self, cp2sum, eliminations):
        lg = lower_grading(cp2sum)
        assert lg.table.betti == (1, 0, 2, 0, 1, 0, 0)
        blocks = sum(
            len({cp2sum.odd_word_length(m) for m in cp2sum._basis(n)})
            for n in range(cp2sum.cutoff + 1)
        )
        assert 0 < len(eliminations) <= 2 * blocks

    def test_pure_model_report_eliminates_each_strand_once(self, eliminations, monkeypatch):
        """A pure model report reads Betti numbers, representatives, the
        lower grading and H_0 from one table, with no rank-only pass."""
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
        a = load_model(doc)
        blocks = sum(
            len({a.odd_word_length(m) for m in a._basis(n)}) for n in range(a.cutoff + 1)
        )
        assert blocks == 18
        assert 0 < len(eliminations) <= 2 * blocks


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
        odd_ok, _ = surjectivity_by_parity(phi, 1)
        assert odd_ok  # target has no odd cohomology
        matrices, betti = induced_map(phi), cohomology(s2).betti
        assert all(linalg.rank(matrices[n]) == betti[n] for n in matrices)

    def test_failing_degree_reported(self):
        two_spheres = SullivanAlgebra.build([("q1", 3), ("q2", 3)], cutoff=6)
        unit = SullivanAlgebra([], cutoff=6)
        phi = CdgaMorphism(unit, two_spheres, {})
        ok, failing = even_degree_surjectivity(phi)
        assert not ok and failing == 6
