"""Exact linear algebra: frozen examples, plus the sparse elimination
kernel checked against dense Bareiss elimination and the independent
Fraction-based reducer."""

import random
from fractions import Fraction
from math import gcd

import pytest

from sullivan import linalg
from sullivan.errors import DimensionMismatch, NotASubspace
from sullivan.linalg import (
    RationalMatrix,
    SubspaceBasis,
    image_membership,
    kernel_basis,
    quotient_basis,
    rank,
    solve,
)


def M(rows):
    return RationalMatrix.from_rows(rows)


def _bareiss_echelon(rows):
    """Dense Bareiss single-step elimination with first-nonzero-in-column
    pivoting, each final row reduced by its content with a positive
    pivot: the reference ``ff_row_echelon`` must reproduce exactly."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), -1)
        if pr < 0:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            for j in range(c, ncols):
                m[i][j] = (m[i][j] * piv - mic * m[r][j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
    echelon = []
    for r, c in enumerate(pivots):
        g = gcd(*m[r])
        if m[r][c] < 0:
            g = -g
        echelon.append([x // g for x in m[r]])
    return echelon, pivots


def _random_int_matrix(rng, nrows, ncols, density):
    """Entries in -9..9, each nonzero with the given probability, plus a
    zero row, a duplicate row and a negated row at random places."""
    rows = [
        [rng.choice([-1, 1]) * rng.randint(1, 9) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    rows.insert(rng.randint(0, len(rows)), [-x for x in rng.choice(rows)])
    return rows


class TestRank:
    def test_identity(self):
        assert rank(M([[1, 0], [0, 1]])) == 2

    def test_zero(self):
        assert rank(M([[0, 0, 0, 0]] * 3)) == 0

    def test_dependent_rows(self):
        # second row is twice the first, so one pivot survives reduction
        assert rank(M([[1, 2], [2, 4]])) == 1

    def test_rational_entries(self):
        assert rank(M([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])) == 1

    def test_rank_plus_kernel_is_cols(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = M([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            assert rank(m) + kernel_basis(m).dim == cols


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel_basis(M([[1, 0], [0, 1]])).dim == 0

    def test_zero_map_kernel_full(self):
        basis = kernel_basis(M([[0, 0, 0], [0, 0, 0]]))
        assert basis.dim == 3

    def test_line(self):
        # x + y = 0 has solution line (1, -1) up to scale
        basis = kernel_basis(M([[1, 1]]))
        assert basis.dim == 1
        v = basis.vectors[0]
        assert v[0] == -v[1] != 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(30):
            m = M([[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
            for v in kernel_basis(m).vectors:
                for row in m.entries:
                    assert sum(a * b for a, b in zip(row, v)) == 0


class TestMembership:
    def test_member_with_coefficient(self):
        basis = SubspaceBasis.from_vectors(2, [(1, 0)])
        inside, coeffs = image_membership(basis, (2, 0))
        assert inside and coeffs == [2]

    def test_non_member(self):
        basis = SubspaceBasis.from_vectors(2, [(1, 0)])
        inside, coeffs = image_membership(basis, (0, 1))
        assert not inside and coeffs is None

    def test_two_dimensional_solve(self):
        # (3,1) = 2*(1,1) + 1*(1,-1), solved by elimination
        basis = SubspaceBasis.from_vectors(2, [(1, 1), (1, -1)])
        inside, coeffs = image_membership(basis, (3, 1))
        assert inside and coeffs == [2, 1]

    def test_length_mismatch(self):
        basis = SubspaceBasis.from_vectors(2, [(1, 0)])
        with pytest.raises(DimensionMismatch):
            image_membership(basis, (1, 0, 0))


class TestQuotient:
    def test_zero_sub(self):
        ambient = SubspaceBasis.from_vectors(2, [(1, 0), (0, 1)])
        reps = quotient_basis(SubspaceBasis(2, ()), ambient)
        assert reps.dim == 2

    def test_full_sub(self):
        ambient = SubspaceBasis.from_vectors(2, [(1, 0), (0, 1)])
        sub = SubspaceBasis.from_vectors(2, [(1, 1), (1, -1)])
        assert quotient_basis(sub, ambient).dim == 0

    def test_complement_in_q3(self):
        # eliminating (1,1,0) from the standard basis leaves two classes
        ambient = SubspaceBasis.from_vectors(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        sub = SubspaceBasis.from_vectors(3, [(1, 1, 0)])
        reps = quotient_basis(sub, ambient)
        assert reps.dim == 2
        combined = list(sub.vectors) + list(reps.vectors)
        assert linalg.rank_rows(combined) == 3

    def test_not_a_subspace(self):
        ambient = SubspaceBasis.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        sub = SubspaceBasis.from_vectors(3, [(0, 0, 1)])
        with pytest.raises(NotASubspace):
            quotient_basis(sub, ambient)


class TestExactness:
    def test_scaling_invariance(self):
        rng = random.Random(23)
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            m = M(rows)
            scaled = M([[7 * x for x in row] for row in rows])
            assert rank(m) == rank(scaled)
            assert kernel_basis(m).dim == kernel_basis(scaled).dim

    def test_permutation_invariance(self):
        rng = random.Random(29)
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
            r = rank(M(rows))
            shuffled_rows = rows[:]
            rng.shuffle(shuffled_rows)
            perm = list(range(4))
            rng.shuffle(perm)
            permuted = [[row[j] for j in perm] for row in shuffled_rows]
            assert rank(M(permuted)) == r

    def test_solve_fractions(self):
        cols = [(1, 0), (1, 2)]
        assert solve(cols, (2, 1)) == [Fraction(3, 2), Fraction(1, 2)]


class TestEchelon:
    def test_known_echelon(self):
        echelon, pivots = linalg.ff_row_echelon([[2, 4], [1, 2]])
        assert pivots == [0]
        assert echelon == [[1, 2]]

    def test_random_against_reducer(self):
        rng = random.Random(31)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            echelon, pivots = linalg.ff_row_echelon(matrix)
            reducer = linalg._Reducer(cols)
            assert len(pivots) == sum(reducer.add(row) for row in matrix)
            assert len(echelon) == len(pivots)
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            for row, p in zip(echelon, pivots):
                assert gcd(*row) == 1
                assert row[p] > 0 and not any(row[:p])
            span = linalg._Reducer(cols)
            for row in echelon:
                span.add(row)
            assert not any(span.add(row) for row in matrix)

    @pytest.mark.parametrize(
        "density, shape",
        [(0.1, "tall"), (0.1, "wide"), (0.04, "tall"), (0.6, "tall"), (0.6, "wide"), (1.0, "wide")],
    )
    def test_matches_dense_bareiss(self, density, shape):
        rng = random.Random(f"{density}-{shape}")
        negative_leads = 0
        for _ in range(60):
            short, long = rng.randint(1, 8), rng.randint(9, 30)
            nrows, ncols = (long, short) if shape == "tall" else (short, long)
            matrix = _random_int_matrix(rng, nrows, ncols, density)
            negative_leads += any(next((x for x in row if x), 0) < 0 for row in matrix)
            snapshot = [list(row) for row in matrix]
            assert linalg.ff_row_echelon(matrix) == _bareiss_echelon(matrix)
            assert matrix == snapshot
        assert negative_leads >= 30

    def test_empty_and_zero_matrices(self):
        assert linalg.ff_row_echelon([]) == ([], [])
        assert linalg.ff_row_echelon([[0, 0, 0], [0, 0, 0]]) == ([], [])


class TestMixedEntries:
    def test_int_and_fraction_rows_agree(self):
        """Rows mixing int and Fraction entries, as the differential rows
        do, give the same rank, kernel and quotient as all-Fraction rows."""
        rng = random.Random(41)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            mixed = [
                tuple(
                    rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(2, 4))])
                    for _ in range(ncols)
                )
                for _ in range(nrows)
            ]
            fractions = [tuple(Fraction(x) for x in row) for row in mixed]
            assert linalg.rank_rows(mixed) == linalg.rank_rows(fractions)
            assert kernel_basis(RationalMatrix(tuple(mixed))) == kernel_basis(
                RationalMatrix(tuple(fractions))
            )
            reducer = linalg._Reducer(ncols)
            independent = [i for i, row in enumerate(fractions) if reducer.add(row)]
            identity = [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
            quotients = [
                quotient_basis(
                    SubspaceBasis(ncols, tuple(rows[i] for i in independent)),
                    SubspaceBasis(ncols, tuple(ambient)),
                )
                for rows, ambient in (
                    (mixed, identity),
                    (fractions, [tuple(map(Fraction, v)) for v in identity]),
                )
            ]
            assert quotients[0] == quotients[1]

    def test_integer_rows_pass_through_unmodified(self):
        """All-``int`` rows reach the kernel as they are: the caller's rows
        are left unmodified, and rank and echelon equal those of the same
        rows written as ``Fraction`` values."""
        rng = random.Random(43)
        for _ in range(40):
            rows = _random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.6)
            before = [list(row) for row in rows]
            fractions = [[Fraction(x) for x in row] for row in rows]
            assert all(a is b for a, b in zip(linalg._int_rows(rows), rows))
            assert linalg.rank_rows(rows) == linalg.rank_rows(fractions)
            assert linalg._echelon(rows) == linalg._echelon(fractions)
            assert rows == before
            assert all(type(x) is int for row in rows for x in row)
