"""Exact linear algebra: frozen examples, plus the elimination kernel
checked against the independent Fraction-based reducer."""

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
