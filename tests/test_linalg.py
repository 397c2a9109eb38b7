"""Exact linear algebra: frozen examples, plus the sparse elimination
kernel checked against dense Bareiss elimination (same pivots, same
reduced row echelon form) and the independent Fraction-based reducer."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from instance_generators import random_sheared
from sullivan import linalg
from sullivan.cohomology import _action_rows
from sullivan.errors import DimensionMismatch, NotASubspace
from sullivan.linalg import (
    RationalMatrix,
    SubspaceBasis,
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
    pivot.  ``ff_row_echelon`` picks other pivot rows, so it must give
    the same pivots and rows with the same reduced row echelon form, not
    the same rows."""
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


def _reduced(rows, pivots):
    """Reduced row echelon form, in ``Fraction`` values, of dense echelon
    rows with the given pivot columns."""
    reduced = [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)]
    for r in range(len(reduced) - 1, -1, -1):
        for above in reduced[:r]:
            factor = above[pivots[r]]
            if factor:
                above[:] = [x - factor * y for x, y in zip(above, reduced[r])]
    return reduced


def _fraction_back_substitute(echelon, pivots, v):
    """``Fraction`` back-substitution, the reference for the integer one:
    fills the pivot coordinates of the dense v, zero on entry, so that
    every echelon row pairs to zero with v; the others are taken as given."""
    for r in range(len(pivots) - 1, -1, -1):
        row = echelon[r]
        acc = Fraction(0)
        for j, x in row.items():
            if v[j]:
                acc += x * v[j]
        v[pivots[r]] = -acc / row[pivots[r]]


def _reference_kernel(rows, ncols):
    """Per non-pivot column f: 1 at f, 0 at the other non-pivot columns."""
    echelon, pivots = linalg._echelon(rows)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            _fraction_back_substitute(echelon, pivots, v)
            vectors.append(tuple(v))
    return tuple(vectors)


def _reference_solve(columns, rhs):
    """The solution with free coefficients zero, or None."""
    k = len(columns)
    echelon, pivots = linalg._echelon(linalg._transpose([*columns, rhs]))
    if k in pivots:
        return None
    c = [Fraction(0)] * (k + 1)
    c[k] = Fraction(-1)
    _fraction_back_substitute(echelon, pivots, c)
    return c[:k]


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
    # ``solve`` decides membership in the span of its columns
    def test_member_with_coefficient(self):
        assert solve([(1, 0)], (2, 0)) == [2]

    def test_non_member(self):
        assert solve([(1, 0)], (0, 1)) is None

    def test_two_dimensional_solve(self):
        # (3,1) = 2*(1,1) + 1*(1,-1), solved by elimination
        assert solve([(1, 1), (1, -1)], (3, 1)) == [2, 1]

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve([(1, 0)], (1, 0, 0))


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


def _sparse(rows):
    """The nonzero rows of a dense integer matrix as kernel rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows if any(row)]


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


class TestEchelon:
    def test_known_echelon(self):
        assert linalg.ff_row_echelon([{0: 2, 1: 4}, {0: 1, 1: 2}]) == ([{0: 1, 1: 2}], [0])
        assert linalg.ff_row_echelon([{1: -2, 3: 4}]) == ([{1: 1, 3: -2}], [1])

    def test_random_against_reducer(self):
        rng = random.Random(31)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            echelon, pivots = linalg.ff_row_echelon(_sparse(matrix))
            reducer = linalg._Reducer(cols)
            assert len(pivots) == sum(reducer.add(row) for row in matrix)
            assert len(echelon) == len(pivots)
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            for row, p in zip(echelon, pivots):
                assert gcd(*row.values()) == 1
                assert row[p] > 0 and min(row) == p and all(row.values())
            span = linalg._Reducer(cols)
            for row in _dense(echelon, cols):
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
            rows = _sparse(matrix)
            snapshot = [dict(row) for row in rows]
            echelon, pivots = linalg.ff_row_echelon(rows)
            bareiss, bareiss_pivots = _bareiss_echelon([row for row in matrix if any(row)])
            assert pivots == bareiss_pivots
            assert _reduced(_dense(echelon, ncols), pivots) == _reduced(bareiss, pivots)
            for row, p in zip(echelon, pivots, strict=True):
                assert all(row.values()) and gcd(*row.values()) == 1
                assert min(row) == p and row[p] > 0
            assert rows == snapshot
        assert negative_leads >= 30

    def test_shortest_row_is_the_pivot(self):
        # the two-entry row pivots on column 0, though dense Bareiss takes
        # the first row; the other becomes 2*row - pivot_row
        assert linalg.ff_row_echelon([{0: 1, 1: 1, 2: 1}, {0: 2, 2: 3}]) == (
            [{0: 2, 2: 3}, {1: 2, 2: -1}],
            [0, 1],
        )
        # ties go to the first row of the bucket; updated rows are filed
        # under their new leading column and compete there by length
        rows = [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 3: 1}, {0: 1, 1: 1}]
        assert linalg.ff_row_echelon(rows) == (
            [{0: 1, 3: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}],
            [0, 1, 2],
        )
        assert rows[0] == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_fill_in_on_a_large_sheared_algebra(self, monkeypatch):
        """Content divisions (one per input row and per updated row) while
        ranking every differential block of the ninth sheared algebra of
        acceptance criterion 5's seed, the largest of the benchmark's 60
        core draws.  The shortest-row pivot makes 2749 of them; the first
        row of each leading column as pivot made 4951."""
        rng = random.Random(1013)
        draws = []
        while len(draws) < 9:
            pair = random_sheared(rng)
            if pair is not None:
                draws.append(pair[0])
        algebra = draws[8]
        assert sum(len(algebra._basis(n)) for n in range(algebra.cutoff + 1)) == 1008
        calls = 0
        divide_content = linalg._divide_content

        def counting(row):
            nonlocal calls
            calls += 1
            divide_content(row)

        monkeypatch.setattr(linalg, "_divide_content", counting)
        ranks = [linalg.rank_rows(_action_rows(algebra, n)) for n in range(algebra.cutoff + 1)]
        assert sum(ranks) == 551
        assert calls <= 3300

    def test_empty_and_zero_matrices(self):
        assert linalg.ff_row_echelon([]) == ([], [])
        assert linalg._int_rows([[0, 0, 0], [0, 0, 0], {}]) == []
        assert linalg._echelon([[0, 0, 0], [0, 0, 0]]) == ([], [])
        # rows that cancel to zero during elimination leave the echelon
        assert linalg.ff_row_echelon([{0: 1, 2: 1}, {0: 3, 2: 3}, {0: -1, 2: -1}]) == (
            [{0: 1, 2: 1}],
            [0],
        )


def _random_vectors(rng):
    """Up to six vectors of a common width as a random mix of mappings
    (nonzero entries only), lists and tuples, with int and Fraction
    entries, zero vectors and zero columns; returned with their dense
    forms."""
    ncols = rng.randint(0, 6)
    zero_columns = {j for j in range(ncols) if rng.random() < 0.3}
    dense, given = [], []
    for _ in range(rng.randint(0, 6)):
        row = [
            0
            if j in zero_columns or rng.random() < 0.4
            else rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
            for j in range(ncols)
        ]
        if rng.random() < 0.15:
            row = [0] * ncols
        dense.append(row)
        kind = rng.choice(["mapping", "list", "tuple"])
        if kind == "mapping":
            given.append({j: x for j, x in enumerate(row) if x})
        else:
            given.append(row if kind == "list" else tuple(row))
    return given, dense


class TestRowFormat:
    def test_transpose_matches_zip(self):
        rng = random.Random(47)
        for _ in range(300):
            given, dense = _random_vectors(rng)
            reference = [
                {i: x for i, x in enumerate(column) if x} for column in zip(*dense) if any(column)
            ]
            assert linalg._transpose(given) == reference
        assert linalg._transpose([]) == []
        assert linalg._transpose([{}, [0, 0], (0, 0)]) == []

    def test_int_rows_match_dense_scaling(self):
        rng = random.Random(53)
        for _ in range(300):
            given, dense = _random_vectors(rng)
            reference = []
            for row in dense:
                if any(row):
                    scale = lcm(*(Fraction(x).denominator for x in row))
                    reference.append({j: int(x * scale) for j, x in enumerate(row) if x})
            out = linalg._int_rows(given)
            assert out == reference
            assert all(type(x) is int for row in out for x in row.values())
            for row in given:
                if isinstance(row, dict) and row and all(type(x) is int for x in row.values()):
                    assert any(row is kept for kept in out)
        assert linalg._int_rows([]) == []


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
        """Sparse all-``int`` rows reach the kernel as they are: the
        caller's rows are left unmodified, and rank and echelon equal
        those of the same rows written densely as ``Fraction`` values."""
        rng = random.Random(43)
        for _ in range(40):
            matrix = _random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.6)
            rows = _sparse(matrix)
            before = [dict(row) for row in rows]
            fractions = [[Fraction(x) for x in row] for row in matrix]
            assert all(a is b for a, b in zip(linalg._int_rows(rows), rows, strict=True))
            assert linalg.rank_rows(rows) == linalg.rank_rows(fractions)
            assert linalg._echelon(rows) == linalg._echelon(fractions)
            assert rows == before
            assert all(type(x) is int for row in rows for x in row.values())


def _seeded_matrices():
    """The int matrices of ``TestEchelon`` (seed 31 and the dense-Bareiss
    shapes) and Fraction matrices mixed as in ``TestMixedEntries``."""
    rng = random.Random(31)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    for density, shape in [(0.1, "tall"), (0.04, "tall"), (0.6, "tall"), (0.6, "wide"), (1.0, "wide")]:
        rng = random.Random(f"{density}-{shape}")
        for _ in range(20):
            short, long = rng.randint(1, 8), rng.randint(9, 30)
            nrows, ncols = (long, short) if shape == "tall" else (short, long)
            yield _random_int_matrix(rng, nrows, ncols, density)
    rng = random.Random(41)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        yield [
            [
                rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(2, 4))])
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]


class TestBackSubstitution:
    def test_kernel_and_solve_match_fraction_reference(self):
        rng = random.Random(59)
        solvable = unsolvable = 0
        for matrix in _seeded_matrices():
            ncols = len(matrix[0])
            basis = kernel_basis(M(matrix))
            assert basis.vectors == _reference_kernel(matrix, ncols)
            assert all(type(x) is Fraction for v in basis.vectors for x in v)
            columns = [list(col) for col in zip(*matrix)]
            weights = [rng.randint(-3, 3) for _ in columns]
            inside = [sum(w * x for w, x in zip(weights, row)) for row in matrix]
            outside = [rng.randint(-9, 9) for _ in matrix]
            for rhs in (inside, outside):
                got = solve(columns, rhs)
                assert got == _reference_solve(columns, rhs)
                if got is None:
                    unsolvable += 1
                else:
                    solvable += 1
                    assert all(type(x) is Fraction for x in got)
                    assert [sum(c * x for c, x in zip(got, row)) for row in matrix] == rhs
        assert solvable > 100 and unsolvable > 30

    def test_kernel_vectors_are_primitive_and_positive_at_their_last_key(self):
        for matrix in _seeded_matrices():
            ncols = len(matrix[0])
            echelon, pivots = linalg._echelon(matrix)
            vectors = linalg._kernel_vectors(echelon, pivots, ncols)
            free = [f for f in range(ncols) if f not in pivots]
            assert [max(v) for v in vectors] == free
            for v in vectors:
                assert all(type(x) is int and x for x in v.values())
                assert gcd(*v.values()) == 1 and v[max(v)] > 0
                assert set(v) - set(pivots) == {max(v)}
                for row in matrix:
                    assert sum(row[j] * x for j, x in v.items()) == 0

    def test_outputs_do_not_depend_on_row_order(self):
        """The echelon rows depend on the row order, but the pivots and
        everything read off them (kernel vectors, ``kernel_basis``,
        ``solve``, ``_complement``) do not."""
        rng = random.Random(61)
        for matrix in _seeded_matrices():
            nrows, ncols = len(matrix), len(matrix[0])
            order = list(range(nrows))
            rng.shuffle(order)
            shuffled = [matrix[i] for i in order]
            echelon, pivots = linalg._echelon(matrix)
            echelon_s, pivots_s = linalg._echelon(shuffled)
            assert pivots_s == pivots
            assert linalg._kernel_vectors(echelon_s, pivots_s, ncols) == linalg._kernel_vectors(
                echelon, pivots, ncols
            )
            assert kernel_basis(M(shuffled)) == kernel_basis(M(matrix))
            columns = [list(col) for col in zip(*matrix)]
            columns_s = [list(col) for col in zip(*shuffled)]
            for rhs in ([sum(row) for row in matrix], [rng.randint(-9, 9) for _ in matrix]):
                assert solve(columns_s, [rhs[i] for i in order]) == solve(columns, rhs)
            # sub: independent columns; ambient: the unit vectors in a random
            # order.  Shuffling the rows permutes the coordinates of both.
            sub = [columns[c] for c in pivots]
            units = list(range(nrows))
            rng.shuffle(units)
            ambient = [[int(i == u) for i in range(nrows)] for u in units]
            picked = linalg._complement(sub, ambient)
            picked_s = linalg._complement(
                [[v[i] for i in order] for v in sub], [[v[i] for i in order] for v in ambient]
            )
            assert picked_s == tuple([v[i] for i in order] for v in picked)
