"""Exact linear algebra over the rationals.

Ranks, kernels, membership tests and quotient bases, all in exact
arithmetic: matrices are reduced by fraction-free (Bareiss) elimination
over arbitrary-precision integers after clearing denominators row-wise.
Pivoting is first-nonzero in column order, so every basis this module
produces is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotASubspace

Vector = tuple[Fraction, ...]


def _as_fraction_vector(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def _int_rows(rows: Iterable[Sequence]) -> list[Sequence[int]]:
    """Integer rows spanning the same lines as the given int or Fraction
    rows: each row is scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def ff_row_echelon(rows):
    """Fraction-free row echelon form of an integer matrix.

    Bareiss single-step elimination with first-nonzero-in-column-order
    pivoting, so the output is deterministic.  Every intermediate entry
    is a minor of the input, hence all divisions are exact.

    Returns ``(echelon, pivots)`` where ``echelon`` holds the nonzero
    rows, each reduced by its content with a positive pivot entry, and
    ``pivots`` lists their pivot column indices.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        row_r = m[r]
        piv = row_r[c]
        for i in range(r + 1, nrows):
            row_i = m[i]
            mic = row_i[c]
            if mic:
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] * piv - mic * row_r[j]) // prev
            elif prev != 1:
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] * piv) // prev
            elif piv != 1:
                for j in range(c, ncols):
                    row_i[j] = row_i[j] * piv
        pivots.append(c)
        prev = piv
        r += 1
    echelon = []
    for r, c in enumerate(pivots):
        row = m[r]
        g = 0
        for x in row:
            if x:
                g = gcd(g, x)
        if row[c] < 0:
            g = -g
        echelon.append([x // g for x in row])
    return echelon, pivots


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix with exact rational entries."""

    entries: tuple[Vector, ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise DimensionMismatch("rows of unequal length")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(_as_fraction_vector(row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.entries))) if self.entries else RationalMatrix(())

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)


@dataclass(frozen=True)
class SubspaceBasis:
    """A list of linearly independent vectors in Q^ambient_dim."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
                )
        if self.vectors and rank_rows(self.vectors) != len(self.vectors):
            raise DimensionMismatch("basis vectors are linearly dependent")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Iterable]) -> "SubspaceBasis":
        return cls(ambient_dim, tuple(_as_fraction_vector(v) for v in vectors))

    @property
    def dim(self) -> int:
        return len(self.vectors)


def rank_rows(rows: Iterable[Sequence]) -> int:
    """Rank of the span of the given rows (entries int or Fraction)."""
    int_rows = [r for r in _int_rows(rows) if any(r)]
    if not int_rows:
        return 0
    _, pivots = ff_row_echelon(int_rows)
    return len(pivots)


def rank(m: RationalMatrix) -> int:
    """Exact rank over Q."""
    return rank_rows(m.entries)


def _echelon(rows: Iterable[Sequence]) -> tuple[list[list[int]], list[int]]:
    int_rows = _int_rows(rows)
    if not int_rows:
        return [], []
    return ff_row_echelon(int_rows)


def _back_substitute(echelon: list[list[int]], pivots: list[int], v: list[Fraction]) -> None:
    # Fills pivot coordinates of v so that every echelon row pairs to zero
    # with v; non-pivot coordinates of v are taken as given.
    ncols = len(v)
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = echelon[r]
        acc = Fraction(0)
        for j in range(pc + 1, ncols):
            if row[j] and v[j]:
                acc += row[j] * v[j]
        v[pc] = -acc / row[pc]


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Basis of {v : m v = 0}; its dimension is cols(m) - rank(m)."""
    ncols = m.cols
    echelon, pivots = _echelon(m.entries)
    pivot_set = set(pivots)
    vectors = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        _back_substitute(echelon, pivots, v)
        vectors.append(tuple(v))
    return SubspaceBasis(ncols, tuple(vectors))


def solve(columns: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Exact solution c of sum_i c_i * columns[i] = rhs, or None.

    Entries of ``columns`` and ``rhs`` must be ``int`` or ``Fraction``.
    Free coefficients are set to zero, so the answer is deterministic.
    """
    n = len(rhs)
    for col in columns:
        if len(col) != n:
            raise DimensionMismatch("column length does not match right-hand side")
    k = len(columns)
    echelon, pivots = _echelon(zip(*columns, rhs))
    if k in pivots:
        return None
    c = [Fraction(0)] * (k + 1)
    c[k] = Fraction(-1)
    _back_substitute(echelon, pivots, c)
    return c[:k]


def image_membership(basis: SubspaceBasis, v: Sequence) -> tuple[bool, list[Fraction] | None]:
    """Test whether v lies in the span; if so, return its coefficients."""
    if len(v) != basis.ambient_dim:
        raise DimensionMismatch(
            f"vector of length {len(v)} against ambient dimension {basis.ambient_dim}"
        )
    coeffs = solve(basis.vectors, _as_fraction_vector(v))
    if coeffs is None:
        return False, None
    return True, coeffs


class _Reducer:
    """Incremental row reduction for span-membership against a growing basis."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows: list[tuple[int, list[Fraction]]] = []  # (pivot, row with pivot 1)

    def reduce(self, v: Sequence) -> list[Fraction]:
        w = [Fraction(x) for x in v]
        for pc, row in self.rows:
            if w[pc]:
                c = w[pc]
                for j in range(pc, self.ambient_dim):
                    w[j] -= c * row[j]
        return w

    def add(self, v: Sequence) -> bool:
        """Reduce v against the span; absorb and return True if independent."""
        w = self.reduce(v)
        for pc in range(self.ambient_dim):
            if w[pc]:
                inv = 1 / w[pc]
                row = [x * inv for x in w]
                self.rows.append((pc, row))
                self.rows.sort(key=lambda item: item[0])
                return True
        return False


def quotient_basis(sub: SubspaceBasis, ambient: SubspaceBasis) -> SubspaceBasis:
    """Representatives of a complement of sub inside ambient.

    The representatives are chosen greedily from ambient's own vectors in
    order, so the output is deterministic; their count is
    dim(ambient) - dim(sub).  Raises NotASubspace when sub is not
    contained in the span of ambient.
    """
    if sub.ambient_dim != ambient.ambient_dim:
        raise DimensionMismatch("sub and ambient live in different ambient spaces")
    for v in sub.vectors:
        inside, _ = image_membership(ambient, v)
        if not inside:
            raise NotASubspace("sub basis vector outside the ambient span")
    reducer = _Reducer(ambient.ambient_dim)
    for v in sub.vectors:
        reducer.add(v)
    reps = []
    for v in ambient.vectors:
        if reducer.add(v):
            reps.append(v)
    return SubspaceBasis(ambient.ambient_dim, tuple(reps))
