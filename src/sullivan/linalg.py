"""Exact linear algebra over the rationals.

Ranks, kernels, solutions and quotient bases, all in exact arithmetic:
rows with int or Fraction entries are reduced by sparse fraction-free
elimination over arbitrary-precision integers, which visits only
nonzero entries and keeps every row primitive.  The kernel
takes and returns sparse rows ``{column: int}``, which ``_int_rows``
makes of mapping or dense rows (``int`` mappings, such as differential
rows, pass through) and ``_transpose`` of the columns of vectors.
Each column's pivot row is its shortest candidate; the pivot columns,
and so every basis this module produces, do not depend on row order.
Kernel vectors are back-substituted fraction-free in the same format,
one free column at a time, so a caller can back-substitute only the
columns it needs; ``Fraction`` values and dense vectors appear only at
the public functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotASubspace

Vector = tuple[Fraction, ...]


def _as_fraction_vector(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def _transpose(vectors: Iterable) -> list[dict]:
    """The nonzero columns, in column order, of the matrix whose rows are
    ``vectors`` (mappings ``{column: entry}`` or dense sequences), each
    as a sparse row ``{row index: entry}`` of its nonzero entries."""
    columns: dict[int, dict] = {}
    for i, v in enumerate(vectors):
        for j, x in v.items() if isinstance(v, dict) else enumerate(v):
            if x:
                columns.setdefault(j, {})[i] = x
    return [columns[j] for j in sorted(columns)]


def _int_rows(rows: Iterable) -> list[dict[int, int]]:
    """Kernel rows ``{column: int}`` spanning the same lines as the given
    mappings ``{column: entry}`` of nonzero entries or dense sequences
    (int or Fraction entries), zero rows dropped.  An all-``int`` mapping
    passes through as it is; any other row is scaled by the lcm of its
    denominators."""
    out = []
    for row in rows:
        if not isinstance(row, dict):
            row = {j: x for j, x in enumerate(row) if x}
        if not row:
            continue
        if set(map(type, row.values())) <= {int}:
            out.append(row)
            continue
        scale = lcm(*(x.denominator for x in row.values()))
        out.append({j: x.numerator * (scale // x.denominator) for j, x in row.items()})
    return out


def _divide_content(row: dict[int, int]) -> None:
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def ff_row_echelon(rows):
    """Fraction-free row echelon form of an integer matrix.

    Takes nonzero sparse rows ``{column: int}`` and works on copies, so
    the caller's rows are not modified.  Column keys may be any ints,
    negatives included; rows are filed by leading column, their smallest
    key, and the columns taken in increasing order.  Column c's pivot row is
    the shortest row filed under c, the first on a tie, which keeps
    fill-in low (the row half of Markowitz pivoting).  Each other row
    there, with entry ``mic`` at c, becomes ``row*(piv//g) -
    pivot_row*(mic//g)`` with ``g = gcd(piv, mic)``, is divided by its
    content and filed again, or dropped if zero.  The pivot columns are
    the first independent columns from left to right, in any row order.

    Returns ``(echelon, pivots)``: the nonzero rows as ``{column: int}``,
    each primitive with a positive pivot entry, and their pivot columns
    in increasing order.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in map(dict, rows):
        _divide_content(row)
        buckets.setdefault(min(row), []).append(row)
    leads = sorted(buckets)  # a sorted list is a heap
    echelon, pivots = [], []
    while leads:
        c = heappop(leads)
        bucket = buckets.pop(c)
        pivot_row = min(bucket, key=len)
        piv = pivot_row[c]
        for row in bucket:
            if row is pivot_row:
                continue
            g = gcd(piv, row[c])
            a, b = piv // g, row[c] // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in pivot_row.items():
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            if row:
                _divide_content(row)
                lead = min(row)
                if lead not in buckets:
                    heappush(leads, lead)
                buckets.setdefault(lead, []).append(row)
        if piv < 0:
            for j in pivot_row:
                pivot_row[j] = -pivot_row[j]
        echelon.append(pivot_row)
        pivots.append(c)
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


def rank_rows(rows: Iterable) -> int:
    """Rank of the span of the given rows (entries int or Fraction)."""
    return len(_echelon(rows)[1])


def _echelon(rows: Iterable) -> tuple[list[dict[int, int]], list[int]]:
    int_rows = _int_rows(rows)
    if not int_rows:
        return [], []
    return ff_row_echelon(int_rows)


def _back_substitute(echelon: list[dict[int, int]], pivots: list[int], v: dict[int, int]) -> None:
    # Fills the pivot entries of the integer vector v, absent on entry, so
    # that every echelon row pairs to zero with v.  Where a pivot p does not
    # divide the pairing acc, v is scaled by p // gcd(acc, p), which is prime
    # to the new entry, so a primitive v stays primitive.
    for r in range(len(pivots) - 1, -1, -1):
        row = echelon[r]
        acc = sum(x * v[j] for j, x in row.items() if j in v)
        if not acc:
            continue
        p = row[pivots[r]]
        g = gcd(acc, p)
        if g != p:
            scale = p // g
            for j in v:
                v[j] *= scale
        v[pivots[r]] = -acc // g


def _kernel_vectors(echelon: list[dict[int, int]], pivots: list[int], ncols: int) -> list[dict[int, int]]:
    """Kernel basis of an ``ncols``-column matrix from its echelon form:
    per non-pivot column f, ``{f: 1}`` back-substituted, primitive and
    positive at f, its largest key (no rows: the identity basis)."""
    pivot_set = set(pivots)
    vectors = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = {f: 1}
        _back_substitute(echelon, pivots, v)
        vectors.append(v)
    return vectors


def _unit_scaled(v: dict[int, int]) -> dict[int, Fraction]:
    """A kernel vector scaled to 1 at its free column, its largest key."""
    top = v[max(v)]
    return {j: Fraction(x, top) for j, x in v.items()}


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Basis of {v : m v = 0}; its dimension is cols(m) - rank(m)."""
    echelon, pivots = _echelon(m.entries)
    vectors = map(_unit_scaled, _kernel_vectors(echelon, pivots, m.cols))
    return SubspaceBasis.from_vectors(m.cols, ([v.get(j, 0) for j in range(m.cols)] for v in vectors))


def solve(columns: Sequence, rhs: Sequence) -> list[Fraction] | None:
    """Exact solution c of sum_i c_i * columns[i] = rhs, or None.

    Each column is a dense sequence as long as ``rhs`` or a sparse
    mapping ``{row: entry}``; entries must be ``int`` or ``Fraction``.
    Free coefficients are set to zero, so the answer is deterministic.
    """
    n = len(rhs)
    for col in columns:
        if not isinstance(col, dict) and len(col) != n:
            raise DimensionMismatch("column length does not match right-hand side")
    k = len(columns)
    echelon, pivots = _echelon(_transpose([*columns, rhs]))
    if k in pivots:
        return None
    c = {k: 1}  # then rhs = -sum_i c_i/c_k * columns[i]
    _back_substitute(echelon, pivots, c)
    return [Fraction(-c.get(i, 0), c[k]) for i in range(k)]


class _Reducer:
    """Incremental row reduction for span-membership against a growing basis.

    Independent ``Fraction`` arithmetic, no library caller: the tests use it
    as the reference for the echelon-based routines (the greedy choice of
    ``quotient_basis``, the span of ``ff_row_echelon``).
    """

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


def _complement(sub: Sequence, ambient: Sequence) -> tuple:
    """Ambient vectors completing the independent ``sub`` to a basis of
    the span of the independent ``ambient`` (dense sequences or sparse
    mappings, entries int or Fraction).

    One echelon of the matrix whose columns are sub's vectors followed by
    ambient's: its pivot columns are the greedy left-to-right maximal
    independent set of those columns.  Sub's columns are all pivots, and
    the result is ambient's vectors at the remaining pivot columns, i.e.
    each ambient vector in order that is independent of sub and of those
    picked before it, a choice that depends only on the span of sub.
    Sub lies in ambient's span exactly when the rank is len(ambient);
    otherwise NotASubspace is raised.
    """
    if not sub:
        return tuple(ambient)
    _, pivots = _echelon(_transpose([*sub, *ambient]))
    if len(pivots) != len(ambient):
        raise NotASubspace("sub basis vector outside the ambient span")
    s = len(sub)
    return tuple(ambient[c - s] for c in pivots[s:])


def quotient_basis(sub: SubspaceBasis, ambient: SubspaceBasis) -> SubspaceBasis:
    """Representatives of a complement of sub inside ambient, picked
    greedily from ambient in order (see ``_complement``)."""
    if sub.ambient_dim != ambient.ambient_dim:
        raise DimensionMismatch("sub and ambient live in different ambient spaces")
    return SubspaceBasis(ambient.ambient_dim, _complement(sub.vectors, ambient.vectors))
