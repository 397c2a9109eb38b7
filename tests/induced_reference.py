"""Class coordinates and induced maps on cohomology, as an independent
reference for the rank-counting surjectivity check.

The library decides surjectivity of H^n(f) by counting ranks
(``cohomology.surjectivity_by_parity``) and keeps no coordinates of
classes.  This reference solves for them instead: a cocycle of degree n
is written over every d-image of the degree below (``_action_rows(a,
n-1)``) followed by the table's representatives, so the coefficients of
the representatives are its class coordinates, and the matrices of
H^n(f) are built column by column from them.  The coboundaries come
first, so a representative that depended on them and on the
representatives before it would be a free column and get coefficient 0.

The uncleared rank counts that ``betti_numbers`` and
``surjectivity_by_parity`` made before they read the cleared chain
``cohomology._echelons`` are kept here too: they rank every degree's
full d rows, and the direct check eliminates the raw coboundary rows
with the mapped cocycles.
"""

from sullivan import linalg
from sullivan.cdga import _combination
from sullivan.cohomology import _action_rows, cohomology
from sullivan.errors import DegreeMismatch
from sullivan.linalg import RationalMatrix


def representative_vectors(table, degree):
    """The degree's representatives (kernel vectors) of a cohomology
    table by free column, over the positions of the degree's monomial
    basis."""
    index, pack = table.algebra._positions(degree), table.algebra._pack
    return [{index[pack(m)]: x for m, x in v.items()} for v in table._ordered(degree)]


def class_coordinates(table, e, degree):
    """Coordinates of the class of the cocycle ``e`` of the given degree
    over the table's representatives, each scaled to 1 at its free
    column."""
    reps = representative_vectors(table, degree)
    boundaries = _action_rows(table.algebra, degree - 1) if degree else []
    coeffs = linalg.solve([*boundaries, *reps], table.algebra.coordinates(e, degree))
    if coeffs is None:
        raise DegreeMismatch("element is not a cocycle of this degree")
    return [c * v[max(v)] for c, v in zip(coeffs[len(boundaries) :], reps)]


def induced_map(f, source_table=None, target_table=None):
    """Matrices of H^n(f) in the tables' class bases, one per degree up to
    the smaller cutoff of the two tables (by default the tables of f's
    source and target)."""
    source_table = source_table or cohomology(f.source)
    target_table = target_table or cohomology(f.target)
    matrices = {}
    for n in range(min(source_table.cutoff, target_table.cutoff) + 1):
        columns = [
            class_coordinates(target_table, f.apply(rep), n)
            for rep in source_table.representatives(n)
        ]
        rows = tuple(zip(*columns)) if columns else [[] for _ in range(target_table.betti[n])]
        matrices[n] = RationalMatrix.from_rows(rows)
    return matrices


def uncleared_betti_numbers(a):
    """dim C^n less the ranks of the full d_n and d_{n-1} rows."""
    ranks = [linalg.rank_rows(_action_rows(a, n)) for n in range(a.cutoff + 1)]
    return tuple(
        len(a._positions(n)) - rank - (ranks[n - 1] if n else 0) for n, rank in enumerate(ranks)
    )


def uncleared_surjectivity_by_parity(f, parity):
    """(verdict, smallest failing degree) of ``surjectivity_by_parity``,
    ranking every target degree's full d rows."""
    target = f.target
    for n in range(parity % 2, min(f.source.cutoff, target.cutoff) + 1, 2):
        kernel_dim = len(target._positions(n)) - linalg.rank_rows(_action_rows(target, n))
        rows = _action_rows(target, n - 1) if n else []
        if kernel_dim == linalg.rank_rows(rows):
            continue  # H^n(target) = 0
        index = target._positions(n)
        echelon, pivots = linalg._echelon(linalg._transpose(_action_rows(f.source, n)))
        monos, unpack = f.source._monomials(n), f.source._unpack
        for vec in linalg._kernel_vectors(echelon, pivots, len(monos)):
            image = _combination(((unpack(monos[p]), c) for p, c in vec.items()), f._monomial_terms)
            if image:
                rows.append({index[target._pack(m)]: c for m, c in image.items()})
        if linalg.rank_rows(rows) != kernel_dim:
            return False, n
    return True, None
