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
"""

from sullivan import linalg
from sullivan.cohomology import _action_rows, cohomology
from sullivan.errors import DegreeMismatch
from sullivan.linalg import RationalMatrix


def class_coordinates(table, e, degree):
    """Coordinates of the class of the cocycle ``e`` of the given degree
    over the table's representatives, each scaled to 1 at its free
    column."""
    reps = table._spaces[degree].reps
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
