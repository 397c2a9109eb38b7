"""Degree-wise cohomology of a Sullivan algebra up to its cutoff.

Cohomology in degree n is ker(d_n)/im(d_{n-1}), computed by exact
elimination over the monomial bases.  Class representatives are chosen
deterministically: kernel bases come from echelon back-substitution and
quotient representatives are picked greedily from the kernel basis in
order, so repeated runs give identical tables.

The algebra's cutoff is the only cutoff: every function here runs to
it, and one on a map runs to the smaller cutoff of its two sides, so
``SullivanAlgebra.with_cutoff`` is how to stop lower.

``CohomologyTable`` eliminates each degree block by block, once.  For
pure algebras the differential drops the odd word length of a monomial
by exactly one, so the cochain complex splits into strands of odd word
length, and these are the blocks; any other algebra has one block per
degree.  The table's strands are the lower grading, which
``LowerGradedTable`` reads without eliminating again; its index-0 strand
H_0 is the image of the even subalgebra in cohomology.  Parity-wise
surjectivity of a morphism, by rank counting, completes the module.
``betti_numbers`` and ``h0_dims`` count ranks independently of the
table.  Differential rows are sparse rows ``{position: coefficient}``
read off ``SullivanAlgebra._d_terms`` and reach the elimination kernel as
they are; cocycles and class representatives are primitive
``{position: int}`` vectors.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from . import linalg
from .cdga import AlgebraElement, CdgaMorphism, SullivanAlgebra, _combination
from .errors import CutoffExceeded, InvalidDifferential, NotPure


def _d_rows(a: SullivanAlgebra, monos, index: dict) -> list[dict]:
    """Rows are the differential images of ``monos`` as sparse rows
    ``{position: coefficient}`` over the monomials of ``index`` (monomial
    -> position), with the nonzero coefficients of ``_d_terms``, all
    ``int`` when the generators' images are integral."""
    return [{index[m]: c for m, c in a._d_terms(mono).items()} for mono in monos]


def _action_rows(a: SullivanAlgebra, degree: int) -> list[dict]:
    """Rows are the differential images of the degree-basis monomials,
    written over the (degree+1) basis."""
    return _d_rows(a, a._basis(degree), a._basis_index(degree + 1))


def _cocycles(rows: list) -> tuple[list[int], list[dict[int, int]]]:
    """Pivot columns and kernel basis of d from the d-images ``rows`` of
    a space's basis: one elimination with a column per basis vector, zero
    rows dropped (with none left, the kernel is the identity basis)."""
    echelon, pivots = linalg._echelon(linalg._transpose(rows))
    return pivots, linalg._kernel_vectors(echelon, pivots, len(rows))


def _classes(rows: list, block: list[int], image: tuple) -> tuple[tuple, tuple]:
    """Class representatives of one block of a cochain space and the
    coboundaries that the block hands to the next space.

    ``rows`` are the d-images of the space's basis vectors over the next
    space's basis, ``block`` the positions of the block's basis vectors
    and ``image`` a basis of the block's coboundaries.  The one
    elimination of ``_cocycles`` on the block's rows serves both spaces:
    representatives are picked greedily from its kernel basis, written
    over the space's basis positions, as a complement of ``image``, and
    the d-images of its pivot basis vectors are a basis of the next
    space's coboundaries that the block hits.
    """
    pivots, cocycles = _cocycles([rows[p] for p in block])
    embedded = [{block[j]: x for j, x in v.items()} for v in cocycles]
    return linalg._complement(image, embedded), tuple(rows[block[c]] for c in pivots)


def _element(a: SullivanAlgebra, v: dict[int, int], degree: int) -> AlgebraElement:
    """The element of a representative scaled to 1 at its free column."""
    return a.element_from_coordinates(linalg._unit_scaled(v), degree)


def betti_numbers(a: SullivanAlgebra) -> tuple[int, ...]:
    """Betti numbers (dim H^n) for n = 0..cutoff, by rank counting only."""
    if not a.verify_d_squared():
        raise InvalidDifferential("differential does not square to zero")
    ranks = [linalg.rank_rows(_action_rows(a, n)) for n in range(a.cutoff + 1)]
    betti = []
    for n in range(a.cutoff + 1):
        dim = len(a._basis(n))
        prev = ranks[n - 1] if n else 0
        betti.append(dim - ranks[n] - prev)
    return tuple(betti)


class _DegreeSpace:
    """Class representatives ``reps`` (kernel vectors, by free column) in
    one degree, and ``blocks``, the representatives of each block by
    block key."""

    def __init__(self, algebra: SullivanAlgebra, degree: int, blocks: dict):
        self.blocks = blocks
        self.reps = tuple(sorted(chain.from_iterable(blocks.values()), key=max))
        self.elements = tuple(_element(algebra, v, degree) for v in self.reps)

    @property
    def betti(self) -> int:
        return len(self.reps)


class CohomologyTable:
    """Per-degree bases of cohomology classes with explicit representatives.

    Each degree is eliminated block by block.  The blocks of a pure
    algebra are its strands of odd word length i, which d maps to strand
    i - 1 of the next degree; any other algebra has one block, key 0, per
    degree.  The strands' column spaces are independent, so a degree's
    pivots, kernel vectors and greedy complements are those of its
    blocks embedded with zeros, and its representatives are theirs in
    the order of their free columns.
    """

    def __init__(self, algebra: SullivanAlgebra):
        if not algebra.verify_d_squared():
            raise InvalidDifferential("differential does not square to zero")
        self.algebra = algebra
        self.cutoff = algebra.cutoff
        pure = algebra.is_pure()
        self._spaces = []
        images: dict[int, tuple] = {}  # block key -> coboundaries handed up from below
        for n in range(algebra.cutoff + 1):
            rows = _action_rows(algebra, n)
            blocks: dict[int, list[int]] = {}
            for p, mono in enumerate(algebra._basis(n)):
                blocks.setdefault(algebra.odd_word_length(mono) if pure else 0, []).append(p)
            block_reps, next_images = {}, {}
            for i, block in sorted(blocks.items()):
                block_reps[i], next_images[i - 1 if pure else 0] = _classes(
                    rows, block, images.get(i, ())
                )
            self._spaces.append(_DegreeSpace(algebra, n, block_reps))
            images = next_images
        self.betti = tuple(space.betti for space in self._spaces)

    def representatives(self, degree: int) -> tuple[AlgebraElement, ...]:
        if not 0 <= degree <= self.cutoff:
            raise CutoffExceeded(f"degree {degree} outside table range 0..{self.cutoff}")
        return self._spaces[degree].elements

    def formal_dimension(self) -> int:
        """Top degree with nonzero cohomology inside the table (the unit
        spans degree 0, so there is one)."""
        for n in range(self.cutoff, -1, -1):
            if self.betti[n]:
                return n


def cohomology(a: SullivanAlgebra) -> CohomologyTable:
    return CohomologyTable(a)


def euler_characteristic(betti: Sequence[int]) -> int:
    return sum((-1) ** n * b for n, b in enumerate(betti))


def top_window_vanishes(a: SullivanAlgebra, betti: Sequence[int]) -> bool:
    """Ellipticity proxy: cohomology vanishes in the final window of width
    max-generator-degree below the cutoff."""
    if not a.generators:
        return True
    width = max(g.degree for g in a.generators)
    cutoff = len(betti) - 1
    return all(betti[n] == 0 for n in range(max(0, cutoff - width + 1), cutoff + 1))


def poincare_duality_holds(betti: Sequence[int], fdim: int) -> bool:
    if fdim >= len(betti):
        raise CutoffExceeded("formal dimension beyond the computed range")
    return all(betti[n] == betti[fdim - n] for n in range(fdim + 1)) and all(
        b == 0 for b in betti[fdim + 1 :]
    )


# -- lower grading ----------------------------------------------------


class LowerGradedTable:
    """Splitting of the cohomology of a pure algebra by the odd word
    length of representatives; H_0 is the part hit by the even
    subalgebra.  A read-only view of the strands of a ``CohomologyTable``."""

    def __init__(self, table: CohomologyTable):
        if not table.algebra.is_pure():
            raise NotPure("lower grading is defined for pure algebras only")
        self.table = table
        self.algebra = table.algebra
        self.cutoff = table.cutoff

    def _strands(self, degree: int) -> dict[int, tuple]:
        return self.table._spaces[degree].blocks if 0 <= degree <= self.cutoff else {}

    def dim(self, degree: int, index: int) -> int:
        return len(self._strands(degree).get(index, ()))

    def dims(self, degree: int) -> dict[int, int]:
        return {i: len(reps) for i, reps in self._strands(degree).items() if reps}

    def representatives(self, degree: int, index: int) -> tuple[AlgebraElement, ...]:
        return tuple(_element(self.algebra, v, degree) for v in self._strands(degree).get(index, ()))


def lower_grading(a: SullivanAlgebra) -> LowerGradedTable:
    if not a.is_pure():
        raise NotPure("lower grading is defined for pure algebras only")
    return LowerGradedTable(cohomology(a))


def h0_dims(a: SullivanAlgebra) -> dict[int, int]:
    """dim of the even-subalgebra image in cohomology, per even degree.

    For a pure algebra every even-subalgebra element is closed and the
    image of d inside it is d of the odd-word-length-one strand, so only
    ranks are needed.  This is the independent rank-only reference for
    the index-0 strands of ``LowerGradedTable``; no report calls it.
    """
    if not a.is_pure():
        raise NotPure("even-subalgebra image is computed for pure algebras only")
    dims: dict[int, int] = {}
    for n in range(0, a.cutoff + 1, 2):
        strand0 = [m for m in a._basis(n) if a.odd_word_length(m) == 0]
        below = [m for m in a._basis(n - 1) if a.odd_word_length(m) == 1] if n else []
        rows = _d_rows(a, below, {m: i for i, m in enumerate(strand0)})
        dims[n] = len(strand0) - linalg.rank_rows(rows)
    return dims


def surjectivity_by_parity(f: CdgaMorphism, parity: int) -> tuple[bool, int | None]:
    """Is H^n(f) surjective for every n of the given parity up to the
    smaller cutoff of f's two algebras?

    Returns (verdict, smallest failing degree).  Works by rank counting:
    the classes hit by f span H^n(target) iff the f-images of source
    cocycles together with the target coboundaries span the target
    cocycles.  The integer cocycles are mapped to sparse target rows
    through the morphism's cached monomial images, with no element built.
    """
    target = f.target
    for n in range(parity % 2, min(f.source.cutoff, target.cutoff) + 1, 2):
        target_dim = len(target._basis(n))
        target_rank = linalg.rank_rows(_action_rows(target, n))
        kernel_dim = target_dim - target_rank
        rows = _action_rows(target, n - 1) if n else []
        boundary_rank = linalg.rank_rows(rows)
        if kernel_dim == boundary_rank:
            continue  # H^n(target) = 0
        _, cocycles = _cocycles(_action_rows(f.source, n))
        basis, index = f.source._basis(n), target._basis_index(n)
        for vec in cocycles:
            image = _combination(((basis[p], c) for p, c in vec.items()), f._monomial_terms)
            if image:
                rows.append({index[m]: c for m, c in image.items()})
        if linalg.rank_rows(rows) != kernel_dim:
            return False, n
    return True, None


def even_degree_surjectivity(f: CdgaMorphism) -> tuple[bool, int | None]:
    """True iff H^n(f) is surjective in every even n up to the smaller
    cutoff of f's two algebras; otherwise the smallest even failing
    degree is returned."""
    return surjectivity_by_parity(f, 0)
