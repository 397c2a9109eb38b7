"""Degree-wise cohomology of a Sullivan algebra up to its cutoff.

Cohomology in degree n is ker(d_n)/im(d_{n-1}), computed by exact
elimination over the monomial bases.  Class representatives are chosen
deterministically: kernel bases come from echelon back-substitution and
quotient representatives are picked greedily from the kernel basis in
order, so repeated runs give identical tables.

``CohomologyTable`` eliminates each degree block by block, once.  For
pure algebras the differential drops the odd word length of a monomial
by exactly one, so the cochain complex splits into strands of odd word
length, and these are the blocks; any other algebra has one block per
degree.  The table's strands are the lower grading, with H_0 the part of
cohomology represented by the even subalgebra, which
``LowerGradedTable`` reads without eliminating again.  ``betti_numbers``
and ``h0_dims`` count ranks independently of the table.  Differential
rows are sparse rows ``{position: coefficient}`` read off
``SullivanAlgebra._d_terms`` and reach the elimination kernel as they
are; cocycles and class representatives are primitive ``{position: int}``
vectors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import linalg
from .cdga import AlgebraElement, CdgaMorphism, SullivanAlgebra
from .errors import (
    CutoffExceeded,
    DegreeMismatch,
    InvalidDifferential,
    NotPure,
)
from .linalg import RationalMatrix, SubspaceBasis


def _d_rows(a: SullivanAlgebra, monos, index: dict) -> list[dict]:
    """Rows are the differential images of ``monos`` as sparse rows
    ``{position: coefficient}`` over the monomials of ``index`` (monomial
    -> position), with the nonzero coefficients of ``_d_terms``, all
    ``int`` when the generators' images are integral."""
    return [{index[m]: c for m, c in a._d_terms(mono).items()} for mono in monos]


def _element_row(e: AlgebraElement, index: dict) -> dict:
    """The sparse row ``{index[monomial]: c}`` of ``e``, ``int`` where integral."""
    return {index[m]: c.numerator if c.denominator == 1 else c for m, c in e.terms.items()}


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


def betti_numbers(a: SullivanAlgebra, cutoff: int | None = None) -> tuple[int, ...]:
    """Betti numbers (dim H^n) for n = 0..cutoff, by rank counting only."""
    cutoff = a.cutoff if cutoff is None else cutoff
    if cutoff > a.cutoff:
        raise CutoffExceeded(f"requested degree {cutoff} beyond cutoff {a.cutoff}")
    if not a.verify_d_squared():
        raise InvalidDifferential("differential does not square to zero")
    ranks = [linalg.rank_rows(_action_rows(a, n)) for n in range(cutoff + 1)]
    betti = []
    for n in range(cutoff + 1):
        dim = len(a._basis(n))
        prev = ranks[n - 1] if n else 0
        betti.append(dim - ranks[n] - prev)
    return tuple(betti)


class _DegreeSpace:
    """Class representatives ``reps`` (kernel vectors, by free column)
    and a coboundary basis ``image`` (sparse rows) in one degree, and
    ``blocks``, the representatives of each block by block key."""

    def __init__(self, algebra: SullivanAlgebra, degree: int, blocks: dict, image: tuple):
        self.blocks = blocks
        self.reps = tuple(sorted(chain.from_iterable(blocks.values()), key=max))
        self.image = image
        self.elements = tuple(_element(algebra, v, degree) for v in self.reps)

    @property
    def betti(self) -> int:
        return len(self.reps)

    def class_coordinates(self, vector: Sequence[Fraction]) -> list[Fraction]:
        """Coordinates of a cocycle's class over the scaled representatives."""
        coeffs = linalg.solve(self.reps + self.image, vector)
        if coeffs is None:
            raise DegreeMismatch("vector is not a cocycle of this degree")
        return [c * v[max(v)] for c, v in zip(coeffs, self.reps)]


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

    def __init__(self, algebra: SullivanAlgebra, cutoff: int | None = None):
        cutoff = algebra.cutoff if cutoff is None else cutoff
        if cutoff > algebra.cutoff:
            raise CutoffExceeded(f"requested degree {cutoff} beyond cutoff {algebra.cutoff}")
        if not algebra.verify_d_squared():
            raise InvalidDifferential("differential does not square to zero")
        self.algebra = algebra
        self.cutoff = cutoff
        pure = algebra.is_pure()
        self._spaces = []
        images: dict[int, tuple] = {}  # block key -> coboundaries handed up from below
        for n in range(cutoff + 1):
            rows = _action_rows(algebra, n)
            blocks: dict[int, list[int]] = {}
            for p, mono in enumerate(algebra._basis(n)):
                blocks.setdefault(algebra.odd_word_length(mono) if pure else 0, []).append(p)
            block_reps, next_images = {}, {}
            for i, block in sorted(blocks.items()):
                block_reps[i], next_images[i - 1 if pure else 0] = _classes(
                    rows, block, images.get(i, ())
                )
            image = tuple(chain.from_iterable(images.values()))
            self._spaces.append(_DegreeSpace(algebra, n, block_reps, image))
            images = next_images
        self.betti = tuple(space.betti for space in self._spaces)

    def representatives(self, degree: int) -> tuple[AlgebraElement, ...]:
        return self._space(degree).elements

    def _space(self, degree: int) -> _DegreeSpace:
        if not 0 <= degree <= self.cutoff:
            raise CutoffExceeded(f"degree {degree} outside table range 0..{self.cutoff}")
        return self._spaces[degree]

    def class_coordinates(self, e: AlgebraElement) -> tuple[int, list[Fraction]]:
        """Class of a homogeneous cocycle in the chosen basis of its degree."""
        if e.is_zero:
            raise DegreeMismatch("zero element has no well-defined degree")
        if not e.is_homogeneous:
            raise DegreeMismatch("class operations need a homogeneous element")
        degree = e.degree
        space = self._space(degree)
        return degree, space.class_coordinates(self.algebra.coordinates(e, degree))

    def formal_dimension(self) -> int | None:
        """Top degree with nonzero cohomology inside the table."""
        for n in range(self.cutoff, -1, -1):
            if self.betti[n]:
                return n
        return None


def cohomology(a: SullivanAlgebra, cutoff: int | None = None) -> CohomologyTable:
    return CohomologyTable(a, cutoff)


def euler_characteristic(t: CohomologyTable | Sequence[int]) -> int:
    betti = t.betti if isinstance(t, CohomologyTable) else t
    return sum((-1) ** n * b for n, b in enumerate(betti))


def cup_product(t: CohomologyTable, c1: AlgebraElement, c2: AlgebraElement) -> list[Fraction]:
    """Product of two classes (given by representatives), expressed in the
    class basis of the sum degree."""
    for c in (c1, c2):
        if c.is_zero or not c.is_homogeneous:
            raise DegreeMismatch("cup product needs homogeneous nonzero representatives")
    total = c1.degree + c2.degree
    if total > t.cutoff:
        raise CutoffExceeded(f"product degree {total} beyond table cutoff {t.cutoff}")
    product = t.algebra.multiply(c1, c2)
    if product.is_zero:
        return [Fraction(0)] * t.betti[total]
    _, coords = t.class_coordinates(product)
    return coords


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

    def total_dims(self) -> tuple[int, ...]:
        return self.table.betti


def lower_grading(a: SullivanAlgebra, cutoff: int | None = None) -> LowerGradedTable:
    if not a.is_pure():
        raise NotPure("lower grading is defined for pure algebras only")
    return LowerGradedTable(cohomology(a, cutoff))


def h0_dims(a: SullivanAlgebra, cutoff: int | None = None) -> dict[int, int]:
    """dim of the even-subalgebra image in cohomology, per even degree.

    For a pure algebra every even-subalgebra element is closed and the
    image of d inside it is d of the odd-word-length-one strand, so only
    ranks are needed.  This is the independent rank-only reference for
    the index-0 strands of ``LowerGradedTable``; no report calls it.
    """
    if not a.is_pure():
        raise NotPure("even-subalgebra image is computed for pure algebras only")
    cutoff = a.cutoff if cutoff is None else cutoff
    dims: dict[int, int] = {}
    for n in range(0, cutoff + 1, 2):
        strand0 = [m for m in a._basis(n) if a.odd_word_length(m) == 0]
        below = [m for m in a._basis(n - 1) if a.odd_word_length(m) == 1] if n else []
        rows = _d_rows(a, below, {m: i for i, m in enumerate(strand0)})
        dims[n] = len(strand0) - linalg.rank_rows(rows)
    return dims


def h0_image(a: SullivanAlgebra, table: CohomologyTable | None = None) -> dict[int, SubspaceBasis]:
    """Subspace of each even-degree cohomology spanned by classes of
    even-subalgebra cocycles, in class coordinates, given by an echelon
    basis of that span (the rows of ``linalg.ff_row_echelon``)."""
    if not a.is_pure():
        raise NotPure("even-subalgebra image is computed for pure algebras only")
    table = table or cohomology(a)
    out: dict[int, SubspaceBasis] = {}
    for n in range(0, table.cutoff + 1, 2):
        space = table._space(n)
        vectors = []
        for mono in a._basis(n):
            if a.odd_word_length(mono):
                continue
            vec = a.coordinates(a.monomial_element(mono), n)
            vectors.append(space.class_coordinates(vec))
        echelon, _ = linalg._echelon(vectors)
        out[n] = SubspaceBasis.from_vectors(
            space.betti, ([row.get(j, 0) for j in range(space.betti)] for row in echelon)
        )
    return out


# -- induced maps ------------------------------------------------------


def induced_map(
    f: CdgaMorphism,
    cutoff: int | None = None,
    source_table: CohomologyTable | None = None,
    target_table: CohomologyTable | None = None,
) -> dict[int, RationalMatrix]:
    """Matrices of H^n(f) in the chosen class bases, one per degree."""
    if cutoff is None:
        cutoff = min(f.source.cutoff, f.target.cutoff)
    source_table = source_table or cohomology(f.source, cutoff)
    target_table = target_table or cohomology(f.target, cutoff)
    matrices = {}
    for n in range(cutoff + 1):
        target_space = target_table._space(n)
        columns = []
        for rep in source_table.representatives(n):
            image = f.apply(rep)
            if image.is_zero:
                columns.append([Fraction(0)] * target_space.betti)
            else:
                columns.append(target_space.class_coordinates(f.target.coordinates(image, n)))
        rows = tuple(zip(*columns)) if columns else ()
        matrices[n] = RationalMatrix.from_rows(
            rows if rows else [[] for _ in range(target_space.betti)]
        )
    return matrices


def surjectivity_by_parity(
    f: CdgaMorphism, parity: int, cutoff: int | None = None
) -> tuple[bool, int | None]:
    """Is H^n(f) surjective for every n of the given parity up to cutoff?

    Returns (verdict, smallest failing degree).  Works by rank counting:
    the classes hit by f span H^n(target) iff the f-images of source
    cocycles together with the target coboundaries span the target
    cocycles.
    """
    if cutoff is None:
        cutoff = min(f.source.cutoff, f.target.cutoff)
    if cutoff > min(f.source.cutoff, f.target.cutoff):
        raise CutoffExceeded("cutoff beyond one of the morphism's algebras")
    target = f.target
    for n in range(parity % 2, cutoff + 1, 2):
        target_dim = len(target._basis(n))
        target_rank = linalg.rank_rows(_action_rows(target, n))
        kernel_dim = target_dim - target_rank
        rows = _action_rows(target, n - 1) if n else []
        boundary_rank = linalg.rank_rows(rows)
        if kernel_dim == boundary_rank:
            continue  # H^n(target) = 0
        _, cocycles = _cocycles(_action_rows(f.source, n))
        for vec in cocycles:
            image = f.apply(f.source.element_from_coordinates(vec, n))
            if not image.is_zero:
                rows.append(_element_row(image, target._basis_index(n)))
        if linalg.rank_rows(rows) != kernel_dim:
            return False, n
    return True, None


def even_degree_surjectivity(f: CdgaMorphism, cutoff: int | None = None) -> tuple[bool, int | None]:
    """True iff H^n(f) is surjective in every even n up to cutoff;
    otherwise the smallest even failing degree is returned."""
    return surjectivity_by_parity(f, 0, cutoff)
