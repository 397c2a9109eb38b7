"""Degree-wise cohomology of a Sullivan algebra up to its cutoff.

Cohomology in degree n is ker(d_n)/im(d_{n-1}), computed by exact
elimination over the monomial bases.  Class representatives are chosen
deterministically: each is the back-substituted kernel vector of a free
column of its block's echelon that no coboundary ends on, which is the
complement of the coboundaries that a greedy pass over the kernel basis
in order would pick, so repeated runs give identical tables.

Every function here runs to the algebra's cutoff, and one on a map to
the smaller cutoff of its two sides, so ``SullivanAlgebra.with_cutoff``
is how to stop lower, with one exception, the H_0 rule.  Write ΛV =
ΛQ ⊗ ΛP for the even generators x_i and the odd ones y_j, f_j for the
part of d y_j in ΛQ (its terms with no odd factor), N for the formal
dimension and w_Q for the largest even generator degree.  The pure
algebra (ΛV, d_σ), with d_σ x_i = 0 and d_σ y_j = f_j, is the
associated pure algebra of (ΛV, d), and (ΛV, d) itself when that is
pure; its H_0 is ΛQ/(f_j).  Suppose N >= 0 and the ideal (f_j) is all
of ΛQ^n for every n in N + 1..N + w_Q.  Every monomial of ΛQ above
N + w_Q is some x_i times one above N, so (f_j) holds all of ΛQ above
N and H_0 is finite; each H_k of d_σ is a finitely generated
ΛQ-module annihilated by (f_j), so H(ΛV, d_σ) is finite too
(Halperin), and H^n(ΛV, d_σ) = 0 for every n > N.  Then H^n(ΛV, d) = 0
for every n > N as well.  Filter ΛV by degree plus odd word length.  On
generators d changes the odd word length by -1, which is d_σ, or by an
odd number >= 1, so d keeps the filtration and d_σ is its associated
graded differential.  In each degree the filtration is finite, so its
spectral sequence has E_1 = H(ΛV, d_σ) and converges to H(ΛV, d)
(Halperin; Félix–Halperin–Thomas §32), with no minimality needed.
``_elliptic`` decides the ideal question from the generator degrees
and the f_j alone, whatever the algebra's cutoff, by reading the
window's even degrees from ``_Ideal``, the one helper of ΛQ per algebra
(kept in ``SullivanAlgebra._ideal`` and shared by its copies), which
eliminates the rows f_j m of each even degree at most once and keeps
the answer.

How far a table runs.  A pure algebra with χ_π = 0 (as many odd
generators as even) that passes the H_0 rule, cut off at N or above,
has H = H_0 = ΛQ/(f_j), all in even degrees: its cohomology is finite,
so the f_j are a regular sequence (Halperin; Félix–Halperin–Thomas
§32).  Its table is read from ΛQ alone by ``_h0_blocks``, which asks
the rule and then reads degrees 0..N from the same helper.  Any
other table walks ΛV: cut off above N it asks the rule first and, if
the answer is yes, stops at N, with its degrees above empty; otherwise
it runs to the cutoff.  The direct check asks the rule only once its
walk has finished the last degree at most N of a parity it checks, and
if the answer is yes stops there.  ``betti_numbers``, ``h0_dims`` and
the direct check read no table, and the two references always run to
the cutoff.

Walking ΛV, ``CohomologyTable`` eliminates each degree block by block,
once.  For pure algebras the differential drops the odd word length of
a monomial by exactly one, so the cochain complex splits into strands of
odd word length, and these are the blocks; any other algebra has one
block per degree.  The odd word length of a packed monomial p is
``(p & _odd_bits).bit_count()``, the one rule by which the table and
``h0_dims`` read strands.  The table's strands are the lower grading,
which ``LowerGradedTable`` reads without eliminating again; its
index-0 strand H_0 is the image of the even subalgebra in cohomology.
The formality count of ``criteria`` reads the shares μ_k that the
helper ``_Ideal`` keeps, not the strands.  Parity-wise surjectivity of a
morphism, by rank counting, completes the module: the direct check
``surjectivity_by_parity``, for any morphism and any target.  No report
calls it.  A report's verdict reads the strands of the space's table
instead (``criteria._space_verdict``), since the image of the
Borel model there is H_0; the direct check is the reference that reading
is tested against, and it serves the callers of
``even_degree_surjectivity`` and targets that are not pure.
``betti_numbers`` and ``h0_dims`` count ranks independently of the
table.  Both ``betti_numbers`` and the direct check read one chain of
eliminations, ``_echelons``, which clears: a degree's d rows are built
only for the monomials whose positions are not pivot columns of the
degree below, which together with the coboundaries, where d vanishes,
span the degree.
The direct check decides every parity it is asked in one walk of the
target's chain, and each degree it checks with one elimination: the
rows ``(d m | f(m))`` of the source monomials, source columns first,
with the target's coboundaries, so no source cocycle is built.
Differential rows are sparse rows ``{position: coefficient}``, built by
``SullivanAlgebra._d_rows`` in one pass over a degree's packed
monomials against the next degree's ``{packed monomial: position}``
index, and reach the elimination kernel as they are; a table keeps its
class representatives as primitive ``{exponent tuple: int}`` vectors.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Sequence

from . import linalg
from .cdga import AlgebraElement, CdgaMorphism, SullivanAlgebra
from .errors import CutoffExceeded, NotASubspace, NotPure


def _action_rows(a: SullivanAlgebra, degree: int) -> list[dict]:
    """Rows are the differential images of the degree-basis monomials,
    written over the (degree+1) basis, all ``int`` when the generators'
    images are integral."""
    a._fit(degree + 1)
    return a._d_rows(a._positions(degree), a._positions(degree + 1))


def _classes(rows: list, block: list[int], image: tuple) -> tuple[tuple, tuple]:
    """Class representatives of one block of a cochain space and the
    coboundaries that the block hands to the next space.

    ``rows`` are the d-images of the space's basis vectors over the next
    space's basis, ``block`` the positions of the block's basis vectors
    and ``image`` a basis of the block's coboundaries.  One elimination
    of the block's rows, with a column per basis vector, serves both
    spaces.  Its kernel vector of free column f is 1 at f and 0 at every
    other free column, so a coboundary's free coordinates are its entries
    there.  The greedy complement of ``image`` in the kernel basis skips
    exactly the free columns that are the last nonzero free coordinate
    of some coboundary, the pivots of those coordinates eliminated with
    the column order reversed; only the other free columns are
    back-substituted, one per class, and written over the space's basis
    positions.  The d-images of the pivot basis vectors are a basis of
    the next space's coboundaries that the block hits.  NotASubspace is
    raised if a coboundary is not a cocycle of the block or the
    coboundaries are dependent.
    """
    echelon, pivots = linalg._echelon(linalg._transpose([rows[p] for p in block]))
    local = {p: j for j, p in enumerate(block)}
    pivot_set = set(pivots)
    last = len(block) - 1
    projected = []
    for w in image:
        d_w: dict[int, int] = {}
        for p, x in w.items():
            for k, y in rows[p].items():
                d_w[k] = d_w.get(k, 0) + x * y
        if any(d_w.values()) or not w.keys() <= local.keys():
            raise NotASubspace("coboundary is not a cocycle of the block")
        projected.append({last - local[p]: x for p, x in w.items() if local[p] not in pivot_set})
    _, ends = linalg._echelon(projected)
    if len(ends) != len(image):
        raise NotASubspace("coboundaries are dependent")
    taken = pivot_set.union(last - k for k in ends)
    reps = []
    for f in range(len(block)):
        if f not in taken:
            v = {f: 1}
            linalg._back_substitute(echelon, pivots, v)
            reps.append({block[j]: x for j, x in v.items()})
    return tuple(reps), tuple(rows[block[c]] for c in pivots)


def _element(a: SullivanAlgebra, v: dict) -> AlgebraElement:
    """The element of a representative scaled to 1 at its free column."""
    return AlgebraElement(a, linalg._unit_scaled(v))


def _formal_dimension(a: SullivanAlgebra) -> int:
    """The formal dimension of a pure algebra with finite-dimensional
    cohomology: the sum of the odd degrees minus the sum of the even
    degrees less one."""
    return sum(g.degree if g.is_odd else 1 - g.degree for g in a.generators)


class _Ideal:
    """ΛQ, the even generators with no differential, and the ideal (f_j)
    of ``a``, f_j the part of d y_j with no odd factor, for the H_0 rule,
    the ΛQ route of the table and the formality count alike.  ``degree``
    eliminates an even degree k when first asked and keeps its answer in
    ``kept``, so each degree is eliminated at most once per algebra and
    its copies, which share this helper (``_ideal``).

    The rows of degree k span the ideal there: f_j m for the monomials m
    of ΛQ of degree k - |y_j| - 1, the products (m != 1) first, then the
    bare f_j, which are the d_σ images of the strand-1 monomials y_j m of
    degree k - 1.  Each bare f_j has a column of its own, its tag, set
    to 1 in its row alone.  A column key is a packed monomial negated,
    all <= 0, and the tags are positive, so ``ff_row_echelon``, whose
    pivot columns are the first independent columns from left to right,
    names the same monomial pivots as with no tags, and each tag pivot is
    a bare f_j in the span of the products and the bare f_j before it.
    The monomials that pivots name are the lex leading monomials of the
    ideal in degree k, the others its standard monomials, and μ_k, the
    number of bare f_j independent of the products and of each other, is
    the number of bare f_j less the number of tag pivots.  Each degree
    keeps its monomial pivots and μ_k.

    ΛQ is cut off at the last degree any caller reads, N + w_Q for the
    formal dimension N or the largest |y_j| + 1; its generators run in
    reverse order, so a degree's packed monomials sort as their exponent
    tuples over ``a``, the order of ``a``'s strand-0 basis, and its
    negated keys give ``ff_row_echelon`` the columns in reverse basis
    order.  Neither ``a``'s bases nor its associated pure algebra are
    read."""

    def __init__(self, a: SullivanAlgebra):
        evens = [i for i, g in enumerate(a.generators) if not g.is_odd][::-1]
        w_q = max((a.generators[i].degree for i in evens), default=0)
        top = max(_formal_dimension(a) + w_q, *(g.degree + 1 for g in a.generators if g.is_odd), 0)
        self.ring = q = SullivanAlgebra([a.generators[i] for i in evens], top)
        self.relations = []  # (|y_j| + 1, the negated packed terms of f_j)
        for g, image in zip(a.generators, a._images):
            f = [(-q._pack(map(m.__getitem__, evens)), c) for m, mask, c in image if not mask]
            if g.is_odd and f:
                self.relations.append((g.degree + 1, f))
        self.kept: dict[int, tuple[list[int], int]] = {}

    def degree(self, k: int) -> tuple[list[int], int]:
        """The monomial pivots of ΛQ^k, negated packed monomials in
        increasing order, and μ_k, from the degree's one elimination."""
        if k not in self.kept:
            rows = [{t - p: c for t, c in f} for d, f in self.relations if d < k for p in self.ring._monomials(k - d)]
            bare = [{**dict(f), tag: 1} for tag, (d, f) in enumerate(self.relations, 1) if d == k]
            _, pivots = linalg._echelon(rows + bare)
            monomial = bisect_right(pivots, 0)  # the tags follow
            self.kept[k] = pivots[:monomial], len(bare) - len(pivots) + monomial
        return self.kept[k]

    def fills(self, k: int) -> bool:
        """Whether the ideal is all of ΛQ^k: pivots name every monomial."""
        return len(self.degree(k)[0]) == len(self.ring._monomials(k))


def _ideal(a: SullivanAlgebra) -> _Ideal:
    """The helper of ``a``'s ΛQ, built when first asked and kept in the
    slot ``a._ideal``, which the copies with the same f_j share."""
    if not a._ideal:
        a._ideal.append(_Ideal(a))
    return a._ideal[0]


def _window(a: SullivanAlgebra, n: int) -> range:
    """The even degrees of n + 1..n + w_Q, for w_Q the largest even
    generator degree (0 if there is none)."""
    return range(n + 2 - n % 2, n + max((g.degree for g in a.generators if not g.is_odd), default=0) + 1, 2)


def _elliptic(a: SullivanAlgebra) -> bool:
    """Whether the formal dimension N is >= 0 and the ideal (f_j) is all
    of ΛQ^n for every n in N + 1..N + w_Q (``_Ideal.fills``); then
    H^n(a) = 0 for every n > N (module docstring).  The window degrees
    are read in order up to the first that falls short, after which
    ``_h0_blocks`` eliminates nothing, and no ΛQ is built when N < 0.  It
    reads the generator degrees and the f_j only, so ``a``'s cutoff
    plays no part, and the degrees are kept, so asking again eliminates
    nothing."""
    n = _formal_dimension(a)
    return n >= 0 and all(_ideal(a).fills(k) for k in _window(a, n))


def _h0_blocks(a: SullivanAlgebra) -> list[dict[int, tuple]] | None:
    """The table's blocks in degrees 0..N, read from ΛQ, when ``a`` is
    pure, χ_π = 0, 0 <= N <= cutoff and ``a`` passes the H_0 rule;
    otherwise None.

    In the ΛV walk an even degree k's strand-0 block has no d rows, so
    its classes are the unit vectors of the monomials whose reversed
    columns are not pivots of the coboundaries f_j m = d_σ(y_j m)
    handed up to it, and no other strand has a class.  Those are the
    rows of ``_Ideal``, and pivots depend only on the span, so the
    classes are the standard monomials of ΛQ^k, padded with zero odd
    exponents.  The rule is asked first, so an algebra that fails it
    eliminates no degree up to N."""
    n = _formal_dimension(a)
    if not (a.is_pure() and a.homotopy_euler_characteristic() == 0 and 0 <= n <= a.cutoff and _elliptic(a)):
        return None
    ideal = _ideal(a)
    blocks: list[dict[int, tuple]] = []
    for k in range(0, n + 1, 2):
        leading, reps = {-c for c in ideal.degree(k)[0]}, []
        for p in ideal.ring._monomials(k):
            if p not in leading:
                exponents = reversed(ideal.ring._unpack(p))
                reps.append({tuple(0 if g.is_odd else next(exponents) for g in a.generators): 1})
        blocks += [{0: tuple(reps)}, {}]
    return blocks[: n + 1]


def _echelons(a: SullivanAlgebra, top: int):
    """Yield ``(echelon, pivots)`` of d_n for n = 0..top in increasing
    degree, with d_n's rows built only for the degree-n monomials whose
    positions are not pivots of d_{n-1} (clearing).

    The ranks stay exact.  The echelon rows of d_{n-1} are a basis of
    the coboundaries B^n, and their pivot columns P are as many; a
    nonzero vector of B^n has its leading entry at a pivot column, so
    B^n meets the span of the unit vectors e_j, j not in P, in zero,
    and by dimension those unit vectors span a complement of B^n.  d_n
    vanishes on B^n (d² = 0 is checked when the algebra is built), so
    their d rows span the image of d_n.  ``ff_row_echelon``'s pivot
    columns depend only on that span, so every degree's pivots, and the
    columns cleared one degree up, are those of its full elimination."""
    cleared: set[int] = set()
    for n in range(top + 1):
        a._fit(n + 1)
        monos = [p for j, p in enumerate(a._monomials(n)) if j not in cleared]
        echelon, pivots = linalg._echelon(a._d_rows(monos, a._positions(n + 1)))
        yield echelon, pivots
        cleared = set(pivots)


def betti_numbers(a: SullivanAlgebra) -> tuple[int, ...]:
    """Betti numbers (dim H^n) for n = 0..cutoff, by rank counting only:
    dim C^n less the pivots of d_n and of d_{n-1}.  They are read off
    the cleared chain ``_echelons``, which builds d_n's rows only for the
    monomials that are not pivot columns of d_{n-1}, and which the
    direct check ``surjectivity_by_parity`` reads too."""
    betti, below = [], 0
    for n, (_, pivots) in enumerate(_echelons(a, a.cutoff)):
        betti.append(len(a._positions(n)) - len(pivots) - below)
        below = len(pivots)
    return tuple(betti)


def _strand_blocks(a: SullivanAlgebra) -> list[dict[int, tuple]]:
    """The table's blocks in ΛV, each degree eliminated block by block,
    through the formal dimension N if ``a`` is cut off above it and
    passes the H_0 rule, and otherwise through the cutoff.  Each
    representative is written over the exponent tuples of its monomials."""
    formal = _formal_dimension(a)
    top = formal if formal < a.cutoff and _elliptic(a) else a.cutoff
    odd = a._odd_bits if a.is_pure() else 0  # one block per degree if not pure
    blocks_by_degree: list[dict[int, tuple]] = []
    images: dict[int, tuple] = {}  # block key -> coboundaries handed up from below
    for n in range(top + 1):
        rows = _action_rows(a, n)
        monos = a._monomials(n)
        blocks: dict[int, list[int]] = {}
        for j, p in enumerate(monos):
            blocks.setdefault((p & odd).bit_count(), []).append(j)
        block_reps, next_images = {}, {}
        for i, block in sorted(blocks.items()):
            reps, next_images[i - 1 if odd else 0] = _classes(rows, block, images.get(i, ()))
            block_reps[i] = tuple({a._unpack(monos[p]): x for p, x in v.items()} for v in reps)
        blocks_by_degree.append(block_reps)
        images = next_images
    return blocks_by_degree


class CohomologyTable:
    """Per-degree bases of cohomology classes with explicit representatives.

    A pure algebra with χ_π = 0 and formal dimension N <= cutoff that
    passes the H_0 rule has H = H_0 = ΛQ/(f_j), all in even degrees
    (module docstring): its table is read from ΛQ by ``_h0_blocks``, and
    no degree of ΛV is enumerated.  Every other table, and every cutoff
    below N, is eliminated in ΛV by ``_strand_blocks``, degree by degree
    and block by block.  The blocks of a pure algebra are its strands of
    odd word length i, which d maps to strand i - 1 of the next degree;
    the odd word length of a packed monomial is the number of its odd
    fields set.  Any other algebra has one block, key 0, per degree.
    The strands' column spaces are independent, so a degree's pivots,
    kernel vectors and classes are those of its blocks embedded with
    zeros, and its representatives are theirs in the order of their free
    columns.

    ``_blocks`` holds each degree's representatives by block key as
    primitive ``{exponent tuple: int}`` vectors on both routes; the ΛQ
    route gives block 0 of each even degree the unit vectors of its
    classes.  The Betti numbers are read from it, and the elements are
    built when asked.  The monomial basis runs in lexicographic exponent
    order, so a vector's free column is its largest key.
    """

    def __init__(self, algebra: SullivanAlgebra):
        self.algebra = algebra
        self.cutoff = algebra.cutoff
        blocks = _h0_blocks(algebra)
        self._blocks = _strand_blocks(algebra) if blocks is None else blocks
        self._blocks += [{} for _ in range(len(self._blocks), self.cutoff + 1)]
        self.betti = tuple(sum(map(len, blocks.values())) for blocks in self._blocks)

    def _ordered(self, degree: int) -> list[dict]:
        """The degree's representatives by free column, their largest key."""
        return sorted(chain.from_iterable(self._blocks[degree].values()), key=max)

    def representatives(self, degree: int) -> tuple[AlgebraElement, ...]:
        if not 0 <= degree <= self.cutoff:
            raise CutoffExceeded(f"degree {degree} outside table range 0..{self.cutoff}")
        return tuple(_element(self.algebra, v) for v in self._ordered(degree))

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
        return self.table._blocks[degree] if 0 <= degree <= self.cutoff else {}

    def dim(self, degree: int, index: int) -> int:
        return len(self._strands(degree).get(index, ()))

    def dims(self, degree: int) -> dict[int, int]:
        return {i: len(reps) for i, reps in self._strands(degree).items() if reps}

    def representatives(self, degree: int, index: int) -> tuple[AlgebraElement, ...]:
        return tuple(_element(self.algebra, v) for v in self._strands(degree).get(index, ()))


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
    odd = a._odd_bits
    for n in range(0, a.cutoff + 1, 2):
        strand0 = [p for p in a._positions(n) if not p & odd]
        below = [p for p in a._positions(n - 1) if (p & odd).bit_count() == 1] if n else []
        rows = a._d_rows(below, {p: i for i, p in enumerate(strand0)})
        dims[n] = len(strand0) - linalg.rank_rows(rows)
    return dims


def surjectivity_by_parity(
    f: CdgaMorphism, parities: tuple[int, ...]
) -> tuple[tuple[bool, int | None], ...]:
    """Is H^n(f) surjective for every n of each asked parity (0 even, 1
    odd) up to the smaller cutoff of f's two algebras?

    Returns one (verdict, smallest failing degree) per parity of
    ``parities``, in order.  Works by rank counting: the classes hit by
    f span H^n(target) iff f(Z^n) + B^n, the f-images of the source
    cocycles plus the target coboundaries, is all of Z^n(target).  The
    target's ranks come from one walk of the cleared chain ``_echelons``
    that ``betti_numbers`` reads, which builds d_n's rows only for the
    monomials that are not pivot columns of d_{n-1}: the cocycles number
    dim C^n less the pivots of d_n, and d_{n-1}'s echelon rows are a
    basis of B^n.  No source cocycle is built.  One elimination per
    checked degree takes a row ``(d m | f(m))`` per source monomial m,
    its source columns keyed ``~k`` for source position k so that they
    sort first, and the rows ``(0 | b)`` of the coboundary basis.  The
    row space meets the target columns alone in f(Z^n) + B^n, and the
    echelon rows led by a target column are a basis of that meet (block
    elimination, as in Zassenhaus' sum-and-intersection algorithm), so
    H^n(f) is onto iff they number dim Z^n(target).  A degree is checked
    only while its parity is asked and has not failed, and the walk
    stops once every asked parity has failed; with one parity asked it
    stops at the last degree of that parity.  The H_0 rule (module
    docstring) is asked only when the walk has finished the last degree
    at most the target's formal dimension N of an asked parity and would
    go on; if it shows H^n(target) = 0 for every n > N, the walk stops
    there.  A walk whose asked parities all fail at or below N never
    asks it.
    """
    source, target = f.source, f.target
    cutoff = min(source.cutoff, target.cutoff)
    formal = _formal_dimension(target)
    # The last degree of an asked parity at most the cutoff, where the
    # chain stops, and at most N, after which the H_0 rule is asked.
    top, ask = (max(d - (d - p) % 2 for p in parities) for d in (cutoff, formal))
    failing: dict[int, int] = {}  # parity -> its smallest failing degree
    below: list[dict] = []
    chain = _echelons(target, top)
    for n in range(top + 1):
        if n == ask + 1 and _elliptic(target):
            break  # H^n(target) = 0 for every n > N
        target_echelon, target_pivots = next(chain)
        boundaries, below = below, target_echelon  # d_{n-1}'s echelon, a basis of B^n
        index = target._positions(n)
        kernel_dim = len(index) - len(target_pivots)
        if kernel_dim == len(boundaries):
            continue  # H^n(target) = 0
        if n % 2 not in parities or n % 2 in failing:
            continue
        rows = list(boundaries)
        for p, d_row in zip(source._monomials(n), _action_rows(source, n)):
            row = {~k: c for k, c in d_row.items()}  # source columns sort first
            image = f._monomial_terms(source._unpack(p))
            row.update((index[target._pack(m)], c) for m, c in image.items())
            rows.append(row)
        _, pivots = linalg._echelon(rows)
        if sum(c >= 0 for c in pivots) != kernel_dim:
            failing[n % 2] = n
            if failing.keys() >= set(parities):
                break
    return tuple((p not in failing, failing.get(p)) for p in parities)


def even_degree_surjectivity(f: CdgaMorphism) -> tuple[bool, int | None]:
    """True iff H^n(f) is surjective in every even n up to the smaller
    cutoff of f's two algebras; otherwise the smallest even failing
    degree is returned."""
    return surjectivity_by_parity(f, (0,))[0]
