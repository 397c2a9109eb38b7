"""The Macaulay route to the ideal (f_j) of ΛQ, as an independent
reference for the Gröbner basis that ``cohomology._Ideal`` builds.

This is the elimination the helper ran per even degree before it kept a
basis: the rows f_j m of degree k, for the monomials m of ΛQ of degree
k - |y_j| - 1, the products (m != 1) first, then the bare f_j, each bare
f_j with a column of its own, its tag, set to 1 in its row alone.  A
column key is a packed monomial negated, all <= 0, and the tags are
positive, so ``ff_row_echelon``, whose pivot columns are the first
independent columns from left to right, names the same monomial pivots
as with no tags, and each tag pivot is a bare f_j in the span of the
products and the bare f_j before it.  The monomials that pivots name
are the lex leading monomials of the ideal in degree k, and μ_k, the
number of bare f_j independent of the products and of each other, is
the number of bare f_j less the number of tag pivots.

ΛQ is built as the helper builds it (the even generators in reverse
order, cut off at the helper's ``top``), so both name a monomial by the
same packed int.
"""

from bisect import bisect_right

from sullivan import linalg
from sullivan.cdga import SullivanAlgebra
from sullivan.cohomology import _formal_dimension


class MacaulayIdeal:
    def __init__(self, a: SullivanAlgebra):
        evens = [i for i, g in enumerate(a.generators) if not g.is_odd][::-1]
        w_q = max((a.generators[i].degree for i in evens), default=0)
        self.top = max(_formal_dimension(a) + w_q, *(g.degree + 1 for g in a.generators if g.is_odd), 0)
        self.ring = q = SullivanAlgebra([a.generators[i] for i in evens], self.top)
        self.relations = []  # (|y_j| + 1, the negated packed terms of f_j)
        for g, image in zip(a.generators, a._images):
            f = [(-q._pack(map(m.__getitem__, evens)), c) for m, mask, c in image if not mask]
            if g.is_odd and f:
                self.relations.append((g.degree + 1, f))

    def degree(self, k: int) -> tuple[list[int], int]:
        """The monomial pivots of ΛQ^k, negated packed monomials in
        increasing order, and μ_k, from the degree's one elimination."""
        rows = [{t - p: c for t, c in f} for d, f in self.relations if d < k for p in self.ring._monomials(k - d)]
        bare = [{**dict(f), tag: 1} for tag, (d, f) in enumerate(self.relations, 1) if d == k]
        _, pivots = linalg._echelon(rows + bare)
        monomial = bisect_right(pivots, 0)  # the tags follow
        return pivots[:monomial], len(bare) - len(pivots) + monomial
