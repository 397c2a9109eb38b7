"""Decision layer: rank criteria cross-validated against direct
cohomological computation.

Every verdict carries both the rank-formula answer and the outcome of
the honest linear-algebra check on the Borel morphism; when the
governing hypotheses hold the two must agree, and a disagreement raises
CriterionDisagreement rather than being reconciled.  A disagreement that
the input explains is a validation error instead: a direct check cut off
below the model's formal dimension, or maps whose model has
infinite-dimensional cohomology (they define no compact quotient).  Such
maps are also rejected by ``space_table`` when the two checks agree but
the space's table reaches the formal dimension and fails Poincaré
duality there.

``pair_analysis`` and ``cohomogeneity_one_analysis`` build a space's
Borel package once and return it with its verdict, so a report reads the
space's cohomology table from the same model; the Euler relations of a
diagram take the manifold's table rather than rebuilding its model.  A
verdict decides the even and the odd direct check, the K^0 and K^1
forgetful questions, in one call of ``surjectivity_by_parity``, which
walks the space model's cleared chain once.
"""

from __future__ import annotations

from typing import NamedTuple

from . import cohomology as ch
from . import linalg
from .cdga import CdgaMorphism, Generator, SullivanAlgebra
from .errors import (
    CriterionDisagreement,
    CutoffExceeded,
    DisconnectedGroup,
    NotElliptic,
    NotPure,
)
from .models import (
    BorelPackage,
    GroupData,
    GroupDiagram,
    RestrictionMap,
    biquotient_model,  # noqa: F401  (perfbench/tracer.py patches it here)
    borel_model_cohomogeneity_one,
    borel_model_homogeneous,
    classifying_space_model,  # noqa: F401  (perfbench/tracer.py patches it here)
    cohomogeneity_one_model,  # noqa: F401  (perfbench/tracer.py patches it here)
    orbit_models,
)

CITATION_HOMOGENEOUS = (
    "rank-gap-at-most-one criterion for even-degree equivariant surjectivity "
    "(homogeneous spaces)"
)
CITATION_BIQUOTIENT = (
    "rank-gap-at-most-one criterion for even-degree equivariant surjectivity "
    "(biquotients)"
)
CITATION_COHO1 = (
    "rank-gap-at-most-one criterion for even-degree equivariant surjectivity "
    "(cohomogeneity one, odd-dimensional sphere fibres)"
)
CITATION_H0 = (
    "even-subalgebra cohomology fills all even degrees iff the homotopy Euler "
    "characteristic is at most one (pure elliptic algebras)"
)
CITATION_EULER = "Euler characteristic additivity over the orbit decomposition"

_NO_QUOTIENT = (
    "the model's cohomology is infinite-dimensional, so the given maps define no compact quotient"
)


class SurjectivityVerdict(NamedTuple):
    """Outcome of one surjectivity question, decided twice."""

    context: str
    rank_gap: int
    chi_pi: int
    rank_criterion: bool
    direct_check: bool
    first_failing_degree: int | None
    odd_direct_check: bool
    odd_first_failing_degree: int | None
    hypotheses_hold: bool = True
    cutoff: int = 0
    citation: str = ""


class FormalityVerdict(NamedTuple):
    """Splitting invariants of a pure elliptic algebra: the number of
    free odd generators that split off and the minimal number of
    generators of the relation ideal."""

    split_k: int
    minimal_generators_mu: int
    formal: bool


def _reconcile(verdict: SurjectivityVerdict) -> SurjectivityVerdict:
    if verdict.hypotheses_hold and verdict.rank_criterion != verdict.direct_check:
        raise CriterionDisagreement(
            f"{verdict.context}: rank criterion says {verdict.rank_criterion} but the "
            f"direct check says {verdict.direct_check} (first failing degree "
            f"{verdict.first_failing_degree})"
        )
    return verdict


def _verdict_from_package(
    package: BorelPackage,
    context: str,
    rank_gap: int,
    hypotheses_hold: bool,
    citation: str,
) -> SurjectivityVerdict:
    cutoff = package.space.cutoff
    (direct, failing), (odd_direct, odd_failing) = ch.surjectivity_by_parity(package.forgetful, (0, 1))
    if hypotheses_hold and direct != (rank_gap <= 1):
        top = _formal_dimension(package.space)
        if direct and cutoff < top:
            raise CutoffExceeded(
                f"{context}: cutoff {cutoff} is below the formal dimension {top}, "
                "so the direct check cannot confirm surjectivity"
            )
        if not _elliptic(package.space, top):
            raise NotElliptic(f"{context}: {_NO_QUOTIENT}")
    return _reconcile(
        SurjectivityVerdict(
            context=context,
            rank_gap=rank_gap,
            chi_pi=package.space.homotopy_euler_characteristic(),
            rank_criterion=rank_gap <= 1,
            direct_check=direct,
            first_failing_degree=failing,
            odd_direct_check=odd_direct,
            odd_first_failing_degree=odd_failing,
            hypotheses_hold=hypotheses_hold,
            cutoff=cutoff,
            citation=citation,
        )
    )


def _formal_dimension(a: SullivanAlgebra) -> int:
    """The formal dimension of a pure algebra with finite-dimensional
    cohomology: the sum of the odd degrees minus the sum of the even
    degrees less one."""
    return sum(g.degree if g.is_odd else 1 - g.degree for g in a.generators)


def _elliptic(a: SullivanAlgebra, top: int) -> bool:
    """Whether a pure algebra of formal dimension ``top`` has
    finite-dimensional cohomology: exactly when it vanishes in the window
    of the largest generator degree above ``top``, as otherwise the
    even-subalgebra image has classes in every such window."""
    wide = a.with_cutoff(max(top, 0) + max((g.degree for g in a.generators), default=0))
    return ch.top_window_vanishes(wide, ch.betti_numbers(wide))


def space_table(package: BorelPackage, context: str) -> ch.CohomologyTable:
    """The cohomology table of a package's pure space model.  Cohomology
    that is finite-dimensional satisfies Poincaré duality at the formal
    dimension, so a table that reaches that degree and fails duality
    there raises NotElliptic; a table cut off below it is not checked."""
    table = ch.cohomology(package.space)
    top = _formal_dimension(package.space)
    if table.cutoff >= top and not ch.poincare_duality_holds(table.betti, top):
        raise NotElliptic(f"{context}: {_NO_QUOTIENT}")
    return table


def homogeneous_surjectivity(
    g: GroupData,
    h: GroupData,
    restriction: RestrictionMap,
    cutoff: int | None = None,
) -> SurjectivityVerdict:
    """Even-degree surjectivity of the forgetful map for G acting on G/H:
    rank formula (gap at most one) against the direct check on the
    classifying-subalgebra inclusion."""
    return pair_analysis("homogeneous", g, h, restriction, cutoff)[1]


def biquotient_surjectivity(
    g: GroupData,
    h: GroupData,
    restriction: RestrictionMap,
    cutoff: int | None = None,
) -> SurjectivityVerdict:
    """Same question for a two-sided quotient presentation; freeness of
    the action is the caller's assertion."""
    return pair_analysis("biquotient", g, h, restriction, cutoff)[1]


def pair_analysis(kind: str, g, h, restriction, cutoff) -> tuple[BorelPackage, SurjectivityVerdict]:
    """The Borel package of a ``homogeneous`` or ``biquotient`` pair,
    built once, and the surjectivity verdict decided on it; a report
    reads the space's cohomology from the same package."""
    if not (g.connected and h.connected):
        raise DisconnectedGroup(f"the {kind} criterion needs connected groups")
    package = borel_model_homogeneous(g, h, restriction, cutoff)
    citation = CITATION_HOMOGENEOUS if kind == "homogeneous" else CITATION_BIQUOTIENT
    return package, _verdict_from_package(package, kind, g.rank - h.rank, True, citation)


def cohomogeneity_one_surjectivity(
    diagram: GroupDiagram,
    cutoff: int | None = None,
    allow_disconnected: bool = False,
) -> SurjectivityVerdict:
    """Even-degree surjectivity of the forgetful map for the
    cohomogeneity-one manifold of the diagram."""
    return cohomogeneity_one_analysis(diagram, cutoff, allow_disconnected)[1]


def cohomogeneity_one_analysis(
    diagram: GroupDiagram, cutoff: int | None, allow_disconnected: bool
) -> tuple[BorelPackage, SurjectivityVerdict]:
    """The Borel package of the diagram's manifold, built once, and the
    surjectivity verdict decided on it; a report reads the manifold's and
    the Borel model's cohomology from the same package."""
    package = borel_model_cohomogeneity_one(diagram, cutoff, allow_disconnected)
    hypotheses = all(grp.connected for grp in diagram.groups())
    return package, _verdict_from_package(
        package, "cohomogeneity_one", diagram.rank_gap, hypotheses, CITATION_COHO1
    )


# -- pure-algebra criteria ---------------------------------------------


class EvenCoverageReport(NamedTuple):
    """Both sides of the even-coverage equivalence for a pure elliptic
    algebra, computed independently."""

    h0_equals_heven: bool
    chi_pi: int
    first_uncovered_degree: int | None
    h0_dims: dict[int, int]
    even_betti: dict[int, int]
    citation: str = CITATION_H0


def pure_h0_equals_heven(table: ch.CohomologyTable) -> EvenCoverageReport:
    """Compare the even-subalgebra image, the index-0 strands of the
    table's lower grading, with all of H^even, degree by degree, and
    assert the equivalence with chi_pi <= 1."""
    a, betti = table.algebra, table.betti
    if not a.is_pure():
        raise NotPure("the even-coverage criterion needs a pure algebra")
    if not ch.top_window_vanishes(a, betti):
        raise NotElliptic(
            "cohomology does not vanish in the top window below the cutoff; "
            "increase the cutoff or pass an elliptic algebra"
        )
    strands = ch.LowerGradedTable(table)
    h0 = {n: strands.dim(n, 0) for n in range(0, table.cutoff + 1, 2)}
    even_betti = {n: betti[n] for n in h0}
    first_uncovered = None
    for n in sorted(h0):
        if h0[n] != even_betti[n]:
            first_uncovered = n
            break
    equals = first_uncovered is None
    chi = a.homotopy_euler_characteristic()
    if equals != (chi <= 1):
        raise CriterionDisagreement(
            f"even coverage is {equals} but chi_pi = {chi}; "
            "the two sides of the equivalence disagree"
        )
    return EvenCoverageReport(equals, chi, first_uncovered, h0, even_betti)


def pure_formality(table: ch.CohomologyTable) -> FormalityVerdict:
    """Splitting invariants by graded Nakayama count.

    mu is the minimal number of generators of the ideal I that the odd
    differentials generate inside the even subalgebra: the dimension of
    I modulo its decomposable part, degree by degree.  In a pure algebra
    d(x^a*y) = x^a*dy, so I in degree n is d of the strand of odd word
    length one in degree n - 1, and its decomposable part is d of that
    strand's products, the x^a*y with a != 0.  One echelon per even
    degree, with a column per strand monomial, products first and the
    bare odd generators last, has as pivots among the bare generators
    those independent of the products and of each other: their number
    is that degree's share of mu.  k = dim V^odd - mu odd generators
    split off freely, and the algebra is formal iff mu = dim V^even.
    The table's Betti numbers must vanish in the top window
    (ellipticity).
    """
    a = table.algebra
    if not a.is_pure():
        raise NotPure("the formality criterion needs a pure algebra")
    if not ch.top_window_vanishes(a, table.betti):
        raise NotElliptic("cohomology does not vanish in the top window below the cutoff")
    top = max((g.degree + 1 for g, image in zip(a.generators, a._images) if image), default=0)
    mu = 0
    for n in range(2, top + 1, 2):
        index = a._positions(n)  # fits the packed fields to degree n
        odd = a._odd_bits
        strand0 = {p: i for i, p in enumerate(q for q in index if not q & odd)}
        strand1 = [p for p in a._positions(n - 1) if (p & odd).bit_count() == 1]
        products = [p for p in strand1 if p & ~odd]
        bare = [p for p in strand1 if not p & ~odd]
        rows = a._d_rows(products + bare, strand0)
        # Each row in order independent of those before it: the pivot
        # columns of one echelon with a column per row.
        _, pivots = linalg._echelon(linalg._transpose(rows))
        mu += sum(c >= len(products) for c in pivots)
    odd_count = len(a._odd)
    return FormalityVerdict(odd_count - mu, mu, mu == len(a.generators) - odd_count)


def _rank(rows) -> int:  # (perfbench/tracer.py patches it here)
    return linalg.rank_rows(rows)


def even_subalgebra_inclusion(a: SullivanAlgebra, names: list[str]) -> CdgaMorphism:
    """Inclusion of a free polynomial algebra on closed even generators
    of a (not necessarily pure) algebra; the source plays the role of the
    classifying-space subalgebra."""
    degrees = dict(a.signature)
    gens = [Generator(name, degrees[name]) for name in names]
    source = SullivanAlgebra(gens, a.cutoff)
    return CdgaMorphism(source, a, {name: a.gen(name) for name in names})


# -- diagram-level reports ----------------------------------------------


class EulerReport(NamedTuple):
    chi_m: int
    chi_orbit_minus: int
    chi_orbit_plus: int
    chi_principal: int
    identity_holds: bool
    positive_iff_equal_rank: bool | None
    citation: str = CITATION_EULER


def euler_characteristic_relations(
    diagram: GroupDiagram, table: ch.CohomologyTable
) -> EulerReport:
    """Check the inclusion-exclusion identity chi(M) = chi(G/K-) +
    chi(G/K+) - chi(G/H); for circle fibres also check that the manifold
    characteristic is positive exactly in the equal-rank case.

    ``table`` is the manifold's cohomology table, so chi(M) is the
    alternating sum of the Betti numbers a report prints, up to dim M;
    a table cut off below dim M is extended by counting the ranks of its
    algebra up to dim M.  The three orbit characteristics each come from
    the orbit's own model (``models.orbit_models``), whose generators hit
    the restriction images unglued, so the identity checks the gluing."""
    top = diagram.manifold_dimension
    betti = table.betti if table.cutoff >= top else ch.betti_numbers(table.algebra.with_cutoff(top))
    chi_m = ch.euler_characteristic(betti[: top + 1])
    chi_minus, chi_plus, chi_h = (
        ch.euler_characteristic(ch.betti_numbers(orbit)) for orbit in orbit_models(diagram)
    )
    identity = chi_m == chi_minus + chi_plus - chi_h
    if not identity:
        raise CriterionDisagreement(
            f"Euler identity fails: {chi_m} != {chi_minus} + {chi_plus} - {chi_h}"
        )
    positivity = None
    if diagram.sphere_dims == (1, 1):
        positivity = (chi_m > 0) == (diagram.rank_gap == 0)
        if not positivity:
            raise CriterionDisagreement(
                f"chi(M) = {chi_m} but the rank gap is {diagram.rank_gap}"
            )
    return EulerReport(chi_m, chi_minus, chi_plus, chi_h, identity, positivity)


class ApplicabilityReport(NamedTuple):
    """Which main-theorem clauses a diagram satisfies, from flags and
    ranks alone; no geometry is computed."""

    circle_fibres: bool
    all_connected: bool
    pi1_torsion_free: bool
    steinberg: bool
    rank_equality: bool
    rank_gap_at_most_one: bool
    integral_clause: bool
    rational_clause: bool
    even_surjectivity_theorem_applies: bool


def theorem_a_applicability(diagram: GroupDiagram) -> ApplicabilityReport:
    circles = diagram.sphere_dims == (1, 1)
    connected = all(grp.connected for grp in diagram.groups())
    pi1 = diagram.g.pi1_torsion_free
    steinberg = diagram.k_minus.steinberg and diagram.k_plus.steinberg
    equality = diagram.rank_gap == 0
    gap_one = diagram.rank_gap <= 1
    return ApplicabilityReport(
        circle_fibres=circles,
        all_connected=connected,
        pi1_torsion_free=pi1,
        steinberg=steinberg,
        rank_equality=equality,
        rank_gap_at_most_one=gap_one,
        integral_clause=circles and connected and pi1 and steinberg and equality,
        rational_clause=circles and connected and gap_one,
        even_surjectivity_theorem_applies=connected,
    )
