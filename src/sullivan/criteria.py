"""Decision layer: rank criteria cross-validated against direct
cohomological computation.

Every verdict carries both the rank-formula answer and the outcome of
the honest linear-algebra check on the Borel morphism; when the
governing hypotheses hold the two must agree, and a disagreement raises
CriterionDisagreement rather than being reconciled.  A disagreement that
the input explains is a validation error instead: a direct check cut off
below the model's formal dimension, or maps whose model has
infinite-dimensional cohomology (they define no compact quotient).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cohomology as ch
from . import linalg
from .cdga import AlgebraElement, CdgaMorphism, Generator, SullivanAlgebra
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
    cohomogeneity_one_model,
    _kill_generator,
    EULER_MINUS,
    EULER_PLUS,
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


@dataclass(frozen=True)
class SurjectivityVerdict:
    """Outcome of one surjectivity question, decided twice."""

    context: str
    rank_gap: int
    chi_pi: int
    rank_criterion: bool
    direct_check: bool
    first_failing_degree: int | None
    odd_direct_check: bool | None = None
    odd_first_failing_degree: int | None = None
    hypotheses_hold: bool = True
    cutoff: int = 0
    citation: str = ""


@dataclass(frozen=True)
class FormalityVerdict:
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
    direct, failing = ch.even_degree_surjectivity(package.forgetful, cutoff)
    odd_direct, odd_failing = ch.surjectivity_by_parity(package.forgetful, 1, cutoff)
    if hypotheses_hold and direct != (rank_gap <= 1):
        space = package.space
        top = sum(g.degree if g.is_odd else 1 - g.degree for g in space.generators)
        if direct and cutoff < top:
            raise CutoffExceeded(
                f"{context}: cutoff {cutoff} is below the formal dimension {top}, "
                "so the direct check cannot confirm surjectivity"
            )
        if not _elliptic(space, top):
            raise NotElliptic(
                f"{context}: the model's cohomology is infinite-dimensional, so the given "
                "maps define no compact quotient"
            )
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


def _elliptic(a: SullivanAlgebra, top: int) -> bool:
    """Whether a pure algebra of formal dimension ``top`` (the sum of the
    odd degrees minus the sum of the even degrees less one) has
    finite-dimensional cohomology: exactly when it vanishes in the window
    of the largest generator degree above ``top``, as otherwise the
    even-subalgebra image has classes in every such window."""
    wide = a.with_cutoff(max(top, 0) + max((g.degree for g in a.generators), default=0))
    return ch.top_window_vanishes(wide, ch.betti_numbers(wide))


def homogeneous_surjectivity(
    g: GroupData,
    h: GroupData,
    restriction: RestrictionMap,
    cutoff: int | None = None,
) -> SurjectivityVerdict:
    """Even-degree surjectivity of the forgetful map for G acting on G/H:
    rank formula (gap at most one) against the direct check on the
    classifying-subalgebra inclusion."""
    return _pair_surjectivity(g, h, restriction, cutoff, "homogeneous", CITATION_HOMOGENEOUS)


def biquotient_surjectivity(
    g: GroupData,
    h: GroupData,
    restriction: RestrictionMap,
    cutoff: int | None = None,
) -> SurjectivityVerdict:
    """Same question for a two-sided quotient presentation; freeness of
    the action is the caller's assertion."""
    return _pair_surjectivity(g, h, restriction, cutoff, "biquotient", CITATION_BIQUOTIENT)


def _pair_surjectivity(g, h, restriction, cutoff, context: str, citation: str) -> SurjectivityVerdict:
    if not (g.connected and h.connected):
        raise DisconnectedGroup(f"the {context} criterion needs connected groups")
    package = borel_model_homogeneous(g, h, restriction, cutoff)
    return _verdict_from_package(package, context, g.rank - h.rank, True, citation)


def cohomogeneity_one_surjectivity(
    diagram: GroupDiagram,
    cutoff: int | None = None,
    allow_disconnected: bool = False,
) -> SurjectivityVerdict:
    """Even-degree surjectivity of the forgetful map for the
    cohomogeneity-one manifold of the diagram."""
    package = borel_model_cohomogeneity_one(diagram, cutoff, allow_disconnected)
    hypotheses = all(grp.connected for grp in diagram.groups())
    return _verdict_from_package(
        package, "cohomogeneity_one", diagram.rank_gap, hypotheses, CITATION_COHO1
    )


# -- pure-algebra criteria ---------------------------------------------


@dataclass(frozen=True)
class EvenCoverageReport:
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

    mu is the minimal number of generators of the ideal generated by the
    odd differentials inside the even subalgebra (dimension of the ideal
    modulo its decomposable part, degree by degree); k = dim V^odd - mu
    odd generators split off freely, and the algebra is formal iff
    mu = dim V^even.  The table's Betti numbers must vanish in the top
    window (ellipticity).
    """
    a = table.algebra
    if not a.is_pure():
        raise NotPure("the formality criterion needs a pure algebra")
    if not ch.top_window_vanishes(a, table.betti):
        raise NotElliptic("cohomology does not vanish in the top window below the cutoff")
    odd_gens = [g for g in a.generators if g.is_odd]
    even_count = len(a.generators) - len(odd_gens)
    images: dict[int, list[AlgebraElement]] = {}
    for g, img in zip(a.generators, a.differential):
        if g.is_odd and not img.is_zero:
            images.setdefault(img.degree, []).append(img)
    if not images:
        return FormalityVerdict(len(odd_gens), 0, even_count == 0)
    top = max(images)
    even_basis = {
        n: [m for m in a._basis(n) if a.odd_word_length(m) == 0] for n in range(top + 1)
    }

    ideal_basis: dict[int, list[AlgebraElement]] = {}
    mu = 0
    for n in range(2, top + 1, 2):
        decomposable = []
        for m, elements in ideal_basis.items():
            factor_degree = n - m
            if factor_degree < 2:
                continue
            for mono in even_basis[factor_degree]:
                if a.monomial_degree(mono) == 0:
                    continue
                factor = a.monomial_element(mono)
                for w in elements:
                    decomposable.append(a.multiply(factor, w))
        index = {m: i for i, m in enumerate(even_basis[n])}
        rows = [ch._element_row(e, index) for e in decomposable]
        rank_decomposable = _rank(rows)
        for z in images.get(n, []):
            rows.append(ch._element_row(z, index))
        total_rank = _rank(rows)
        mu += total_rank - rank_decomposable
        # Each candidate in order independent of those before it: the
        # pivot columns of one echelon with a column per candidate.
        candidates = decomposable + images.get(n, [])
        _, pivots = linalg._echelon(linalg._transpose(rows))
        if pivots:
            ideal_basis[n] = [candidates[c] for c in pivots]
    return FormalityVerdict(len(odd_gens) - mu, mu, mu == even_count)


def _rank(rows) -> int:
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


@dataclass(frozen=True)
class EulerReport:
    chi_m: int
    chi_orbit_minus: int
    chi_orbit_plus: int
    chi_principal: int
    identity_holds: bool
    positive_iff_equal_rank: bool | None
    citation: str = CITATION_EULER


def _singular_orbit_model(
    diagram: GroupDiagram, side: str, cutoff: int | None = None
) -> SullivanAlgebra:
    """Homogeneous model of G/K± in the merged presentation of H*(BK±)."""
    g, h = diagram.g, diagram.h
    if side == "+":
        k, euler_name, restriction = diagram.k_plus, EULER_PLUS, diagram.restriction_plus
        sphere = diagram.sphere_dims[1]
    else:
        k, euler_name, restriction = diagram.k_minus, EULER_MINUS, diagram.restriction_minus
        sphere = diagram.sphere_dims[0]
    cutoff = g.dimension - k.dimension if cutoff is None else cutoff
    gens = [Generator(n, d) for n, d in zip(h.bg_names, h.bg_degrees)]
    gens.append(Generator(euler_name, sphere + 1))
    gens += [Generator(n, d) for n, d in zip(g.g_names, g.exterior_degrees)]
    draft = SullivanAlgebra(gens, cutoff)
    differential = {
        q_name: draft.parse(restriction.get(bg_name, "0"))
        for q_name, bg_name in zip(g.g_names, g.bg_names)
    }
    return SullivanAlgebra(gens, cutoff, differential)


def _principal_orbit_model(diagram: GroupDiagram, cutoff: int | None = None) -> SullivanAlgebra:
    """Homogeneous model of G/H; the differential is the common part of
    the two restrictions (killing the sphere classes)."""
    g, h = diagram.g, diagram.h
    cutoff = g.dimension - h.dimension if cutoff is None else cutoff
    gens = [Generator(n, d) for n, d in zip(h.bg_names, h.bg_degrees)]
    gens += [Generator(n, d) for n, d in zip(g.g_names, g.exterior_degrees)]
    draft = SullivanAlgebra(gens, cutoff)
    full = _singular_orbit_model(diagram, "+", cutoff + 2)
    images = {gen.name: image for gen, image in zip(full.generators, full.differential)}
    differential = {}
    for q_name in g.g_names:
        killed = _kill_generator(full, images[q_name], EULER_PLUS)
        differential[q_name] = AlgebraElement(
            draft,
            {_drop_index(full, m, EULER_PLUS): c for m, c in killed.terms.items()},
        )
    return SullivanAlgebra(gens, cutoff, differential)


def _drop_index(algebra: SullivanAlgebra, mono, name: str):
    index = [g.name for g in algebra.generators].index(name)
    return tuple(e for i, e in enumerate(mono) if i != index)


def euler_characteristic_relations(
    diagram: GroupDiagram,
    allow_disconnected: bool = False,
) -> EulerReport:
    """Compute the Euler characteristics of the manifold and of the three
    orbit types independently from their own models and verify the
    inclusion-exclusion identity; for circle fibres also check that the
    manifold characteristic is positive exactly in the equal-rank case."""
    m = cohomogeneity_one_model(diagram, allow_disconnected=allow_disconnected)
    chi_m = ch.euler_characteristic(ch.betti_numbers(m))
    chi_minus = ch.euler_characteristic(
        ch.betti_numbers(_singular_orbit_model(diagram, "-"))
    )
    chi_plus = ch.euler_characteristic(
        ch.betti_numbers(_singular_orbit_model(diagram, "+"))
    )
    chi_h = ch.euler_characteristic(ch.betti_numbers(_principal_orbit_model(diagram)))
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


@dataclass(frozen=True)
class ApplicabilityReport:
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


def circle_orbit_space_formality(g: GroupData, h: GroupData) -> bool:
    """Equivariant formality predicate for actions with orbit space a
    circle: rank equality of the group and the principal isotropy."""
    return g.rank == h.rank
