"""Decision layer: rank criteria cross-validated against direct
cohomological computation.

Every verdict carries both the rank-formula answer and the outcome of
the direct check on the Borel morphism, read from the space's
cohomology table, and one function decides it (``_space_verdict``).
When the governing hypotheses hold the two answers must agree, and a
disagreement raises CriterionDisagreement rather than being reconciled,
unless the input explains it: a direct check cut off below the model's
formal dimension (CutoffExceeded), or maps whose model has
infinite-dimensional cohomology (NotElliptic; they define no compact
quotient).  Finiteness has one test, the H_0 rule
(``cohomology._elliptic``), asked when the two answers disagree or the
cutoff reaches the formal dimension, whether or not they agree, so the
verdict functions and the reports reject the same inputs at every
cutoff from the formal dimension up.

``pair_analysis`` and ``cohomogeneity_one_analysis`` build a space's
model and its cohomology table once, and return the table with the
verdict decided on it, so a report prints the table the verdict read;
the Euler relations of a diagram take the same table rather than
rebuilding its model.  A verdict decides the even and the odd direct
check, the K^0 and K^1 forgetful questions, by reading the table's
strands (``_strand_surjectivity``): the image of the Borel model is the
strand-0 part, so neither the Borel model nor the morphism is built.
The even-coverage criterion of a pure algebra reads its even degrees the
same way; the rank-only direct check
``cohomology.surjectivity_by_parity`` on a ``models.BorelPackage`` is
the reference they are tested against.
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
    GroupData,
    GroupDiagram,
    RestrictionMap,
    biquotient_model,
    borel_model_cohomogeneity_one,  # noqa: F401  (perfbench/tracer.py patches it here)
    borel_model_homogeneous,  # noqa: F401  (perfbench/tracer.py patches it here)
    classifying_space_model,  # noqa: F401  (perfbench/tracer.py patches it here)
    cohomogeneity_one_model,
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


def _strand_surjectivity(table: ch.CohomologyTable) -> tuple[tuple[bool, int | None], ...]:
    """(onto, smallest failing degree) of the forgetful map from a Borel
    model, for the even and then the odd degrees of its space's table: a
    degree fails iff a strand of index >= 1 has a class there, that is iff
    H_0^n != H^n, so the even pair also answers the even-coverage
    question of a pure algebra.  The lower grading raises NotPure on a
    space model that is not pure, whose one block per degree would read
    as onto."""
    strands = ch.LowerGradedTable(table)
    failing: dict[int, int] = {}
    for n in range(table.cutoff + 1):
        if any(i and reps for i, reps in strands._strands(n).items()):
            failing.setdefault(n % 2, n)
    return tuple((p not in failing, failing.get(p)) for p in (0, 1))


def _space_verdict(
    space: SullivanAlgebra,
    context: str,
    rank_gap: int,
    hypotheses_hold: bool,
    citation: str,
) -> tuple[ch.CohomologyTable, SurjectivityVerdict]:
    """The cohomology table of the space model and the verdict read from
    it; the Borel model is never built.

    The forgetful map f sends the Borel model into the pure space model,
    each even generator to the space's generator of that name, and the
    space has no other even generators.  The Borel model's cohomology is
    generated by ΛQ, the even generators: for a pair it is H*(BH) = ΛQ,
    with no differential; for a diagram it is ΛQ ⊗ Λ(n) with dn = e+e−,
    where a cocycle p + r·n needs r·e+e− = 0, so r = 0 since ΛQ is a
    domain, and H = ΛQ/(e+e−).  Either way f maps the Borel cocycles of
    degree n onto ΛQ^n of the space, so the image of H^n(f) is H_0^n,
    the space's strand-0 classes, and H^n(f) is onto iff no strand of
    index >= 1 has a class in degree n (``_strand_surjectivity``).  The
    table stops where the direct check does: at the cutoff, or at the
    formal dimension N when the H_0 rule shows H^n = 0 above it.

    Every error a verdict can raise is raised here, in this order; the
    verdicts disagree when the hypotheses hold and the rank criterion
    disagrees with the table.  CutoffExceeded if they disagree and the
    table is onto but cut off below N; NotElliptic if they disagree or
    the cutoff is at least N, and the space fails the H_0 rule, the one
    finiteness test, which on a pure model passes iff its cohomology is
    finite; CriterionDisagreement if they disagree.  A cutoff below N
    with agreeing verdicts asks no rule."""
    cutoff = space.cutoff
    table = ch.cohomology(space)
    (direct, failing), (odd_direct, odd_failing) = _strand_surjectivity(table)
    top = ch._formal_dimension(space)
    disagree = hypotheses_hold and direct != (rank_gap <= 1)
    if disagree and direct and cutoff < top:
        raise CutoffExceeded(
            f"{context}: cutoff {cutoff} is below the formal dimension {top}, "
            "so the direct check cannot confirm surjectivity"
        )
    # The space model is pure, so it fails the H_0 rule iff H is infinite:
    # H_0, a summand of H, then has a class above N.
    if (disagree or cutoff >= top) and not ch._elliptic(space):
        raise NotElliptic(f"{context}: {_NO_QUOTIENT}")
    if disagree:
        raise CriterionDisagreement(
            f"{context}: rank criterion says {rank_gap <= 1} but the direct check "
            f"says {direct} (first failing degree {failing})"
        )
    return table, SurjectivityVerdict(
        context=context,
        rank_gap=rank_gap,
        chi_pi=space.homotopy_euler_characteristic(),
        rank_criterion=rank_gap <= 1,
        direct_check=direct,
        first_failing_degree=failing,
        odd_direct_check=odd_direct,
        odd_first_failing_degree=odd_failing,
        hypotheses_hold=hypotheses_hold,
        cutoff=cutoff,
        citation=citation,
    )


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


def pair_analysis(
    kind: str, g, h, restriction, cutoff
) -> tuple[ch.CohomologyTable, SurjectivityVerdict]:
    """The cohomology table of a ``homogeneous`` or ``biquotient`` pair's
    space model, built once, and the surjectivity verdict read from it;
    a report prints the same table."""
    if not (g.connected and h.connected):
        raise DisconnectedGroup(f"the {kind} criterion needs connected groups")
    space = biquotient_model(g, h, restriction, cutoff)
    citation = CITATION_HOMOGENEOUS if kind == "homogeneous" else CITATION_BIQUOTIENT
    return _space_verdict(space, kind, g.rank - h.rank, True, citation)


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
) -> tuple[ch.CohomologyTable, SurjectivityVerdict]:
    """The cohomology table of the diagram's manifold model, built once,
    and the surjectivity verdict read from it; a report prints the same
    table."""
    space = cohomogeneity_one_model(diagram, cutoff, allow_disconnected)
    hypotheses = all(grp.connected for grp in diagram.groups())
    return _space_verdict(space, "cohomogeneity_one", diagram.rank_gap, hypotheses, CITATION_COHO1)


# -- pure-algebra criteria ---------------------------------------------


class EvenCoverageReport(NamedTuple):
    """Both sides of the even-coverage equivalence for a pure elliptic
    algebra, computed independently."""

    h0_equals_heven: bool
    chi_pi: int
    first_uncovered_degree: int | None
    citation: str = CITATION_H0


def pure_h0_equals_heven(table: ch.CohomologyTable) -> EvenCoverageReport:
    """Compare the even-subalgebra image, the index-0 strands of the
    table's lower grading, with all of H^even, degree by degree, and
    assert the equivalence with chi_pi <= 1.  H_0^n = H^n exactly when
    no strand of index >= 1 has a class in degree n, so the comparison
    is ``_strand_surjectivity``'s even reading."""
    a, betti = table.algebra, table.betti
    if not a.is_pure():
        raise NotPure("the even-coverage criterion needs a pure algebra")
    if not ch.top_window_vanishes(a, betti):
        raise NotElliptic(
            "cohomology does not vanish in the top window below the cutoff; "
            "increase the cutoff or pass an elliptic algebra"
        )
    equals, first_uncovered = _strand_surjectivity(table)[0]
    chi = a.homotopy_euler_characteristic()
    if equals != (chi <= 1):
        raise CriterionDisagreement(
            f"even coverage is {equals} but chi_pi = {chi}; "
            "the two sides of the equivalence disagree"
        )
    return EvenCoverageReport(equals, chi, first_uncovered)


def pure_formality(table: ch.CohomologyTable) -> FormalityVerdict:
    """Splitting invariants by graded Nakayama count.

    mu is the minimal number of generators of the ideal I = (f_j) that
    the odd differentials generate inside the even subalgebra ΛQ: the
    dimension of I modulo its decomposable part, degree by degree.  Each
    degree's share μ_k, the bare f_j of degree k independent of the
    products f_j m (m != 1) and of each other, is counted by the Gröbner
    basis of ``cohomology._Ideal``, the helper the H_0 rule and the ΛQ
    table read too: the f_j of degree k with a remainder modulo the basis
    after degree k's S-pairs and the f_j before them.  A degree the basis
    has been grown through is not worked again.  Only the degrees of some
    f_j can have a share.  k = dim
    V^odd - mu odd generators split off freely, and the algebra is formal
    iff mu = dim V^even.  The table's Betti numbers must vanish in the
    top window (ellipticity).
    """
    a = table.algebra
    if not a.is_pure():
        raise NotPure("the formality criterion needs a pure algebra")
    if not ch.top_window_vanishes(a, table.betti):
        raise NotElliptic("cohomology does not vanish in the top window below the cutoff")
    ideal = ch._ideal(a)
    mu = sum(ideal.degree(k)[1] for k in {d for d, _ in ideal.relations})
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
