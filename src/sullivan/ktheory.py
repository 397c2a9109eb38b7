"""Rational K-theory dimension counts and stabilization conclusions.

Rationally, K-theory of a finite complex is even/odd cohomology (via the
Chern character) and real K-theory collects the degrees divisible by
four, so everything here is bookkeeping over a Betti table plus the
verdict's even and odd direct checks, read as K^0 and K^1 forgetful
surjectivity.  The existential stabilization integers are never
computed: the statements are existence-only, and the report records
which criterion fired.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .criteria import SurjectivityVerdict
from .models import GroupData, GroupDiagram

CITATION_CHERN = "rational Chern character: K0/K1 dimensions are the even/odd Betti sums"
CITATION_KO = "rational real K-theory collects the Betti numbers in degrees divisible by four"
CITATION_TRANSLATION = (
    "rational K-theory forgetful surjectivity is equivalent to even/odd-degree "
    "equivariant cohomology surjectivity"
)
CITATION_STABLE = (
    "nonzero rational cohomology in a positive degree divisible by four yields "
    "infinitely many pairwise distinct stable bundle classes"
)
CITATION_INTEGRAL_HOMOGENEOUS = (
    "integral stabilization for homogeneous spaces with rank gap at most one "
    "(connected, torsion-free fundamental group)"
)
CITATION_INTEGRAL_COHO1 = (
    "integral stabilization for cohomogeneity-one manifolds with equal-rank "
    "singular isotropy (connected, torsion-free fundamental group, Steinberg "
    "assumptions)"
)
CITATION_RATIONAL = (
    "rational stabilization: some multiple of every bundle is stably equivariant "
    "when the even-degree forgetful map surjects"
)

INTEGRAL = "integral-from-flags"
RATIONAL = "rational-q-and-k"
NONE = "none"


class RationalKReport(NamedTuple):
    k0_dim: int
    k1_dim: int
    ko_dim: int
    forgetful_even_surjective: bool
    forgetful_odd_surjective: bool
    infinite_stable_classes: bool
    stabilization_conclusion: str
    citations: tuple[str, ...]


def rational_k_dimensions(betti: Sequence[int]) -> tuple[int, int, int]:
    """(dim K0 ⊗ Q, dim K1 ⊗ Q, dim KO ⊗ Q) from Betti numbers whose
    range covers the formal dimension."""
    k0 = sum(b for n, b in enumerate(betti) if n % 2 == 0)
    k1 = sum(b for n, b in enumerate(betti) if n % 2 == 1)
    ko = sum(b for n, b in enumerate(betti) if n % 4 == 0)
    return k0, k1, ko


def stable_class_infinitude(betti: Sequence[int]) -> bool:
    """True iff some Betti number in a positive degree divisible by four
    is nonzero."""
    return any(b for n, b in enumerate(betti) if n > 0 and n % 4 == 0)


class StabilizationFlags(NamedTuple):
    """User-asserted hypotheses gating the integral conclusions."""

    connected: bool
    pi1_torsion_free: bool
    steinberg: bool
    rank_equality: bool

    @classmethod
    def from_homogeneous(cls, g: GroupData, h: GroupData) -> "StabilizationFlags":
        return cls(
            connected=g.connected and h.connected,
            pi1_torsion_free=g.pi1_torsion_free,
            steinberg=False,
            rank_equality=g.rank == h.rank,
        )

    @classmethod
    def from_diagram(cls, diagram: GroupDiagram) -> "StabilizationFlags":
        return cls(
            connected=all(grp.connected for grp in diagram.groups()),
            pi1_torsion_free=diagram.g.pi1_torsion_free,
            steinberg=diagram.k_minus.steinberg and diagram.k_plus.steinberg,
            rank_equality=diagram.rank_gap == 0,
        )


def stabilization_report(
    verdict: SurjectivityVerdict,
    flags: StabilizationFlags,
    betti: Sequence[int],
) -> RationalKReport:
    """Assemble the K-theory conclusions for one verdict.

    Integral conclusions fire purely on the asserted flags (their
    verification is out of scope); otherwise a true rational verdict
    yields the multiple-of-the-bundle conclusion; otherwise none.
    """
    k0, k1, ko = rational_k_dimensions(betti)
    citations = [CITATION_CHERN, CITATION_KO, CITATION_TRANSLATION]
    if verdict.context == "homogeneous":
        integral = flags.connected and flags.pi1_torsion_free and verdict.rank_gap <= 1
        integral_citation = CITATION_INTEGRAL_HOMOGENEOUS
    elif verdict.context == "cohomogeneity_one":
        integral = (
            flags.connected
            and flags.pi1_torsion_free
            and flags.steinberg
            and flags.rank_equality
        )
        integral_citation = CITATION_INTEGRAL_COHO1
    else:
        integral = False
        integral_citation = ""
    if integral:
        conclusion = INTEGRAL
        citations.append(integral_citation)
    elif verdict.direct_check:
        conclusion = RATIONAL
        citations.append(CITATION_RATIONAL)
    else:
        conclusion = NONE
    infinite = stable_class_infinitude(betti)
    if infinite and conclusion != NONE:
        citations.append(CITATION_STABLE)
    return RationalKReport(
        k0_dim=k0,
        k1_dim=k1,
        ko_dim=ko,
        forgetful_even_surjective=verdict.direct_check,
        forgetful_odd_surjective=verdict.odd_direct_check,
        infinite_stable_classes=infinite,
        stabilization_conclusion=conclusion,
        citations=tuple(citations),
    )
