"""Sullivan models built from compact-group cohomology data.

A group enters only through the degrees of the exterior generators of
its rational cohomology (plus rank, dimension and hypothesis flags);
subgroup inclusions enter through the induced polynomial restriction
maps on classifying-space generators.  From these the standard models
are assembled: exterior algebras for groups, polynomial algebras for
classifying spaces, the two-sided model for biquotients and orbit
spaces, the Borel-construction models, and the double-mapping-cylinder
model for cohomogeneity-one manifolds with odd-dimensional sphere
fibres, with the models of its three orbits read off the same
restriction images.  A report builds a space model and, for a diagram,
the Borel model alone (``cohomogeneity_one_borel_model``); a
``BorelPackage`` adds the forgetful morphism between the two, on which
the tests run the direct check the report's verdict is compared with.

Generator naming is uniform and predictable: a group of rank k has
exterior generators ``q1..qk`` and classifying-space generators
``u1..uk``; the cohomogeneity-one sphere classes are ``ep``/``em`` and
the relation generator is ``n``.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .cdga import AlgebraElement, CdgaMorphism, Generator, SullivanAlgebra
from .errors import (
    DegreeMismatch,
    DisconnectedGroup,
    EvenSphere,
    InvalidDegrees,
    InvalidDiagram,
    UnknownGenerator,
)

EULER_PLUS = "ep"
EULER_MINUS = "em"
RELATION_GENERATOR = "n"


class _GroupFields(NamedTuple):
    name: str
    rank: int
    dimension: int
    exterior_degrees: tuple[int, ...]
    connected: bool = True
    pi1_torsion_free: bool = False
    steinberg: bool = False


class GroupData(_GroupFields):
    """Cohomological presentation of a compact group: the degrees of the
    exterior generators of H*(G;Q), plus hypothesis flags that are
    asserted by the user, never verified here."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.exterior_degrees) != self.rank:
            raise InvalidDegrees(
                f"{self.name}: {len(self.exterior_degrees)} degrees for rank {self.rank}"
            )
        if sum(self.exterior_degrees) != self.dimension:
            raise InvalidDegrees(
                f"{self.name}: degrees sum to {sum(self.exterior_degrees)}, "
                f"dimension is {self.dimension}"
            )
        for d in self.exterior_degrees:
            if d % 2 == 0:
                raise InvalidDegrees(f"{self.name}: exterior degree {d} is even")
        return self

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and self.dimension == 0

    @property
    def g_names(self) -> tuple[str, ...]:
        return tuple(f"q{i + 1}" for i in range(self.rank))

    @property
    def bg_names(self) -> tuple[str, ...]:
        return tuple(f"u{i + 1}" for i in range(self.rank))

    @property
    def bg_degrees(self) -> tuple[int, ...]:
        return tuple(d + 1 for d in self.exterior_degrees)


class _RestrictionFields(NamedTuple):
    source: GroupData
    target: GroupData
    assignment: Mapping[str, str]
    right_assignment: Mapping[str, str] | None = None


class RestrictionMap(_RestrictionFields):
    """Induced map H*(B source) -> H*(B target) of a subgroup inclusion,
    given per classifying-space generator as a polynomial string over the
    target's generators.  ``assignment`` is the left-translation copy
    (it alone presents a homogeneous space) and defaults to a new empty
    map; genuine biquotients supply ``right_assignment`` as well."""

    __slots__ = ()

    def __new__(cls, source: GroupData, target: GroupData, assignment=None, right_assignment=None):
        if assignment is None:
            assignment = {}
        for key in list(assignment) + list(right_assignment or {}):
            if key not in source.bg_names:
                raise UnknownGenerator(
                    f"{key!r} is not a classifying-space generator of {source.name}"
                )
        return tuple.__new__(cls, (source, target, assignment, right_assignment))


class _DiagramFields(NamedTuple):
    g: GroupData
    h: GroupData
    k_minus: GroupData
    k_plus: GroupData
    restriction_minus: Mapping[str, str]
    restriction_plus: Mapping[str, str]
    sphere_dims: tuple[int, int]


class GroupDiagram(_DiagramFields):
    """Cohomogeneity-one group diagram (G, H, K-, K+) with K±/H odd
    spheres.  The restriction maps H*(BG) -> H*(BK±) are written in the
    presentation H*(BK±) = H*(BH)[e±] with the sphere classes named
    ``ep``/``em``; the maps H*(BK±) -> H*(BH) are then e± -> 0.  H's
    classifying generators are ``u1..uk`` (``GroupData.bg_names``), so
    they never shadow ``ep``, ``em`` or ``n``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        l_minus, l_plus = self.sphere_dims
        for side, k, l in (("-", self.k_minus, l_minus), ("+", self.k_plus, l_plus)):
            if l % 2 == 0:
                raise EvenSphere(f"K{side}/H has even dimension {l}")
            if k.dimension - self.h.dimension != l:
                raise InvalidDiagram(
                    f"dim K{side} - dim H = {k.dimension - self.h.dimension}, "
                    f"but the sphere dimension is {l}"
                )
            if k.rank != self.h.rank + 1:
                raise InvalidDiagram(
                    f"rank K{side} = {k.rank}, expected rank H + 1 = {self.h.rank + 1}"
                )
        for key in list(self.restriction_minus) + list(self.restriction_plus):
            if key not in self.g.bg_names:
                raise UnknownGenerator(
                    f"{key!r} is not a classifying-space generator of {self.g.name}"
                )
        return self

    @property
    def rank_gap(self) -> int:
        return self.g.rank - self.k_plus.rank

    @property
    def manifold_dimension(self) -> int:
        """Dimension of the cohomogeneity-one manifold: the principal
        orbit G/H times the interval of the orbit space."""
        return self.g.dimension - self.h.dimension + 1

    def groups(self) -> tuple[GroupData, ...]:
        return (self.g, self.h, self.k_minus, self.k_plus)


class BorelPackage(NamedTuple):
    """A space model, the matching Borel-construction model, and the
    morphism between them that induces the forgetful map in cohomology."""

    space: SullivanAlgebra
    borel: SullivanAlgebra
    forgetful: CdgaMorphism


def lie_group_model(g: GroupData, cutoff: int | None = None) -> SullivanAlgebra:
    """Exterior algebra on rank generators in the exterior degrees, zero
    differential."""
    cutoff = g.dimension if cutoff is None else cutoff
    gens = [Generator(n, d) for n, d in zip(g.g_names, g.exterior_degrees)]
    return SullivanAlgebra(gens, cutoff)


def classifying_space_model(g: GroupData, cutoff: int | None = None) -> SullivanAlgebra:
    """Polynomial algebra on rank generators in degrees shifted up by one,
    zero differential."""
    if cutoff is None:
        cutoff = 2 * max(g.bg_degrees, default=0)
    gens = [Generator(n, d) for n, d in zip(g.bg_names, g.bg_degrees)]
    return SullivanAlgebra(gens, cutoff)


def _parse_restricted(
    algebra: SullivanAlgebra,
    text: str,
    allowed: set[str],
    expected_degree: int,
    context: str,
) -> AlgebraElement:
    try:
        element = algebra.parse(text)
    except ValueError as exc:
        raise InvalidDiagram(f"{context}: {exc}") from exc
    except UnknownGenerator as exc:
        raise UnknownGenerator(f"{context}: {exc}") from exc
    names = [g.name for g in algebra.generators]
    for mono in element.terms:
        for name, e in zip(names, mono):
            if e and name not in allowed:
                raise UnknownGenerator(f"{context}: generator {name!r} is not available here")
    if not element.is_zero and (
        not element.is_homogeneous or element.degree != expected_degree
    ):
        raise DegreeMismatch(
            f"{context}: expected a homogeneous polynomial of degree {expected_degree}"
        )
    return element


def biquotient_model(
    g: GroupData,
    h: GroupData,
    restriction: RestrictionMap,
    cutoff: int | None = None,
) -> SullivanAlgebra:
    """Two-stage model of the biquotient: polynomial generators of H*(BH)
    (closed) and exterior generators of H*(G) with dq_i = (left copy)
    - (right copy).  A homogeneous space is the case with only the left
    copy supplied.  Pure by construction."""
    if restriction.source.name != g.name or restriction.target.name != h.name:
        raise InvalidDiagram("restriction map does not connect the given groups")
    cutoff = g.dimension - h.dimension if cutoff is None else cutoff
    gens = [Generator(n, d) for n, d in zip(h.bg_names, h.bg_degrees)]
    gens += [Generator(n, d) for n, d in zip(g.g_names, g.exterior_degrees)]
    allowed = set(h.bg_names)

    def differential(a: SullivanAlgebra) -> dict[str, AlgebraElement]:
        images = {}
        for q_name, bg_name, d in zip(g.g_names, g.bg_names, g.exterior_degrees):
            left = restriction.assignment.get(bg_name, "0")
            right = (restriction.right_assignment or {}).get(bg_name, "0")
            images[q_name] = _parse_restricted(
                a, left, allowed, d + 1, f"left image of {bg_name}"
            ) - _parse_restricted(a, right, allowed, d + 1, f"right image of {bg_name}")
        return images

    return SullivanAlgebra(gens, cutoff, differential)


def borel_model_homogeneous(
    g: GroupData,
    h: GroupData,
    restriction: RestrictionMap,
    cutoff: int | None = None,
) -> BorelPackage:
    """Borel-construction model H*(BH) (zero differential) together with
    its inclusion into the orbit-space model, which induces the forgetful
    map in cohomology."""
    space = biquotient_model(g, h, restriction, cutoff)
    borel = classifying_space_model(h, space.cutoff)
    assignment = {name: space.gen(name) for name in h.bg_names}
    return BorelPackage(space, borel, CdgaMorphism(borel, space, assignment))


def _check_diagram_flags(diagram: GroupDiagram, allow_disconnected: bool) -> None:
    for grp in (diagram.g, diagram.k_minus, diagram.k_plus):
        if not grp.connected:
            raise DisconnectedGroup(f"{grp.name} must be connected")
    if not diagram.h.connected:
        if not allow_disconnected:
            raise DisconnectedGroup(
                f"{diagram.h.name} is not connected; pass allow_disconnected=True "
                "to accept a finite isotropy group rationally"
            )
        if not diagram.h.is_trivial:
            raise DisconnectedGroup(
                "only finite disconnected principal isotropy is supported"
            )


def _coho1_generators(diagram: GroupDiagram) -> list[Generator]:
    h, g = diagram.h, diagram.g
    l_minus, l_plus = diagram.sphere_dims
    gens = [Generator(n, d) for n, d in zip(h.bg_names, h.bg_degrees)]
    gens.append(Generator(EULER_PLUS, l_plus + 1))
    gens.append(Generator(EULER_MINUS, l_minus + 1))
    gens += [Generator(n, d) for n, d in zip(g.g_names, g.exterior_degrees)]
    gens.append(Generator(RELATION_GENERATOR, l_plus + l_minus + 1))
    return gens


def _restriction_images(
    diagram: GroupDiagram, algebra: SullivanAlgebra
) -> dict[str, tuple[AlgebraElement, AlgebraElement, AlgebraElement]]:
    """The images of u_i under the restrictions to K-, K+ and H, by the
    name of q_i: the minus and plus restrictions parsed and checked over
    ``algebra``, and their common polynomial part, on which the two sides
    must agree once the sphere classes are killed."""
    g, bh = diagram.g, set(diagram.h.bg_names)
    images = {}
    for q_name, bg_name, d in zip(g.g_names, g.bg_names, g.exterior_degrees):
        plus = _parse_restricted(
            algebra,
            diagram.restriction_plus.get(bg_name, "0"),
            bh | {EULER_PLUS},
            d + 1,
            f"restriction of {bg_name} to the plus side",
        )
        minus = _parse_restricted(
            algebra,
            diagram.restriction_minus.get(bg_name, "0"),
            bh | {EULER_MINUS},
            d + 1,
            f"restriction of {bg_name} to the minus side",
        )
        common = _kill_generator(algebra, plus, EULER_PLUS)
        common_minus = _kill_generator(algebra, minus, EULER_MINUS)
        if common != common_minus:
            raise InvalidDiagram(
                f"restrictions of {bg_name} disagree after killing the sphere classes: "
                f"{common!r} vs {common_minus!r}"
            )
        images[q_name] = (minus, plus, common)
    return images


def _relation(a: SullivanAlgebra) -> dict[str, AlgebraElement]:
    """The differential dn = e+ e- of the relation generator."""
    return {RELATION_GENERATOR: a.gen(EULER_PLUS) * a.gen(EULER_MINUS)}


def _kill_generator(
    algebra: SullivanAlgebra, e: AlgebraElement, name: str
) -> AlgebraElement:
    index = [g.name for g in algebra.generators].index(name)
    return AlgebraElement(
        algebra, {m: c for m, c in e.terms.items() if m[index] == 0}
    )


def cohomogeneity_one_model(
    diagram: GroupDiagram,
    cutoff: int | None = None,
    allow_disconnected: bool = False,
) -> SullivanAlgebra:
    """Pure model of the cohomogeneity-one manifold: H*(BH) and the two
    sphere classes e± closed, exterior generators of H*(G) hitting the
    fibre-product of the two restrictions, and one generator n with
    dn = e+ e- encoding the single relation.

    The two singular-orbit models glue over the principal-orbit model, so
    dq_i is the fibre-product class of the pair of restriction images: the
    e+ part plus the e- part minus their common polynomial part, which is
    in both.
    """
    _check_diagram_flags(diagram, allow_disconnected)
    cutoff = diagram.manifold_dimension if cutoff is None else cutoff

    def differential(a: SullivanAlgebra) -> dict[str, AlgebraElement]:
        images = {
            q_name: plus + minus - common
            for q_name, (minus, plus, common) in _restriction_images(diagram, a).items()
        }
        return images | _relation(a)

    return SullivanAlgebra(_coho1_generators(diagram), cutoff, differential)


def cohomogeneity_one_borel_model(
    diagram: GroupDiagram, cutoff: int | None = None
) -> SullivanAlgebra:
    """Model of the Borel construction of the diagram's manifold,
    H*(BH)[e+,e-] with the single relation e+ e- realized by the
    generator n: the manifold model's generators without the exterior
    generators of H*(G), up to ``cutoff`` (the manifold's dimension by
    default)."""
    cutoff = diagram.manifold_dimension if cutoff is None else cutoff
    gens = [gen for gen in _coho1_generators(diagram) if gen.name not in diagram.g.g_names]
    return SullivanAlgebra(gens, cutoff, _relation)


def borel_model_cohomogeneity_one(
    diagram: GroupDiagram,
    cutoff: int | None = None,
    allow_disconnected: bool = False,
) -> BorelPackage:
    """The manifold model, its Borel model
    (``cohomogeneity_one_borel_model``) and the morphism between them,
    which sends each generator to itself."""
    space = cohomogeneity_one_model(diagram, cutoff, allow_disconnected)
    borel = cohomogeneity_one_borel_model(diagram, space.cutoff)
    assignment = {g.name: space.gen(g.name) for g in borel.generators}
    return BorelPackage(space, borel, CdgaMorphism(borel, space, assignment))


def orbit_models(diagram: GroupDiagram) -> tuple[SullivanAlgebra, ...]:
    """Homogeneous models of the orbits G/K-, G/K+ and G/H, each up to its
    own dimension: H*(BK) in the merged presentation (H*(BH) with e- or
    e+, or H*(BH) alone) and the exterior generators of H*(G), each
    hitting its minus, plus or common restriction image.  The images are
    the manifold model's, parsed and checked the same way but not glued,
    so the Euler identity over the orbits stays a check of the gluing."""
    gens = _coho1_generators(diagram)[:-1]  # without the relation generator n
    parsed = SullivanAlgebra(gens, diagram.manifold_dimension)
    images = _restriction_images(diagram, parsed)
    models = []
    for side, k in enumerate((diagram.k_minus, diagram.k_plus, diagram.h)):
        killed = ({EULER_PLUS}, {EULER_MINUS}, {EULER_PLUS, EULER_MINUS})[side]
        kept = [gen for gen in gens if gen.name not in killed]
        positions = [parsed._index[gen.name] for gen in kept]

        def differential(orbit, side=side, positions=positions):
            return {
                q_name: AlgebraElement(
                    orbit,
                    {tuple(m[p] for p in positions): c for m, c in parts[side].terms.items()},
                )
                for q_name, parts in images.items()
            }

        models.append(SullivanAlgebra(kept, diagram.g.dimension - k.dimension, differential))
    return tuple(models)
