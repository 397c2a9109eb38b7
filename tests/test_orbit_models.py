"""Orbit models of a cohomogeneity-one diagram against the per-orbit
builders they replaced.

``models.orbit_models`` reads the models of G/K-, G/K+ and G/H off the
manifold model's checked restriction images.  The reference below is
the earlier code: each singular orbit parses its own restriction strings
with a bare ``parse``, and the principal orbit kills the sphere class of
a whole G/K+ model built two degrees higher.  Both must give the same
model documents.
"""

import pytest

from sullivan.catalog import DIAGRAM_PRESETS, lookup
from sullivan.cdga import AlgebraElement, Generator, SullivanAlgebra
from sullivan.documents import load_diagram, model_document
from sullivan.errors import DegreeMismatch, InvalidDiagram, UnknownGenerator
from sullivan.models import (
    EULER_MINUS,
    EULER_PLUS,
    GroupDiagram,
    cohomogeneity_one_model,
    orbit_models,
)


def _kill_generator(algebra, e, name):
    index = [g.name for g in algebra.generators].index(name)
    return AlgebraElement(algebra, {m: c for m, c in e.terms.items() if m[index] == 0})


def _drop_index(algebra, mono, name):
    index = [g.name for g in algebra.generators].index(name)
    return tuple(e for i, e in enumerate(mono) if i != index)


def reference_singular_orbit_model(diagram, side, cutoff=None):
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


def reference_principal_orbit_model(diagram, cutoff=None):
    """Homogeneous model of G/H; the differential is the common part of
    the two restrictions (killing the sphere classes)."""
    g, h = diagram.g, diagram.h
    cutoff = g.dimension - h.dimension if cutoff is None else cutoff
    gens = [Generator(n, d) for n, d in zip(h.bg_names, h.bg_degrees)]
    gens += [Generator(n, d) for n, d in zip(g.g_names, g.exterior_degrees)]
    draft = SullivanAlgebra(gens, cutoff)
    full = reference_singular_orbit_model(diagram, "+", cutoff + 2)
    images = {gen.name: image for gen, image in zip(full.generators, full.differential)}
    differential = {}
    for q_name in g.g_names:
        killed = _kill_generator(full, images[q_name], EULER_PLUS)
        differential[q_name] = AlgebraElement(
            draft,
            {_drop_index(full, m, EULER_PLUS): c for m, c in killed.terms.items()},
        )
    return SullivanAlgebra(gens, cutoff, differential)


def su3_diagram():
    # SU(3) with circle principal isotropy and maximal-torus singular
    # isotropy: c2 and c3 restricted to T2 = T1 x (sphere class), with the
    # same common part -u1^2 and 0 on both sides
    t2 = lookup("T2")
    return GroupDiagram(
        lookup("SU(3)"),
        lookup("T1"),
        t2,
        t2,
        {"u1": "-u1^2 + 2*u1*em - 3*em^2", "u2": "u1*em^2 - em^3"},
        {"u1": "-u1^2 - u1*ep - ep^2", "u2": "-u1^2*ep - u1*ep^2"},
        (1, 1),
    )


def mixed_diagram():
    # one circle fibre and one three-sphere fibre
    return GroupDiagram(
        lookup("SU(2)^2"),
        lookup("T1"),
        lookup("T2"),
        lookup("SU(2)xT1"),
        {"u1": "-em^2", "u2": "-u1^2"},
        {"u1": "ep", "u2": "-u1^2"},
        (1, 3),
    )


def torus_diagram(plus):
    # SU(2)^2 with circle principal isotropy and T2 singular isotropy, its
    # plus restrictions overridden by ``plus``
    return GroupDiagram(
        lookup("SU(2)^2"),
        lookup("T1"),
        lookup("T2"),
        lookup("T2"),
        {"u1": "-em^2", "u2": "-u1^2"},
        {"u1": "-ep^2", "u2": "-u1^2", **plus},
        (1, 1),
    )


DIAGRAMS = [(name, load_diagram(DIAGRAM_PRESETS[name])) for name in sorted(DIAGRAM_PRESETS)]
DIAGRAMS += [("su3-rank-two", su3_diagram()), ("mixed-1-3", mixed_diagram())]


class TestAgainstPerOrbitBuilders:
    @pytest.mark.parametrize("name, diagram", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
    def test_model_documents_match(self, name, diagram):
        minus, plus, principal = orbit_models(diagram)
        assert model_document(minus) == model_document(reference_singular_orbit_model(diagram, "-"))
        assert model_document(plus) == model_document(reference_singular_orbit_model(diagram, "+"))
        assert model_document(principal) == model_document(reference_principal_orbit_model(diagram))


class TestSameChecksAsTheManifoldModel:
    """The orbit images come from the manifold model's checked parse, so
    a bad restriction fails both with the same error."""

    @pytest.mark.parametrize(
        "plus, error",
        [
            ({"u1": "ep"}, DegreeMismatch),
            ({"u1": "em^2"}, UnknownGenerator),
            ({"u1": "zz^2"}, UnknownGenerator),
            ({"u1": "-ep^2 + u1^2"}, InvalidDiagram),
            ({"u1": "ep^2 +"}, InvalidDiagram),
        ],
        ids=["degree", "other-sphere", "unknown-name", "common-parts-disagree", "syntax"],
    )
    def test_bad_restriction(self, plus, error):
        assert len(orbit_models(torus_diagram({}))) == 3  # the diagram itself is valid
        diagram = torus_diagram(plus)
        with pytest.raises(error) as manifold:
            cohomogeneity_one_model(diagram)
        with pytest.raises(error) as orbits:
            orbit_models(diagram)
        assert str(orbits.value) == str(manifold.value)
