"""Algebra maps on integer terms against the element loop they replaced.

``CdgaMorphism.apply`` and ``SullivanAlgebra.substitute`` multiply the
generator images of each monomial on exponent tuples in integers.  The
reference here is the older route: a product of ``AlgebraElement``
powers per monomial, summed with ``Fraction`` coefficients.
"""

import random

import pytest

from instance_generators import conjugated, random_shear
from sullivan import cdga
from sullivan.catalog import DIAGRAM_PRESETS, standard_restriction
from sullivan.cdga import CdgaMorphism
from sullivan.cohomology import surjectivity_by_parity
from sullivan.documents import load_diagram
from sullivan.models import borel_model_cohomogeneity_one, borel_model_homogeneous


def reference_map(algebra, e, images):
    """The algebra map sending generator i to ``images[i]``, applied to
    ``e`` by the element loop: each monomial is the product, in generator
    order, of the images raised to its exponents."""
    result = algebra.zero()
    for mono, coeff in e.terms.items():
        term = algebra.one()
        for image, exp in zip(images, mono):
            if exp:
                term = term * image**exp
        result = result + coeff * term
    return result


def borel_packages():
    for name in sorted(DIAGRAM_PRESETS):
        yield name, borel_model_cohomogeneity_one(load_diagram(DIAGRAM_PRESETS[name]))
    for g, h in (("SU(4)", "T3"), ("Sp(2)", "T2")):
        restriction = standard_restriction(g, h, "maximal-torus")
        yield f"{g}/{h}", borel_model_homogeneous(restriction.source, restriction.target, restriction)


def basis_elements(algebra):
    for n in range(algebra.cutoff + 1):
        for p in range(len(algebra.monomial_basis(n))):
            yield algebra.element_from_coordinates({p: 1}, n)


def shears(seed, count):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        drawn = random_shear(rng)
        if drawn is not None:
            found.append(drawn)
    return found


class TestForgetfulMaps:
    @pytest.mark.parametrize("name, package", list(borel_packages()))
    def test_apply_matches_element_loop_on_every_source_monomial(self, name, package):
        f = package.forgetful
        images = [f.assignment[g.name] for g in f.source.generators]
        count = 0
        for e in basis_elements(f.source):
            assert f.apply(e) == reference_map(f.target, e, images), (name, e)
            count += 1
        assert count > 1

    @pytest.mark.parametrize("name, package", list(borel_packages()))
    def test_direct_check_builds_no_element(self, name, package, monkeypatch):
        built = []
        init = cdga.AlgebraElement.__init__

        def counting_init(self, algebra, terms):
            built.append(1)
            init(self, algebra, terms)

        monkeypatch.setattr(cdga.AlgebraElement, "__init__", counting_init)
        for parity in (0, 1):
            surjectivity_by_parity(package.forgetful, parity)
        assert not built, name


class TestShears:
    SEED, COUNT = 2024, 12

    @pytest.fixture(scope="class")
    def population(self):
        return shears(self.SEED, self.COUNT)

    def test_substitute_matches_element_loop(self, population):
        for core, forward, backward in population:
            for assignment in (forward, backward):
                images = [assignment.get(g.name, core.gen(g.name)) for g in core.generators]
                for e in basis_elements(core):
                    assert core.substitute(e, assignment) == reference_map(core, e, images)

    def test_shear_morphisms_match_element_loop(self, population):
        # forward is a chain map from the sheared algebra to its core and
        # backward one from the core to the sheared algebra
        for core, forward, backward in population:
            sheared = conjugated(core, forward, backward)
            for source, target, assignment in ((sheared, core, forward), (core, sheared, backward)):
                images = {g.name: assignment.get(g.name, target.gen(g.name)) for g in target.generators}
                f = CdgaMorphism(source, target, images)
                ordered = [images[g.name] for g in source.generators]
                for e in basis_elements(source):
                    assert f.apply(e) == reference_map(target, e, ordered)
