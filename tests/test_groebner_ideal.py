"""The Gröbner basis of the ideal (f_j) of ΛQ against the Macaulay route.

``cohomology._Ideal`` reads every even degree of ΛQ/(f_j) from one
homogeneous Buchberger basis, truncated at the helper's ``top``.  The
reference ``ideal_reference.MacaulayIdeal`` eliminates the rows f_j m of
each degree on its own.  Both must name the same leading monomials (the
pivot columns of the rows) and the same share μ_k in every even degree
through ``top``, and ``fills`` must agree with the pivots."""

import random

import pytest

from ideal_reference import MacaulayIdeal
from instance_generators import (
    coupled_k_pair_model,
    package_builds,
    random_pure,
    random_pure_elliptic,
    tensor_product,
)
from sullivan import cohomology as ch
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import SullivanAlgebra
from sullivan.documents import load_diagram
from sullivan.models import orbit_models


def assert_matches_reference(a):
    ideal, reference = ch._Ideal(a), MacaulayIdeal(a)
    assert ideal.top == reference.top
    for k in range(0, ideal.top + 1, 2):
        pivots, mu = reference.degree(k)
        assert ideal.degree(k) == (pivots, mu), k
        assert ideal.fills(k) == (len(pivots) == len(ideal.ring._monomials(k))), k


def _draws(draw, seed, count):
    rng = random.Random(seed)
    return [a for a in (draw(rng) for _ in range(count)) if a is not None]


PACKAGES = sorted((name, build(None)) for name, build in package_builds().items())
SPACES = [(name, package.space) for name, package in PACKAGES]
ORBITS = [
    (f"{name}:{side}", orbit)
    for name in sorted(DIAGRAM_PRESETS)
    for side, orbit in zip(("minus", "plus", "principal"), orbit_models(load_diagram(DIAGRAM_PRESETS[name])))
]
PURE = _draws(random_pure, 0, 300)
ELLIPTIC = _draws(lambda rng: random_pure_elliptic(rng, max_cutoff=18), 1, 200)


def test_population():
    chi_zero = [name for name, a in SPACES if a.homotopy_euler_characteristic() == 0]
    assert len(SPACES) > 100 and len(chi_zero) > 30
    assert set(DIAGRAM_PRESETS) <= {name for name, _ in SPACES}
    assert len(ORBITS) == 3 * len(DIAGRAM_PRESETS)
    assert len(PURE) > 200 and len(ELLIPTIC) > 100


@pytest.mark.parametrize("name, a", SPACES + ORBITS, ids=[name for name, _ in SPACES + ORBITS])
def test_catalog_and_preset_models(name, a):
    assert_matches_reference(a)


def test_random_draws():
    for a in PURE + ELLIPTIC:
        assert_matches_reference(a)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_coupled_k_pairs(k):
    assert_matches_reference(coupled_k_pair_model(k, 0))


def test_fractional_coefficients():
    """f_j with ``Fraction`` coefficients are scaled to integers: the
    basis matches the reference, and the model rescaled to integral
    images (a -> 2a, b -> 3b, c -> 4c) has the same leading monomials
    and shares."""
    gens = [("x", 2), ("y", 2), ("a", 3), ("b", 3), ("c", 5)]
    fractional = SullivanAlgebra.build(
        gens, {"a": "1/2*x^2", "b": "2/3*x*y + y^2", "c": "1/2*x^2*y - 3/4*y^3"}, cutoff=0
    )
    integral = SullivanAlgebra.build(gens, {"a": "x^2", "b": "2*x*y + 3*y^2", "c": "2*x^2*y - 3*y^3"}, cutoff=0)
    assert_matches_reference(fractional)
    ideal, other = ch._Ideal(fractional), ch._Ideal(integral)
    assert all(ideal.degree(k) == other.degree(k) for k in range(0, ideal.top + 1, 2))


def test_tensor_product_reduces_no_pair_across_its_factors(monkeypatch):
    """The leading monomials of the two factors of a tensor product are
    coprime, so no S-pair across them is reduced: every polynomial the
    basis reduces lies in one factor's variables.  Within each factor
    S-pairs are reduced, since its staircase is not a box."""
    a = tensor_product(coupled_k_pair_model(3, 0), coupled_k_pair_model(3, 0))
    assert_matches_reference(a)
    ideal = ch._Ideal(a)
    q = ideal.ring
    field = (1 << q._width) - 1
    left, right = (
        sum(field << s for g, s in zip(q.generators, q._shifts) if g.name[0] == side) for side in "LR"
    )
    reduced, original = [], ch._Ideal._reduced
    monkeypatch.setattr(ch._Ideal, "_reduced", lambda self, p: reduced.append(dict(p)) or original(self, p))
    ideal.degree(ideal.top)
    sides = {frozenset((bool(m & left), bool(m & right)) for m in p) for p in reduced}
    assert sides == {frozenset({(True, False)}), frozenset({(False, True)})}
    assert len(reduced) > len(ideal.relations)  # some S-pair within a factor
