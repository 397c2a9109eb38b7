"""The surjectivity verdict read from the space's cohomology table.

Every Borel package the library builds maps a Borel model whose
cohomology is generated by ΛQ into a pure space model on the same even
generators: H*(BH) = ΛQ for a pair, and ΛQ ⊗ Λ(n) with dn = e+e− for a
diagram, whose cocycles are ΛQ since ΛQ is a domain.  So the image of
H^n(f) is H_0^n, the strand-0 classes of the space's table, and H^n(f)
is onto iff no strand of index >= 1 has a class in degree n.  The
reference is the direct check ``surjectivity_by_parity``, which walks the
space's cleared chain and reads no table; a report's verdict reads the
table (``criteria._strand_surjectivity``)."""

import random

import pytest

from instance_generators import borel_packages, package_builds, random_pure
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import CdgaMorphism, Generator, SullivanAlgebra
from sullivan.cohomology import _formal_dimension, betti_numbers, cohomology, surjectivity_by_parity
from sullivan.criteria import _space_verdict, _strand_surjectivity
from sullivan.errors import NotElliptic, NotPure
from sullivan.models import BorelPackage


def _cases():
    """(name, package) with the space model cut off at N − 3, N and N + 5
    for its formal dimension N (no cutoff below 0)."""
    for name, build in sorted(package_builds().items()):
        n = _formal_dimension(build(None).space)
        for cutoff in sorted({max(0, n - 3), n, n + 5}):
            yield f"{name}@{cutoff}", build(cutoff)


CASES = list(_cases())


def test_population():
    names = {name.rsplit("@", 1)[0] for name, _ in CASES}
    assert set(DIAGRAM_PRESETS) <= names
    packages = {name for name, _ in borel_packages()}
    assert {name if name in DIAGRAM_PRESETS else f"{name}:maximal-torus" for name in packages} <= names
    assert "SU(3)/SU(2):block" in names
    assert len(CASES) > 300


@pytest.mark.parametrize("name, package", CASES)
def test_table_reading_matches_the_direct_check(name, package):
    assert _strand_surjectivity(cohomology(package.space)) == surjectivity_by_parity(package.forgetful, (0, 1))


def test_a_space_model_that_is_not_pure_raises():
    """x in degree 2 and u, v, w in degree 1 with dw = uv, which has odd
    factors, so the model has one block per degree, key 0, and its table
    would read as onto.  The Borel model Q[x] maps x to x, and the
    classes u, v of degree 1 and uw, vw of degree 2 are not hit."""
    gens = [Generator("x", 2), Generator("u", 1), Generator("v", 1), Generator("w", 1)]
    draft = SullivanAlgebra(gens, 4)
    space = SullivanAlgebra(gens, 4, {"w": draft.parse("u*v")})
    borel = SullivanAlgebra([Generator("x", 2)], 4)
    package = BorelPackage(space, borel, CdgaMorphism(borel, space, {"x": space.gen("x")}))
    assert surjectivity_by_parity(package.forgetful, (0, 1)) == ((False, 2), (False, 1))
    with pytest.raises(NotPure):
        _strand_surjectivity(cohomology(space))
    with pytest.raises(NotPure):
        _space_verdict(space, "homogeneous", 0, True, "")


def test_no_compact_quotient_iff_the_betti_oracle_has_a_class_above_n():
    """A verdict whose cutoff reaches the formal dimension N raises
    NotElliptic exactly when the model's cohomology is infinite.  The
    oracle is the cleared chain through N + w_Q, for w_Q the largest even
    generator degree, which never asks the H_0 rule: a pure model's
    cohomology is infinite iff it has a class in N + 1..N + w_Q.  The
    draws are ``random_pure`` of seeds 0-399 with N >= 0, each cut off at
    N, N + 1 and N + w_Q; the hypotheses are off, so only finiteness can
    raise."""
    draws = [(seed, random_pure(random.Random(seed))) for seed in range(400)]
    draws = [(seed, a) for seed, a in draws if a is not None]
    infinite, mismatches = 0, []
    for seed, a in draws:
        n = _formal_dimension(a)
        w_q = max((g.degree for g in a.generators if not g.is_odd), default=0)
        expected = any(betti_numbers(a.with_cutoff(n + w_q))[n + 1 :])
        infinite += expected
        for cutoff in (n, n + 1, n + w_q):
            try:
                _space_verdict(a.with_cutoff(cutoff), "model", 0, False, "")
                rejected = False
            except NotElliptic:
                rejected = True
            if rejected != expected:
                mismatches.append((seed, cutoff))
    assert (len(draws), infinite) == (288, 121)
    assert mismatches == []
