"""Cohomology classes against the kernel-complement route they replaced.

``cohomology._classes`` back-substitutes only the free columns that
become classes, found from the coboundaries' free coordinates.  The
reference here is the older route: the full kernel basis of the block
(``_kernel_vectors``, one back-substitution per free column), written
over the space's positions, and its greedy complement of the handed-up
coboundaries (``linalg._complement``).  Every block of every table must
give equal representative dicts and equal handed-up coboundary tuples.

The representatives' elements are checked too, against the route that
built them over ``SullivanAlgebra._basis``, which unpacks every monomial
of the degree; the table unpacks only the positions it writes.
"""

import json
import random
from pathlib import Path

import pytest

from induced_reference import representative_vectors
from instance_generators import k_pair_model, random_pure_elliptic, random_sheared
from sullivan import cohomology, linalg
from sullivan.cdga import AlgebraElement, SullivanAlgebra
from sullivan.documents import load_model, run_analysis
from sullivan.errors import NotASubspace

GOLDEN = Path(__file__).parent / "golden"


def _reference_classes(rows, block, image):
    echelon, pivots = linalg._echelon(linalg._transpose([rows[p] for p in block]))
    cocycles = linalg._kernel_vectors(echelon, pivots, len(block))
    embedded = [{block[j]: x for j, x in v.items()} for v in cocycles]
    return linalg._complement(image, embedded), tuple(rows[block[c]] for c in pivots)


@pytest.fixture
def compared(monkeypatch):
    """Counts of the blocks with coboundaries and of those with classes,
    while every ``_classes`` call is checked against the reference."""
    counts = {"with_image": 0, "with_classes": 0}
    classes = cohomology._classes

    def checked(rows, block, image):
        got = classes(rows, block, image)
        assert got == _reference_classes(rows, block, image)
        counts["with_image"] += bool(image)
        counts["with_classes"] += bool(got[0])
        return got

    monkeypatch.setattr(cohomology, "_classes", checked)
    return counts


class TestAgainstKernelComplement:
    """Tables with χ_π = 0 take the ΛQ route ``_h0_blocks``, which calls
    no ``_classes``; those tests patch it out to check the ΛV walk."""

    @pytest.mark.parametrize("k, cutoff", [(2, 6), (3, 14), (4, 11), (5, 10)])
    def test_k_pair_models(self, compared, k, cutoff, monkeypatch):
        routed = cohomology.cohomology(k_pair_model(k, cutoff))
        assert compared == {"with_image": 0, "with_classes": 0}
        monkeypatch.setattr(cohomology, "_h0_blocks", lambda a: None)
        table = cohomology.cohomology(k_pair_model(k, cutoff))
        assert sum(table.betti) == 2**k
        assert table.betti == routed.betti
        assert compared["with_image"] and compared["with_classes"]

    def test_random_pure_elliptic(self, compared):
        rng = random.Random(233)
        drawn = 0
        while drawn < 50:  # each table stops at its formal dimension
            algebra = random_pure_elliptic(rng, max_cutoff=16)
            if algebra is not None:
                cohomology.cohomology(algebra)
                drawn += 1
        assert compared["with_image"] > 30 and compared["with_classes"] > 30

    def test_random_sheared(self, compared):
        rng = random.Random(239)
        drawn = 0
        while drawn < 10:
            pair = random_sheared(rng)
            if pair is not None and not pair[0].is_pure():
                cohomology.cohomology(pair[0])
                drawn += 1
        assert compared["with_image"] and compared["with_classes"]

    @pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.json")))
    def test_golden_space_models(self, compared, name, monkeypatch):
        document = json.loads((GOLDEN / f"{name}.json").read_text(encoding="ascii"))["input"]
        report = run_analysis(document)
        # a space with χ_π = 0 takes the ΛQ route, and only its table is built
        assert bool(compared["with_classes"]) is (report["space"]["chi_pi"] != 0)
        monkeypatch.setattr(cohomology, "_h0_blocks", lambda a: None)
        assert run_analysis(document) == report
        assert compared["with_classes"]  # the biquotient stops below its first coboundary


def assert_representatives_match_basis_route(table):
    """Each degree's representatives equal, term for term and in order,
    the elements of the scaled kernel vectors written over ``_basis``."""
    a = table.algebra
    for n in range(table.cutoff + 1):
        basis = a._basis(n)
        expected = [
            AlgebraElement(a, {basis[p]: c for p, c in linalg._unit_scaled(v).items()})
            for v in representative_vectors(table, n)
        ]
        got = table.representatives(n)
        assert [list(e.terms.items()) for e in got] == [list(e.terms.items()) for e in expected], n


class TestRepresentativesAgainstBasisRoute:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_k_pair_models(self, k):
        table = cohomology.cohomology(k_pair_model(k, 14))
        assert sum(table.betti) == 2**k
        assert_representatives_match_basis_route(table)

    @pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("model-*.json")))
    def test_model_goldens(self, name):
        document = json.loads((GOLDEN / f"{name}.json").read_text(encoding="ascii"))["input"]
        table = cohomology.cohomology(load_model(document))
        assert sum(table.betti) > 1
        assert_representatives_match_basis_route(table)


class TestSubspaceCheck:
    """The containment check that ``_complement`` made on the handed-up
    coboundaries, here on the sphere model u, q with d q = u^2."""

    @pytest.fixture
    def s2(self):
        return SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=4)

    def test_handed_up_coboundaries_pass(self, s2):
        # degree 4 is spanned by u^2 = d q, so it has no class
        image = tuple(cohomology._action_rows(s2, 3))
        assert cohomology._classes(cohomology._action_rows(s2, 4), [0], image)[0] == ()

    def test_vector_that_is_not_a_cocycle(self, s2):
        # degree 3 is spanned by q, and d q = u^2 is not zero
        with pytest.raises(NotASubspace):
            cohomology._classes(cohomology._action_rows(s2, 3), [0], ({0: 1},))

    def test_dependent_image(self, s2):
        with pytest.raises(NotASubspace):
            cohomology._classes(cohomology._action_rows(s2, 4), [0], ({0: 1}, {0: 2}))
