"""Differential rows on packed monomials against the tuple route they replaced.

``cohomology._action_rows`` builds each degree's d rows in one pass over
packed monomials (``SullivanAlgebra._d_rows``), against one
``{packed monomial: position}`` index per degree.  The reference here is
the older route: Leibniz's rule on exponent tuples, one monomial at a
time (``reference_d_terms``), with each term written through a
``{monomial: position}`` index of the next degree.  Every row must be
equal, and its keys must come in the same order.
"""

import json
import random
from operator import add
from pathlib import Path

import pytest

from instance_generators import k_pair_model, random_sheared
from sullivan import cohomology
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import SullivanAlgebra
from sullivan.documents import load_diagram, run_analysis
from sullivan.models import borel_model_cohomogeneity_one

GOLDEN = Path(__file__).parent / "golden"


def _koszul_sign(mask1, mask2):
    if mask1 & mask2:
        return 0
    inversions = 0
    while mask1 and mask2:
        low = mask2 & -mask2
        inversions += (mask1 & -(low << 1)).bit_count()
        mask2 ^= low
    return -1 if inversions & 1 else 1


def _mask(algebra, mono):
    return sum(1 << i for i in algebra._odd if mono[i])


def reference_d_terms(algebra, mono):
    """d of a monomial on exponent tuples: for each generator i of the
    monomial, its exponent times the monomial with one factor i removed,
    times d(i), with the sign of moving d past the odd factors before an
    odd generator or after an even one."""
    terms = {}
    mask = _mask(algebra, mono)
    for i, image in enumerate(algebra._images):
        e = mono[i]
        if not e or not image:
            continue
        bit = 1 << i
        if mask & bit:
            rest = mask ^ bit
            parity = (mask & (bit - 1)).bit_count()
        else:
            rest = mask
            parity = (mask >> (i + 1)).bit_count()
        c1 = -e if parity & 1 else e
        reduced = mono[:i] + (e - 1,) + mono[i + 1 :]
        for m2, _, c2 in image:
            sign = _koszul_sign(rest, _mask(algebra, m2))
            if sign:
                product = tuple(map(add, reduced, m2))
                terms[product] = terms.get(product, 0) + sign * c1 * c2
    return {m: c for m, c in terms.items() if c}


def reference_action_rows(algebra, degree):
    index = {m: i for i, m in enumerate(algebra._basis(degree + 1))}
    return [
        {index[m]: c for m, c in reference_d_terms(algebra, mono).items()}
        for mono in algebra._basis(degree)
    ]


def assert_rows_match(algebra, degrees=None):
    """Rows equal to the reference, key order included, in every degree
    0..cutoff (or the given degrees); returns the number of nonzero rows."""
    nonzero = 0
    for n in range(algebra.cutoff + 1) if degrees is None else degrees:
        got, expected = cohomology._action_rows(algebra, n), reference_action_rows(algebra, n)
        assert got == expected, n
        assert [list(row.items()) for row in got] == [list(row.items()) for row in expected], n
        nonzero += sum(1 for row in got if row)
    return nonzero


def _sheared(seed, count):
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < count:
        pair = random_sheared(rng)
        if pair is not None:
            drawn.append(pair[0])
    return drawn


class TestRowsMatchTheTupleRoute:
    @pytest.mark.parametrize("seed, count", [(1013, 60), (7, 20)])
    def test_sheared_and_associated_pure(self, seed, count):
        nonzero = 0
        for algebra in _sheared(seed, count):
            nonzero += assert_rows_match(algebra)
            nonzero += assert_rows_match(algebra.associated_pure())
        assert nonzero > 1000

    @pytest.mark.parametrize("k, cutoff", [(2, 6), (3, 14), (4, 11), (5, 10)])
    def test_k_pair_models(self, k, cutoff):
        assert assert_rows_match(k_pair_model(k, cutoff))

    @pytest.mark.parametrize("name", sorted(DIAGRAM_PRESETS))
    def test_preset_space_and_borel_models(self, name):
        package = borel_model_cohomogeneity_one(load_diagram(DIAGRAM_PRESETS[name]))
        assert assert_rows_match(package.space) + assert_rows_match(package.borel)

    @pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.json")))
    def test_golden_inputs(self, monkeypatch, name):
        """Every algebra a golden report builds rows for, in every degree,
        through ``_action_rows`` or the cleared chain ``_echelons``, with
        the ΛQ route of the table patched out.  On the route, a model
        report whose space has χ_π = 0 builds no d rows at all."""
        document = json.loads((GOLDEN / f"{name}.json").read_text(encoding="ascii"))["input"]
        seen = []
        for attr in ("_action_rows", "_echelons"):
            original = getattr(cohomology, attr)

            def recorded(algebra, degree, _original=original):
                if all(algebra is not a for a in seen):
                    seen.append(algebra)
                return _original(algebra, degree)

            monkeypatch.setattr(cohomology, attr, recorded)
        report = run_analysis(document)
        if report["kind"] == "model" and report["space"]["chi_pi"] == 0:
            assert seen == []
        del seen[:]
        monkeypatch.setattr(cohomology, "_h0_blocks", lambda a: None)
        run_analysis(document)
        monkeypatch.undo()
        assert seen
        for algebra in seen:
            assert_rows_match(algebra)

    def test_fraction_coefficients(self):
        algebra = SullivanAlgebra.build(
            [("x", 2), ("y", 2), ("a", 3), ("b", 3), ("c", 5)],
            {"a": "1/2*x^2", "b": "2/3*x*y + y^2", "c": "1/2*x^2*y - 3/4*y^3"},
            cutoff=12,
        )
        assert assert_rows_match(algebra)
        assert any(
            type(c) is not int
            for n in range(13)
            for row in cohomology._action_rows(algebra, n)
            for c in row.values()
        )


class TestFieldWidth:
    """x in degree 2 and a in degree 3 with d a = x^2: the field of x sits
    below the field of a, so an exponent of x that outgrows its field
    carries into a's and changes the row or its position."""

    @pytest.mark.parametrize("top", [255, 65535])
    def test_exponent_past_a_field_boundary(self, top):
        lowest, highest = 2 * (top - 2), 2 * (top + 2) + 3
        algebra = SullivanAlgebra.build([("x", 2), ("a", 3)], {"a": "x^2"}, cutoff=highest + 1)
        degrees = range(lowest, highest + 1)
        assert max(m[0] for n in degrees for m in algebra._basis(n + 1)) > top + 1
        assert assert_rows_match(algebra, degrees) > 4
        for n in degrees:
            for mono in algebra._basis(n):
                assert algebra._d_terms(mono) == reference_d_terms(algebra, mono)

    def test_monomial_past_the_cutoff_widens_the_fields(self):
        algebra = SullivanAlgebra.build([("x", 2), ("a", 3)], {"a": "x^2"}, cutoff=6)
        before = cohomology._action_rows(algebra, 5)
        mono = (300, 1)
        assert algebra._d_terms(mono) == reference_d_terms(algebra, mono) == {(302, 0): 1}
        assert cohomology._action_rows(algebra, 5) == before
        assert assert_rows_match(algebra)
