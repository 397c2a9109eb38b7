"""Graded algebra core: bases, Koszul signs, differentials, purity."""

import gc
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

from instance_generators import random_degree_algebras, sheared_pairs
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.cdga import CdgaMorphism, Generator, SullivanAlgebra
from sullivan.cli import main
from sullivan.documents import load_diagram
from sullivan.errors import (
    CutoffExceeded,
    DegreeMismatch,
    InvalidDegrees,
    InvalidDifferential,
    NotAChainMap,
    UnknownGenerator,
    ValidationError,
)
from sullivan.models import cohomogeneity_one_model


@pytest.fixture
def s2():
    return SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=8)


@pytest.fixture
def cp2sum():
    return SullivanAlgebra.build(
        [("x", 2), ("y", 2), ("n", 3), ("m", 3)],
        {"n": "x^2+y^2", "m": "x*y"},
        cutoff=8,
    )


def series_coefficients(degrees_even, degrees_odd, top):
    """Independent count of monomials per degree: the coefficients of
    prod 1/(1-t^e) * prod (1+t^o), multiplied out directly."""
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for e in degrees_even:
        new = [0] * (top + 1)
        for n in range(top + 1):
            if coeffs[n]:
                k = n
                while k <= top:
                    new[k] += coeffs[n]
                    k += e
        coeffs = new
    for o in degrees_odd:
        new = coeffs[:]
        for n in range(top + 1 - o):
            new[n + o] += coeffs[n]
        coeffs = new
    return coeffs


def count_d_rows(monkeypatch) -> list:
    """The algebras of the ``_d_rows`` calls made from here on, one
    entry per call."""
    calls = []
    d_rows = SullivanAlgebra._d_rows

    def counting(self, monos, index):
        calls.append(self)
        return d_rows(self, monos, index)

    monkeypatch.setattr(SullivanAlgebra, "_d_rows", counting)
    return calls


class TestConstruction:
    def test_degree_zero_generator_rejected(self):
        with pytest.raises(InvalidDegrees):
            Generator("x", 0)

    @pytest.mark.parametrize("name", ["x-y", "2", "x y", "", "y'", "x^2", None])
    def test_name_outside_polynomial_grammar_rejected(self, name):
        # "x-y" would be reported as a representative x-y^2, which the
        # grammar reads as x minus y^2
        with pytest.raises(ValidationError):
            Generator(name, 2)
        with pytest.raises(ValidationError):
            SullivanAlgebra.build([(name, 2), ("q", 3)], {}, cutoff=4)

    @pytest.mark.parametrize("cutoff", [True, False])
    def test_bool_cutoff_rejected(self, cutoff):
        # a bool passed as int would be written to a model document as
        # "cutoff": true, which load_document rejects
        with pytest.raises(CutoffExceeded):
            SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=cutoff)
        s2 = SullivanAlgebra.build([("u", 2), ("q", 3)], {"q": "u^2"}, cutoff=4)
        with pytest.raises(CutoffExceeded):
            s2.with_cutoff(cutoff)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidDegrees):
            SullivanAlgebra([Generator("x", 2), Generator("x", 4)], cutoff=4)

    def test_inhomogeneous_differential_rejected(self):
        with pytest.raises(InvalidDifferential):
            SullivanAlgebra.build([("x", 2), ("q", 3)], {"q": "x^2+x"}, cutoff=6)

    def test_wrong_degree_differential_rejected(self):
        with pytest.raises(InvalidDifferential):
            SullivanAlgebra.build([("x", 2), ("q", 5)], {"q": "x^2"}, cutoff=6)

    def test_d_squared_enforced(self):
        # dq = y x has the right degree, but dx = y^2 makes d(dq) = y^3
        with pytest.raises(InvalidDifferential, match=r"^d\(d\(q\)\) != 0$"):
            SullivanAlgebra.build(
                [("y", 2), ("x", 3), ("q", 4)],
                {"x": "y^2", "q": "y*x"},
                cutoff=8,
            )

    @pytest.mark.parametrize(
        "generators, first",
        [
            ([("x", 2), ("u", 2), ("q", 3)], "u"),
            ([("x", 2), ("q", 3), ("u", 2)], "q"),
        ],
    )
    def test_d_squared_names_the_first_failing_generator(self, generators, first):
        # d(d(u)) = u^2 and d(d(q)) = 2uq: both fail, in one batched check
        with pytest.raises(InvalidDifferential, match=rf"^d\(d\({first}\)\) != 0$"):
            SullivanAlgebra.build(generators, {"u": "q", "q": "u^2"}, cutoff=6)

    def test_d_squared_fails_on_the_last_generator_alone(self):
        # d(d(t)) = d(a)*b = x^2*b, and every other d(d(g)) vanishes
        with pytest.raises(InvalidDifferential, match=r"^d\(d\(t\)\) != 0$"):
            SullivanAlgebra.build(
                [("x", 2), ("a", 3), ("b", 3), ("t", 5)], {"a": "x^2", "t": "a*b"}, cutoff=8
            )

    @pytest.mark.parametrize(
        "generators, differential, closed",
        [
            ([("x", 2), ("y", 2), ("n", 3), ("m", 3)], {"n": "x^2+y^2", "m": "x*y"}, True),
            ([("x", 2), ("u", 2), ("q", 3)], {"u": "q", "q": "u^2"}, False),
        ],
        ids=["closed", "two-failing"],
    )
    def test_d_squared_check_is_one_d_rows_call(self, generators, differential, closed, monkeypatch):
        calls = count_d_rows(monkeypatch)
        try:
            SullivanAlgebra.build(generators, differential, cutoff=8)
        except InvalidDifferential:
            assert not closed
        else:
            assert closed
        assert len(calls) == 1

    def test_differential_of_an_unknown_generator_rejected(self):
        with pytest.raises(
            UnknownGenerator, match=r"^differential assigned to unknown generator 'z'$"
        ):
            SullivanAlgebra.build([("x", 2), ("q", 3)], {"q": "x^2", "z": "x"}, cutoff=6)

    def test_algebra_is_freed_without_the_garbage_collector(self, cp2sum):
        """The algebra holds no element of its own (no reference cycle), so
        reference counting frees it even after its differential, products
        and cohomology have been used."""
        from sullivan.cohomology import betti_numbers, cohomology

        gc.disable()
        try:
            a = SullivanAlgebra.build(
                [("x", 2), ("y", 2), ("n", 3), ("m", 3)],
                {"n": "x^2+y^2", "m": "x*y"},
                cutoff=8,
            )
            assert a.verify_d_squared() and a.is_pure()
            assert a.apply_differential(a.gen("n") * a.gen("m")) == a._d_element(
                a.gen("n") * a.gen("m")
            )
            assert a.differential == cp2sum.differential
            assert betti_numbers(a) == cohomology(a).betti
            ref = weakref.ref(a)
            del a
            assert ref() is None
        finally:
            gc.enable()

    def test_unit_algebra(self):
        unit = SullivanAlgebra([], cutoff=4)
        assert unit.monomial_basis(0) == ((),)
        assert unit.monomial_basis(3) == ()
        assert unit.one() * unit.one() == unit.one()
        assert unit.homotopy_euler_characteristic() == 0
        assert unit.is_pure()


def product_basis(degrees, n):
    """Independent enumeration of the degree-n monomials: every exponent
    tuple in range (odd exponents at most 1) filtered by degree, sorted."""
    ranges = [range(2) if d % 2 else range(n // d + 1) for d in degrees]
    return tuple(
        sorted(e for e in itertools.product(*ranges) if sum(map(int.__mul__, e, degrees)) == n)
    )


class TestMonomialBasis:
    @pytest.mark.parametrize("seed", [3, 1013])
    def test_bases_match_product_enumeration(self, seed):
        for a, degrees in random_degree_algebras(seed, 25):
            top = a.cutoff + 1
            order = list(range(top + 1))
            random.Random(seed + top).shuffle(order)
            # the highest degree first, then the others, lower ones included
            for n in [top] + order:
                assert a._basis(n) == product_basis(degrees, n), (degrees, n)

    @pytest.mark.parametrize("seed", [3, 1013])
    def test_each_degree_is_built_once(self, seed):
        for a, degrees in random_degree_algebras(seed, 25):
            top = a.cutoff + 1
            # increasing then decreasing degrees, and the highest degree first on a copy
            for algebra, order in (
                (a, list(range(top + 1)) + list(range(top, -1, -1))),
                (a.with_cutoff(a.cutoff), [top] + list(range(top + 1))),
            ):
                built = []

                class Recording(list):
                    def append(self, monos):
                        built.append(len(self))
                        super().append(monos)

                algebra._bases = Recording()
                highest = 0
                for n in order:
                    algebra._basis(n)
                    highest = max(highest, n)
                    assert built == list(range(highest + 1)), (degrees, order, n)

    def test_widening_repacks_every_basis(self):
        # bases packed at the constructor's width, then a degree past it
        rng = random.Random(20)
        for _ in range(40):
            degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            a = SullivanAlgebra.build([(f"g{i}", d) for i, d in enumerate(degrees)], cutoff=rng.randint(0, 3))
            for n in range(a.cutoff + 2):
                a._positions(n)
            width, top = a._width, 4 * (a.cutoff + 2) + 3
            a._positions(top)
            assert a._width > width
            for n in range(top + 1):
                expected = product_basis(degrees, n)
                assert a._basis(n) == expected, (degrees, n)
                packed = [sum(e << a._width * i for i, e in enumerate(m)) for m in expected]
                assert list(a._positions(n)) == packed, (degrees, n)

    def test_single_even_generator(self):
        a = SullivanAlgebra.build([("u", 2)], cutoff=8)
        assert len(a.monomial_basis(4)) == 1  # u^2 only

    def test_odd_square_vanishes(self):
        a = SullivanAlgebra.build([("q", 3)], cutoff=8)
        assert len(a.monomial_basis(3)) == 1
        assert a.monomial_basis(6) == ()

    def test_degree_five_count(self, cp2sum):
        # x*n, x*m, y*n, y*m
        assert len(cp2sum.monomial_basis(5)) == 4

    def test_cutoff_guard(self, s2):
        with pytest.raises(CutoffExceeded):
            s2.monomial_basis(9)

    def test_counts_match_series(self, cp2sum):
        expected = series_coefficients([2, 2], [3, 3], 8)
        got = [len(cp2sum.monomial_basis(n)) for n in range(9)]
        assert got == expected

    def test_deterministic_order(self, cp2sum):
        assert cp2sum.monomial_basis(5) == cp2sum.monomial_basis(5)


def _at_cutoff(a: SullivanAlgebra, cutoff: int) -> SullivanAlgebra:
    """A freshly built algebra with the generators and differential of
    ``a`` up to ``cutoff``, sharing nothing with it."""
    return SullivanAlgebra(a.generators, cutoff, dict(zip([g.name for g in a.generators], a.differential)))


def _shared_bases_sources():
    yield from (sheared for seed in (3, 1013) for sheared, _ in sheared_pairs(seed, 6))
    for name in sorted(DIAGRAM_PRESETS):
        yield cohomogeneity_one_model(load_diagram(DIAGRAM_PRESETS[name]))


class TestSharedBases:
    """``associated_pure`` and ``with_cutoff`` copies share their source's
    lists of bases and position indexes exactly when their packed fields
    have the same width.  A cutoff of 6 fits 3-bit fields and 7 or 8
    4-bit ones, unless a generator's degree widens them.  Whichever of
    the two is walked first, each one's bases and indexes are those of a
    freshly built algebra, and so are the source's after the copy widens
    its fields past the shared ones."""

    COPIES = {
        "associated_pure": SullivanAlgebra.associated_pure,
        **{f"cutoff-{c}": lambda a, c=c: a.with_cutoff(c) for c in (6, 7, 8)},
    }

    @staticmethod
    def _walk(algebra):
        fresh = _at_cutoff(algebra, algebra.cutoff)
        assert fresh._width == algebra._width
        for n in range(algebra.cutoff + 1):
            assert algebra._monomials(n) == fresh._monomials(n), n
            assert list(algebra._positions(n).items()) == list(fresh._positions(n).items()), n

    @pytest.mark.parametrize("copy_first", [True, False], ids=["copy-first", "source-first"])
    def test_copies_share_bases_exactly_at_equal_width(self, copy_first):
        shared = set()
        for a in _shared_bases_sources():
            for name, make in self.COPIES.items():
                source = _at_cutoff(a, 6)
                copy = make(source)
                same_width = copy._width == source._width
                shared.add((name, same_width))
                for algebra in (copy, source) if copy_first else (source, copy):
                    self._walk(algebra)
                    assert (copy._bases is source._bases) is same_width, name
                    assert (copy._positions_cache is source._positions_cache) is same_width, name
                if same_width:
                    copy._positions(1 << copy._width)  # widens the copy's fields
                    assert copy._width > source._width
                    assert copy._bases is not source._bases
                    self._walk(source)
        # both sides of the width change occur
        assert {("associated_pure", True), ("cutoff-6", True), ("cutoff-7", False)} <= shared


class TestProducts:
    def test_odd_square_is_zero(self, s2):
        q = s2.gen("q")
        assert (q * q).is_zero

    def test_anticommutation(self, cp2sum):
        n, m = cp2sum.gen("n"), cp2sum.gen("m")
        assert n * m == -(m * n)

    def test_difference_of_squares(self, cp2sum):
        x, y = cp2sum.gen("x"), cp2sum.gen("y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_cross_algebra_rejected(self, s2, cp2sum):
        with pytest.raises(UnknownGenerator):
            s2.gen("u") * cp2sum.gen("x")

    def test_scalar_and_power(self, s2):
        u = s2.gen("u")
        assert 3 * u == u + u + u
        assert u**2 == u * u


class TestParsePowers:
    def test_power_equals_repeated_product(self, cp2sum):
        y = cp2sum.gen("y")
        for name in ("x", "n"):
            g = cp2sum.gen(name)
            product = cp2sum.one()
            for k in range(5):
                assert cp2sum.parse(f"{name}^{k}") == product
                assert cp2sum.parse(f"3*{name}^{k}*y") == 3 * product * y
                product = product * g

    @pytest.mark.parametrize(
        "template",
        [
            {"kind": "model", "generators": [["u", 2], ["q", 3]], "cutoff": 8},
            {"kind": "homogeneous", "G": "SU(2)", "H": "T1"},
        ],
    )
    def test_exponent_bomb_rejected_without_expanding(self, template, tmp_path, monkeypatch):
        calls = 0
        multiply = SullivanAlgebra.multiply

        def counting(self, e1, e2):
            nonlocal calls
            calls += 1
            return multiply(self, e1, e2)

        monkeypatch.setattr(SullivanAlgebra, "multiply", counting)
        counts = {}
        for exponent in (3, 200000):
            doc = dict(template)
            if doc["kind"] == "model":
                doc["differential"] = {"q": f"u^{exponent}"}
            else:
                doc["embedding"] = {"u1": f"u1^{exponent}"}
            path = tmp_path / "bomb.json"
            path.write_text(json.dumps(doc))
            calls = 0
            assert main(["report", "--file", str(path)]) == 1
            counts[exponent] = calls
        assert counts[200000] == counts[3]


class TestDifferential:
    def test_leibniz_on_product(self, cp2sum):
        n, m = cp2sum.gen("n"), cp2sum.gen("m")
        x, y = cp2sum.gen("x"), cp2sum.gen("y")
        # d(nm) = (x^2+y^2) m - n (x y)
        assert cp2sum.apply_differential(n * m) == (x * x + y * y) * m - n * (x * y)

    def test_closed_square(self, s2):
        u = s2.gen("u")
        assert s2.apply_differential(u * u).is_zero

    def test_even_factor_first(self, s2):
        u, q = s2.gen("u"), s2.gen("q")
        assert s2.apply_differential(u * q) == u**3

    def test_mixed_degree_rejected(self, s2):
        with pytest.raises(DegreeMismatch):
            s2.apply_differential(s2.gen("u") + s2.gen("q"))

    def test_cutoff_guard(self, s2):
        with pytest.raises(CutoffExceeded):
            s2.apply_differential(s2.gen("u") ** 4)

    def test_d_squared_holds(self, cp2sum):
        assert cp2sum.verify_d_squared()


class TestPurity:
    def test_s2_is_pure(self, s2):
        assert s2.is_pure()

    def test_cp2sum_is_pure(self, cp2sum):
        assert cp2sum.is_pure()

    def test_odd_factor_breaks_purity(self):
        # dz has odd word length two, so z escapes the even subalgebra
        a = SullivanAlgebra.build(
            [("q", 3), ("p", 3), ("z", 5)], {"z": "q*p"}, cutoff=8
        )
        assert not a.is_pure()

    def test_nonclosed_even_breaks_purity(self):
        a = SullivanAlgebra.build([("z", 1), ("w", 2)], {"w": "z*w"}, cutoff=6)
        assert not a.is_pure()

    def test_associated_pure_projects(self):
        # dv = u^2 + z*zp keeps only u^2 under the pure projection
        a = SullivanAlgebra.build(
            [("u", 2), ("z", 1), ("zp", 3), ("v", 3)],
            {"v": "u^2+z*zp"},
            cutoff=8,
        )
        assert not a.is_pure()
        sigma = a.associated_pure()
        assert sigma.is_pure()
        assert sigma.verify_d_squared()
        index = [g.name for g in sigma.generators].index("v")
        assert sigma.differential[index] == sigma.gen("u") ** 2

    def test_associated_pure_fixes_pure(self, cp2sum):
        assert cp2sum.associated_pure().differential == cp2sum.differential

    def test_chi_pi(self, s2, cp2sum):
        assert s2.homotopy_euler_characteristic() == 0
        assert cp2sum.homotopy_euler_characteristic() == 0
        sphere = SullivanAlgebra.build([("q", 3)], cutoff=3)
        assert sphere.homotopy_euler_characteristic() == 1

    def test_chi_pi_unchanged_by_associated_pure(self):
        a = SullivanAlgebra.build(
            [("u", 2), ("z", 1), ("zp", 3), ("v", 3)],
            {"v": "u^2+z*zp"},
            cutoff=6,
        )
        assert (
            a.associated_pure().homotopy_euler_characteristic()
            == a.homotopy_euler_characteristic()
        )


class TestParsing:
    def test_round_trip(self, cp2sum):
        e = cp2sum.parse("3*x^2*y - 1/2*n*m + 7")
        assert cp2sum.parse(cp2sum.format_element(e)) == e

    def test_rational_coefficient(self, s2):
        e = s2.parse("2/3*u")
        assert e == Fraction(2, 3) * s2.gen("u")

    def test_unknown_name(self, s2):
        with pytest.raises(UnknownGenerator):
            s2.parse("v^2")

    def test_zero(self, s2):
        assert s2.parse("0").is_zero

    def test_garbage_rejected(self, s2):
        for text in ("", "+", "u +", "u ^", "2//3*u"):
            with pytest.raises(ValueError):
                s2.parse(text)


class TestMorphism:
    def test_identity(self, s2):
        phi = CdgaMorphism(s2, s2, {g.name: s2.gen(g.name) for g in s2.generators})
        u = s2.gen("u")
        assert phi.apply(u * u) == u * u

    def test_chain_condition_enforced(self, s2):
        poly = SullivanAlgebra.build([("u", 2)], cutoff=8)
        CdgaMorphism(poly, s2, {"u": s2.gen("u")})  # valid inclusion
        bad_target = SullivanAlgebra.build([("u", 2), ("q", 1)], {"q": "u"}, cutoff=8)
        with pytest.raises(NotAChainMap):
            # u is exact in the target, so u -> u does not commute with
            # d against the source where du = 0 ... u itself is closed on
            # both sides, but q's differential hits u; map u to q^... use
            # a degree-2 image that is not closed: none exists, so map a
            # closed source generator to a non-cocycle via a twisted target
            CdgaMorphism(
                SullivanAlgebra.build([("v", 1)], cutoff=8),
                bad_target,
                {"v": bad_target.gen("q")},
            )

    @staticmethod
    def _twisted():
        # a source with d = 0 and a target whose degree-2 generator e is
        # not closed (de = b), so u -> e fails the chain condition on u
        source = SullivanAlgebra.build([("u", 2), ("v", 2)], cutoff=6)
        target = SullivanAlgebra.build([("e", 2), ("b", 3)], {"e": "b"}, cutoff=6)
        return source, target

    @pytest.mark.parametrize(
        "images, first",
        [({"u": "e", "v": "e"}, "u"), ({"u": "0", "v": "e"}, "v"), ({"u": "e", "v": "0"}, "u")],
        ids=["both", "last-alone", "first-alone"],
    )
    def test_chain_condition_names_the_first_failing_generator(self, images, first, monkeypatch):
        source, target = self._twisted()
        assignment = {name: target.parse(text) for name, text in images.items()}
        calls = count_d_rows(monkeypatch)
        with pytest.raises(NotAChainMap, match=rf"^morphism does not commute with d on '{first}'$"):
            CdgaMorphism(source, target, assignment)
        assert calls == [target]  # every image's d from one batched call

    def test_chain_condition_check_is_one_d_rows_call(self, cp2sum, monkeypatch):
        source = SullivanAlgebra.build([("x", 2), ("y", 2), ("n", 3)], {"n": "x^2+y^2"}, cutoff=8)
        calls = count_d_rows(monkeypatch)
        CdgaMorphism(source, cp2sum, {g.name: cp2sum.gen(g.name) for g in source.generators})
        assert calls == [cp2sum]

    def test_degree_mismatch(self, s2):
        poly = SullivanAlgebra.build([("u", 4)], cutoff=8)
        with pytest.raises(DegreeMismatch):
            CdgaMorphism(poly, s2, {"u": s2.gen("u")})

    def test_substitute_is_algebra_map(self, cp2sum):
        x, y = cp2sum.gen("x"), cp2sum.gen("y")
        image = cp2sum.substitute((x + y) * (x + y), {"x": x + y})
        expected = ((x + y) + y) * ((x + y) + y)
        assert image == expected
