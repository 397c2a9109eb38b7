"""Randomized invariants: signs, Leibniz, duality, counting, exactness."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from induced_reference import class_coordinates, induced_map
from instance_generators import (
    conjugated,
    k_pair_model,
    random_mixed_two_stage,
    random_pure_elliptic,
    random_sheared,
    sheared_pairs,
    shears,
    tensor_product,
)
from sullivan import linalg
from sullivan.cdga import AlgebraElement, CdgaMorphism, SullivanAlgebra
from sullivan.cohomology import (
    _formal_dimension,
    betti_numbers,
    cohomology,
    even_degree_surjectivity,
    h0_dims,
    lower_grading,
    poincare_duality_holds,
)
from sullivan.catalog import DIAGRAM_PRESETS
from sullivan.criteria import (
    FormalityVerdict,
    even_subalgebra_inclusion,
    pure_formality,
)
from sullivan.errors import NotASubspace
from sullivan.linalg import RationalMatrix, kernel_basis, rank_rows

GOLDEN = Path(__file__).parent / "golden"


def random_algebra(rng):
    """Small random algebra (not necessarily elliptic) for sign checks."""
    n = rng.randint(1, 4)
    degrees = [rng.randint(1, 5) for _ in range(n)]
    gens = [(f"g{i + 1}", d) for i, d in enumerate(degrees)]
    return SullivanAlgebra.build(gens, cutoff=12)


def random_homogeneous_element(rng, algebra, max_degree=8):
    degrees = [
        n for n in range(1, max_degree + 1) if algebra._basis(n)
    ]
    if not degrees:
        return None
    degree = rng.choice(degrees)
    terms = {}
    for mono in algebra._basis(degree):
        if rng.random() < 0.6:
            terms[mono] = Fraction(rng.randint(-3, 3))
    element = AlgebraElement(algebra, terms)
    return None if element.is_zero else element


def _combination(rng, vectors):
    """A random rational combination of the given vectors."""
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vectors]
    return tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(len(vectors[0])))


def _draw_independent(dim, count, draw):
    """count linearly independent vectors, each drawn by draw()."""
    reducer = linalg._Reducer(dim)
    vectors = []
    while len(vectors) < count:
        v = draw()
        if reducer.add(v):
            vectors.append(v)
    return tuple(vectors)


class TestSigns:
    def test_graded_commutativity(self):
        rng = random.Random(101)
        checked = 0
        while checked < 150:
            algebra = random_algebra(rng)
            e1 = random_homogeneous_element(rng, algebra)
            e2 = random_homogeneous_element(rng, algebra)
            if e1 is None or e2 is None:
                continue
            sign = (-1) ** (e1.degree * e2.degree)
            assert e1 * e2 == sign * (e2 * e1)
            checked += 1

    def test_associativity(self):
        rng = random.Random(103)
        checked = 0
        while checked < 100:
            algebra = random_algebra(rng)
            elements = [random_homogeneous_element(rng, algebra, 6) for _ in range(3)]
            if any(e is None for e in elements):
                continue
            e1, e2, e3 = elements
            assert (e1 * e2) * e3 == e1 * (e2 * e3)
            checked += 1


class TestDifferentialLaws:
    def test_leibniz(self):
        rng = random.Random(107)
        checked = 0
        while checked < 150:
            algebra = random_pure_elliptic(rng)
            if algebra is None:
                continue
            e1 = random_homogeneous_element(rng, algebra)
            e2 = random_homogeneous_element(rng, algebra)
            if e1 is None or e2 is None:
                continue
            left = algebra._d_element(e1 * e2)
            sign = (-1) ** e1.degree
            right = algebra._d_element(e1) * e2 + sign * (e1 * algebra._d_element(e2))
            assert left == right
            checked += 1

    def test_d_squared_on_monomials(self):
        rng = random.Random(109)
        checked = 0
        while checked < 40:
            algebra = random_pure_elliptic(rng)
            if algebra is None:
                continue
            for n in range(min(algebra.cutoff, 10) + 1):
                for mono in algebra._basis(n):
                    assert algebra._d_element(algebra._d_monomial(mono)).is_zero
            checked += 1

    def test_sheared_differentials_square_to_zero(self):
        rng = random.Random(113)
        checked = 0
        while checked < 25:
            pair = random_sheared(rng)
            if pair is None:
                continue
            sheared, core = pair
            assert sheared.verify_d_squared()
            assert (
                sheared.homotopy_euler_characteristic()
                == core.homotopy_euler_characteristic()
            )
            assert sheared.associated_pure().differential == core.differential
            checked += 1


def _reference_product(algebra, m1, m2):
    """Koszul-normalized product of two monomials, counting the inversions
    between their odd generators one pair at a time; None when an odd
    generator squares."""
    o1 = [i for i in algebra._odd if m1[i]]
    inversions = 0
    for i in algebra._odd:
        if m2[i]:
            if m1[i]:
                return None
            inversions += sum(1 for j in o1 if j > i)
    return (-1 if inversions % 2 else 1), tuple(a + b for a, b in zip(m1, m2))


def _reference_d_monomial(algebra, mono):
    """d of a monomial by Leibniz's rule on ``AlgebraElement`` values with
    ``Fraction`` arithmetic: the reference ``SullivanAlgebra._d_terms``
    must reproduce exactly."""
    result = algebra.zero()
    odd_present = [i for i in algebra._odd if mono[i]]
    for i, (e, d_i) in enumerate(zip(mono, algebra.differential)):
        if not e or d_i.is_zero:
            continue
        # d moves past the odd factors before an odd generator, or after
        # an even one (whose d is odd)
        if algebra.generators[i].is_odd:
            parity = sum(1 for j in odd_present if j < i)
        else:
            parity = sum(1 for j in odd_present if j > i)
        reduced = tuple(x - 1 if k == i else x for k, x in enumerate(mono))
        scale = Fraction(-e if parity % 2 else e)
        terms = {}
        for m, c in d_i.terms.items():
            product = _reference_product(algebra, reduced, m)
            if product is not None:
                sign, key = product
                terms[key] = terms.get(key, Fraction(0)) + sign * scale * c
        result = result + AlgebraElement(algebra, terms)
    return result


def _reference_basis(degrees, degree):
    """Monomials of one degree by depth-first recursion over the
    generators, exponents ascending: lexicographic order."""
    out = []
    exponents = [0] * len(degrees)

    def descend(i, remaining):
        if i == len(degrees):
            if remaining == 0:
                out.append(tuple(exponents))
            return
        d = degrees[i]
        top = remaining // d if d % 2 == 0 else min(remaining // d, 1)
        for e in range(top + 1):
            exponents[i] = e
            descend(i + 1, remaining - e * d)
        exponents[i] = 0

    descend(0, degree)
    return tuple(out)


def _population(rng, draw, count):
    algebras = []
    while len(algebras) < count:
        drawn = draw(rng)
        if drawn is not None:
            algebras.append(drawn[0] if isinstance(drawn, tuple) else drawn)
    return algebras


class TestDerivationAgainstReference:
    def _assert_matches_reference(self, algebra):
        integral = all(c.denominator == 1 for img in algebra.differential for c in img.terms.values())
        checked = 0
        for n in range(algebra.cutoff + 1):
            for mono in algebra._basis(n):
                terms = algebra._d_terms(mono)
                assert terms == _reference_d_monomial(algebra, mono).terms
                assert all(c for c in terms.values())
                if integral:
                    assert all(type(c) is int for c in terms.values())
                assert algebra._d_monomial(mono).terms == terms
                checked += 1
        return checked

    @pytest.mark.parametrize(
        "draw, seed, count",
        [
            (random_sheared, 233, 60),
            (random_pure_elliptic, 239, 60),
            (random_mixed_two_stage, 241, 60),
        ],
        ids=["sheared", "pure_elliptic", "mixed_two_stage"],
    )
    def test_d_terms_equal_the_leibniz_reference(self, draw, seed, count):
        checked = sum(
            self._assert_matches_reference(a) for a in _population(random.Random(seed), draw, count)
        )
        assert checked > 2000

    def test_even_generator_with_nonzero_differential(self):
        """d w = a*x on an even w, with odd generators declared before and
        after it, so both Leibniz sign rules are taken (the populations
        above close every even generator)."""
        algebra = SullivanAlgebra.build(
            [("a", 1), ("x", 2), ("w", 2), ("e", 1), ("b", 3), ("c", 3)],
            {"w": "a*x", "b": "x^2", "c": "w*x + a*b"},
            cutoff=10,
        )
        assert not algebra.is_pure()
        assert self._assert_matches_reference(algebra) > 100
        a, w, e = (algebra.gen(name) for name in "awe")
        assert algebra.apply_differential(w * e) == a * algebra.gen("x") * e
        rng = random.Random(257)
        for _ in range(60):
            e1 = random_homogeneous_element(rng, algebra, 4)
            e2 = random_homogeneous_element(rng, algebra, 4)
            if e1 is None or e2 is None:
                continue
            left = algebra._d_element(e1 * e2)
            right = algebra._d_element(e1) * e2 + (-1) ** e1.degree * (e1 * algebra._d_element(e2))
            assert left == right

    def test_non_integral_images(self):
        """Images with fractional coefficients: the derivation keeps them
        as ``Fraction``, and the Betti numbers equal those of the model
        with each image rescaled to integers (a -> 2a, b -> 3b)."""
        gens = [("x", 2), ("y", 2), ("a", 3), ("b", 3), ("c", 5)]
        fractional = SullivanAlgebra.build(
            gens, {"a": "1/2*x^2", "b": "2/3*x*y + y^2", "c": "1/2*x^2*y - 3/4*y^3"}, cutoff=12
        )
        integral = SullivanAlgebra.build(
            gens, {"a": "x^2", "b": "2*x*y + 3*y^2", "c": "2*x^2*y - 3*y^3"}, cutoff=12
        )
        self._assert_matches_reference(fractional)
        x, y, a = (fractional.gen(name) for name in "xya")
        assert fractional.apply_differential(x * a) == Fraction(1, 2) * x**3
        assert any(
            type(c) is Fraction
            for n in range(13)
            for mono in fractional._basis(n)
            for c in fractional._d_terms(mono).values()
        )
        assert betti_numbers(fractional) == betti_numbers(integral)
        assert cohomology(fractional).betti == cohomology(integral).betti

    def test_basis_equals_recursive_reference(self):
        rng = random.Random(251)
        for _ in range(60):
            degrees = [rng.randint(1, 7) for _ in range(rng.randint(0, 6))]
            cutoff = rng.randint(0, 16)
            algebra = SullivanAlgebra.build(
                [(f"g{i + 1}", d) for i, d in enumerate(degrees)], cutoff=cutoff
            )
            for n in range(cutoff + 1):
                assert algebra.monomial_basis(n) == _reference_basis(degrees, n)


class TestCounting:
    def test_basis_counts_match_series(self):
        from test_cdga import series_coefficients

        rng = random.Random(127)
        for _ in range(60):
            n = rng.randint(1, 4)
            degrees = [rng.randint(1, 6) for _ in range(n)]
            gens = [(f"g{i + 1}", d) for i, d in enumerate(degrees)]
            algebra = SullivanAlgebra.build(gens, cutoff=10)
            expected = series_coefficients(
                [d for d in degrees if d % 2 == 0],
                [d for d in degrees if d % 2 == 1],
                10,
            )
            got = [len(algebra._basis(k)) for k in range(11)]
            assert got == expected


class TestEllipticDuality:
    def test_poincare_duality_on_population(self):
        rng = random.Random(131)
        checked = 0
        while checked < 60:
            algebra = random_pure_elliptic(rng)
            if algebra is None:
                continue
            betti = betti_numbers(algebra)
            fdim = max(n for n, b in enumerate(betti) if b)
            assert poincare_duality_holds(betti, fdim)
            assert betti[fdim] == 1  # one-dimensional top class
            checked += 1

    def test_lower_grading_splits_betti(self):
        rng = random.Random(137)
        checked = 0
        while checked < 25:
            algebra = random_pure_elliptic(rng, max_even=2, max_odd=3, max_cutoff=16)
            if algebra is None:
                continue
            betti = betti_numbers(algebra)
            table = lower_grading(algebra)
            for n in range(algebra.cutoff + 1):
                dims = table.dims(n)
                assert sum(dims.values()) == betti[n]
                for i in dims:
                    assert (n - i) % 2 == 0
            h0 = h0_dims(algebra)
            for n in h0:
                assert h0[n] == table.dim(n, 0)
            checked += 1


def _weight_series(algebra, top):
    """Coefficients of t^0..t^top in the product over odd generators y of
    (1 - t^(|y|+1)) divided by the product over even generators x of
    (1 - t^|x|)."""
    series = [1] + [0] * top
    for g in algebra.generators:
        if g.is_odd:
            w = g.degree + 1
            for k in range(top, w - 1, -1):
                series[k] -= series[k - w]
        else:
            for k in range(g.degree, top + 1):
                series[k] += series[k - g.degree]
    return series


def _weight_euler(dim, top):
    """Per weight w <= top, the alternating sum over i of dim(w - i, i),
    where ``dim(degree, index)`` is the dimension of H_index in that degree."""
    return [sum((-1) ** i * dim(w - i, i) for i in range(w + 1)) for w in range(top + 1)]


class TestWeightGradedEuler:
    """A monomial of a pure algebra with odd word length i has weight
    degree + i, which d keeps while lowering i by one.  So each weight w
    is a finite complex graded by i, and its Euler characteristic
    sum_i (-1)^i dim H_i^(w-i) depends on the generator degrees alone: it
    is the coefficient of t^w in _weight_series.  The strand dimensions of
    the lower grading are checked against it at every weight up to the
    cutoff."""

    def test_random_pure_population(self):
        rng = random.Random(131)
        checked = 0
        while checked < 60:
            algebra = random_pure_elliptic(rng)
            if algebra is None:
                continue
            table = lower_grading(algebra)
            assert _weight_euler(table.dim, algebra.cutoff) == _weight_series(algebra, algebra.cutoff)
            checked += 1

    @pytest.mark.parametrize(
        "generators, differential",
        [
            ([("x", 2), ("y", 3)], {}),  # a free odd generator
            ([("x", 2), ("y", 2), ("a", 3), ("b", 3)], {"a": "x^2", "b": "x*y"}),  # not regular
            ([("x", 2), ("a", 3), ("b", 5)], {"a": "x^2"}),  # chi_pi = 1
        ],
    )
    def test_non_elliptic_pure_algebras(self, generators, differential):
        algebra = SullivanAlgebra.build(generators, differential, cutoff=14)
        table = lower_grading(algebra)
        assert _weight_euler(table.dim, algebra.cutoff) == _weight_series(algebra, algebra.cutoff)

    @pytest.mark.parametrize("name", ["model-pure-cutoff12", "model-readme"])
    def test_model_goldens(self, name):
        from sullivan.documents import load_model

        space = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["space"]
        strands = space["lower_grading"]

        def dim(degree, index):
            return strands[degree].get(str(index), 0)

        algebra = load_model(space["model"])
        top = len(strands) - 1
        assert top == algebra.cutoff
        assert _weight_euler(dim, top) == _weight_series(algebra, top)

    def test_preset_and_pair_space_models(self):
        from sullivan.catalog import DIAGRAM_PRESETS, standard_restriction
        from sullivan.documents import load_diagram
        from sullivan.models import borel_model_homogeneous, cohomogeneity_one_model

        spaces = [cohomogeneity_one_model(load_diagram(doc)) for doc in DIAGRAM_PRESETS.values()]
        for g, h in (("SU(4)", "T3"), ("Sp(2)", "T2"), ("SU(3)", "T2")):
            restriction = standard_restriction(g, h)
            spaces.append(borel_model_homogeneous(restriction.source, restriction.target, restriction).space)
        for algebra in spaces:
            table = lower_grading(algebra)
            assert _weight_euler(table.dim, algebra.cutoff) == _weight_series(algebra, algebra.cutoff)

    def test_su4_mod_t3_is_its_poincare_series(self):
        # chi_pi = 0 and finite cohomology give H = H_0, so the series is
        # the Poincare series of the flag manifold SU(4)/T3
        from sullivan.documents import load_model

        space = json.loads((GOLDEN / "homogeneous-SU4-T3.json").read_text(encoding="utf-8"))["space"]
        algebra = load_model(space["model"])
        series = _weight_series(algebra, algebra.cutoff)
        assert series == [1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1] == space["betti"]
        table = lower_grading(algebra)
        assert _weight_euler(table.dim, algebra.cutoff) == series
        assert all(set(table.dims(n)) <= {0} for n in range(algebra.cutoff + 1))


class TestIndependentOracles:
    def test_alternating_sums_respect_rank_nullity(self):
        # For the truncated complex, the alternating sum of cochain
        # dimensions equals the alternating sum of Betti numbers plus the
        # boundary rank term; this ties Betti output to raw dimensions
        # through nothing but rank-nullity.
        from sullivan import linalg
        from sullivan.cohomology import _action_rows

        rng = random.Random(223)
        checked = 0
        while checked < 40:
            algebra = random_pure_elliptic(rng)
            if algebra is None:
                continue
            top = algebra.cutoff
            betti = betti_numbers(algebra)
            chain_sum = sum((-1) ** n * len(algebra._basis(n)) for n in range(top + 1))
            betti_sum = sum((-1) ** n * b for n, b in enumerate(betti))
            boundary = linalg.rank_rows(_action_rows(algebra, top))
            assert chain_sum == betti_sum + (-1) ** top * boundary
            checked += 1

    def test_kunneth_convolution(self):
        rng = random.Random(227)
        checked = 0
        while checked < 20:
            a = random_pure_elliptic(rng, max_even=1, max_odd=2, max_cutoff=14)
            b = random_pure_elliptic(rng, max_even=1, max_odd=2, max_cutoff=14)
            if a is None or b is None:
                continue
            product = tensor_product(a, b)
            betti_a = betti_numbers(a)
            betti_b = betti_numbers(b)
            betti_ab = betti_numbers(product)
            for n in range(product.cutoff + 1):
                expected = sum(
                    betti_a[k] * betti_b[n - k]
                    for k in range(n + 1)
                    if k < len(betti_a) and n - k < len(betti_b)
                )
                assert betti_ab[n] == expected
            checked += 1


class TestFormalityOnPopulation:
    def test_chi_zero_instances_are_formal_with_no_split(self):
        from sullivan.criteria import pure_formality

        rng = random.Random(211)
        checked = 0
        while checked < 30:
            algebra = random_pure_elliptic(rng)
            if algebra is None or algebra.homotopy_euler_characteristic() != 0:
                continue
            betti = betti_numbers(algebra)
            assert not any(b for n, b in enumerate(betti) if n % 2 == 1)
            verdict = pure_formality(cohomology(algebra))
            assert verdict.formal and verdict.split_k == 0
            # the even subalgebra carries all of cohomology
            table = lower_grading(algebra)
            for n in range(algebra.cutoff + 1):
                assert all(i == 0 for i in table.dims(n))
            checked += 1


class TestRepresentativesAgainstReducer:
    def test_representatives_are_greedy_kernel_complements(self):
        """In each degree the representatives are the kernel vectors of d
        that a Fraction reduction accepts in order after absorbing every
        d-image from the degree below, on sheared and pure algebras."""
        rng = random.Random(223)
        algebras = []
        while len(algebras) < 4:
            pair = random_sheared(rng)
            if pair is not None and not pair[0].is_pure():
                algebras.append(pair[0])
        while len(algebras) < 16:
            algebra = random_pure_elliptic(rng, max_cutoff=16)
            if algebra is not None:
                algebras.append(algebra)
        both = 0  # degrees with coboundaries and classes
        for a in algebras:
            table = cohomology(a)

            def d_coordinates(degree):
                return [
                    a.coordinates(a._d_monomial(m), degree + 1) for m in a._basis(degree)
                ]

            for n in range(a.cutoff + 1):
                dim = len(a._basis(n))
                if a._basis(n + 1):
                    matrix = RationalMatrix.from_rows(zip(*d_coordinates(n)))
                    kernel = kernel_basis(matrix).vectors
                else:
                    kernel = tuple(
                        tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)
                    )
                reducer = linalg._Reducer(dim)
                for v in d_coordinates(n - 1) if n else []:
                    reducer.add(v)
                expected = [v for v in kernel if reducer.add(v)]
                got = [tuple(a.coordinates(e, n)) for e in table.representatives(n)]
                assert got == expected
                both += bool(reducer.rows and expected)
        assert both

    def test_class_coordinates_read_the_embedded_coboundaries(self):
        """In each degree the k-th representative has the k-th unit vector
        as class coordinates and every d-image from the degree below has
        zero class coordinates, on sheared and pure algebras.  The
        reference solves over the d-images first, so a representative
        dependent on them and on the representatives before it fails."""
        rng = random.Random(229)
        algebras = []
        while len(algebras) < 3:
            pair = random_sheared(rng)
            if pair is not None and not pair[0].is_pure():
                algebras.append(pair[0])
        while len(algebras) < 11:
            algebra = random_pure_elliptic(rng, max_cutoff=16)
            if algebra is not None:
                algebras.append(algebra)
        strands = 0  # degrees with coboundaries in more than one strand
        for a in algebras:
            table = cohomology(a)
            for n in range(a.cutoff + 1):
                betti = table.betti[n]
                for k, rep in enumerate(table.representatives(n)):
                    unit = [Fraction(int(j == k)) for j in range(betti)]
                    assert class_coordinates(table, rep, n) == unit
                images = [a._d_monomial(m) for m in a._basis(n - 1)] if n else []
                images = [e for e in images if not e.is_zero]
                for e in images:
                    assert class_coordinates(table, e, n) == [Fraction(0)] * betti
                if a.is_pure():
                    strands += len({a.odd_word_length(m) for e in images for m in e.terms}) > 1
        assert strands


def _reference_formality(a):
    """pure_formality with the ideal basis picked one candidate at a time
    by a Fraction reduction."""
    odd_count = sum(g.is_odd for g in a.generators)
    even_count = len(a.generators) - odd_count
    images = {}
    for g, img in zip(a.generators, a.differential):
        if g.is_odd and not img.is_zero:
            images.setdefault(img.degree, []).append(img)

    def even_basis(n):
        return [m for m in a._basis(n) if a.odd_word_length(m) == 0]

    def coords(e, n):
        index = {m: i for i, m in enumerate(even_basis(n))}
        vec = [Fraction(0)] * len(index)
        for mono, c in e.terms.items():
            vec[index[mono]] = c
        return vec

    ideal_basis = {}
    mu = 0
    for n in range(2, max(images, default=0) + 1, 2):
        decomposable = [
            a.multiply(AlgebraElement(a, {mono: Fraction(1)}), w)
            for m, elements in ideal_basis.items()
            if n - m >= 2
            for mono in even_basis(n - m)
            for w in elements
        ]
        reducer = linalg._Reducer(len(even_basis(n)))
        picked = [e for e in decomposable if reducer.add(coords(e, n))]
        rank_decomposable = len(picked)
        picked += [z for z in images.get(n, []) if reducer.add(coords(z, n))]
        mu += len(picked) - rank_decomposable
        if picked:
            ideal_basis[n] = picked
    return FormalityVerdict(odd_count - mu, mu, mu == even_count)


class TestFormalityAgainstReducer:
    def test_pure_formality_matches_one_candidate_at_a_time(self):
        rng = random.Random(227)
        checked = formal = 0
        while checked < 40:
            algebra = random_pure_elliptic(rng)
            if algebra is None:
                continue
            verdict = pure_formality(cohomology(algebra))
            assert verdict == _reference_formality(algebra)
            formal += verdict.formal
            checked += 1
        assert 0 < formal < checked

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_pair_models(self, k):
        # formal dimension 2k, largest generator degree 3
        algebra = k_pair_model(k, 2 * k + 3)
        verdict = pure_formality(cohomology(algebra))
        assert verdict == _reference_formality(algebra) == FormalityVerdict(0, k, True)

    @pytest.mark.parametrize("name", ["model-pure-cutoff12", "model-readme"])
    def test_model_goldens(self, name):
        from sullivan.documents import load_model

        document = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["input"]
        algebra = _at_window(load_model(document))
        assert pure_formality(cohomology(algebra)) == _reference_formality(algebra)

    @pytest.mark.parametrize("name", sorted(DIAGRAM_PRESETS) + ["SU(4)/T3", "Sp(2)/T2", "SU(3)/T2"])
    def test_space_models(self, name):
        from sullivan.catalog import standard_restriction
        from sullivan.documents import load_diagram
        from sullivan.models import borel_model_homogeneous, cohomogeneity_one_model

        if name in DIAGRAM_PRESETS:
            space = cohomogeneity_one_model(load_diagram(DIAGRAM_PRESETS[name]))
        else:
            restriction = standard_restriction(*name.split("/"))
            space = borel_model_homogeneous(restriction.source, restriction.target, restriction).space
        algebra = _at_window(space)
        assert pure_formality(cohomology(algebra)) == _reference_formality(algebra)

    @pytest.mark.parametrize(
        "generators, differential, expected",
        [
            # a Fraction coefficient in an image
            ([("x", 2), ("y", 2), ("a", 3), ("b", 3)], {"a": "1/2*x^2+y^2", "b": "2/3*x*y"}, (0, 2, True)),
            # q2 is an odd generator whose d is 0: it splits off
            ([("u", 2), ("q1", 3), ("q2", 5)], {"q1": "u^2"}, (1, 1, True)),
        ],
    )
    def test_fraction_image_and_closed_odd_generator(self, generators, differential, expected):
        algebra = _at_window(SullivanAlgebra.build(generators, differential, cutoff=0))
        verdict = pure_formality(cohomology(algebra))
        assert verdict == _reference_formality(algebra) == FormalityVerdict(*expected)


def _at_window(algebra):
    """The algebra at the formal dimension plus its largest generator
    degree, where the top window of an elliptic algebra vanishes."""
    return algebra.with_cutoff(_formal_dimension(algebra) + max(g.degree for g in algebra.generators))


class TestSufficientCondition:
    def test_low_even_degrees_imply_surjectivity(self):
        # when every even generator sits below every odd generator and
        # the homotopy Euler characteristic is at most one, the direct
        # even-degree check must pass
        rng = random.Random(139)
        checked = 0
        while checked < 40:
            algebra = random_pure_elliptic(rng)
            if algebra is None or algebra.homotopy_euler_characteristic() > 1:
                continue
            evens = [g.degree for g in algebra.generators if not g.is_odd]
            odds = [g.degree for g in algebra.generators if g.is_odd]
            if not evens or max(evens) >= min(odds):
                continue
            names = [g.name for g in algebra.generators if not g.is_odd]
            ok, _ = even_degree_surjectivity(even_subalgebra_inclusion(algebra, names))
            assert ok
            checked += 1


class TestShearedIsomorphism:
    """A sheared algebra is isomorphic to its pure core by an automorphism
    that moves one odd generator and fixes every even one, so the two have
    the same cohomology, and the even-subalgebra inclusions of the two
    have the same verdict.  The sheared tables have one block per degree
    and the cores one per strand, so this compares the two table paths."""

    @pytest.mark.parametrize("seed, non_pure, surjective", [(4243, 45, 19), (1013, 42, 21)])
    def test_sheared_algebra_matches_its_core(self, seed, non_pure, surjective):
        pairs = sheared_pairs(seed, 60)
        verdicts = []
        for sheared, core in pairs:
            assert cohomology(sheared).betti == cohomology(core).betti == betti_numbers(sheared)
            evens = [g.name for g in core.generators if not g.is_odd]
            verdict = even_degree_surjectivity(even_subalgebra_inclusion(core, evens))
            assert even_degree_surjectivity(even_subalgebra_inclusion(sheared, evens)) == verdict
            verdicts.append(verdict[0])
        assert sum(not sheared.is_pure() for sheared, _ in pairs) == non_pure
        assert sum(verdicts) == surjective

    @pytest.mark.parametrize("seed", [4243, 1013])
    def test_shear_induces_an_isomorphism(self, seed):
        # the shear's forward map sheared -> core is a chain map whose
        # induced matrix is square of size b_n and invertible in every degree
        for core, forward, backward in shears(seed, 60):
            sheared = conjugated(core, forward, backward)
            images = {g.name: forward.get(g.name, core.gen(g.name)) for g in core.generators}
            table = cohomology(core)
            matrices = induced_map(CdgaMorphism(sheared, core, images), target_table=table)
            for n, m in matrices.items():
                assert m.rows == m.cols == table.betti[n] == rank_rows(m.entries), n


class TestLinalgProperties:
    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_rank_transpose(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert rank_rows(m.entries) == rank_rows(RationalMatrix.from_rows(zip(*rows)).entries)
        assert rank_rows(m.entries) + kernel_basis(m).dim == m.cols

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=4, max_size=4),
            min_size=2,
            max_size=4,
        ),
        st.integers(1, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_scaling_invariance(self, rows, scale):
        m = RationalMatrix.from_rows(rows)
        scaled = RationalMatrix.from_rows([[scale * x for x in row] for row in rows])
        assert rank_rows(m.entries) == rank_rows(scaled.entries)
        assert kernel_basis(m).dim == kernel_basis(scaled).dim

    def test_quotient_complements_span(self):
        """quotient_basis keeps exactly the ambient vectors that a Fraction
        reduction accepts greedily after absorbing sub, and rejects any sub
        with a vector outside the ambient span."""
        rng = random.Random(149)
        smaller_outside = 0
        for _ in range(60):
            dim = rng.randint(2, 6)
            count = rng.randint(1, dim)
            ambient_vectors = _draw_independent(
                dim, count, lambda: tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            )
            ambient = linalg.SubspaceBasis(dim, ambient_vectors)
            sub_vectors = _draw_independent(
                dim, rng.randint(0, count), lambda: _combination(rng, ambient_vectors)
            )
            sub = linalg.SubspaceBasis(dim, sub_vectors)
            reference = linalg._Reducer(dim)
            for v in sub_vectors:
                reference.add(v)
            expected = tuple(v for v in ambient_vectors if reference.add(v))
            reps = linalg.quotient_basis(sub, ambient)
            assert reps.vectors == expected
            assert reps.dim == count - sub.dim
            assert linalg.rank_rows(sub_vectors + reps.vectors) == count
            if count == dim:
                continue
            span = linalg._Reducer(dim)
            for v in ambient_vectors:
                span.add(v)
            while True:
                w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
                if span.add(w):
                    break
            size = rng.randint(1, count + 1)
            smaller_outside += size < count
            outside = _draw_independent(
                dim,
                size,
                lambda: tuple(
                    x + rng.choice((-2, -1, 1, 2)) * y
                    for x, y in zip(_combination(rng, ambient_vectors), w)
                ),
            )
            with pytest.raises(NotASubspace):
                linalg.quotient_basis(linalg.SubspaceBasis(dim, outside), ambient)
        assert smaller_outside


class TestParserRoundTrip:
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1)),
            st.fractions(min_value=-5, max_value=5),
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_format_parse_identity(self, raw_terms):
        algebra = SullivanAlgebra.build([("u", 2), ("p", 3), ("q", 5)], cutoff=20)
        element = AlgebraElement(
            algebra, {mono: Fraction(c) for mono, c in raw_terms.items() if c}
        )
        assert algebra.parse(algebra.format_element(element)) == element
