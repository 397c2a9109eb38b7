"""The polynomial parser against the element-built parser it replaced.

``SullivanAlgebra.parse`` adds each term's exponents, Koszul sign and
integer coefficient straight into one ``{monomial: coefficient}`` map.
The reference here is the older route: one ``AlgebraElement`` per
factor, multiplied into the term and added to the running sum in
``Fraction`` arithmetic.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from instance_generators import random_sheared
from sullivan import documents
from sullivan.catalog import (
    _TORUS_DATA,
    DIAGRAM_PRESETS,
    _rename_torus_polynomial,
    standard_restriction,
)
from sullivan.cdga import AlgebraElement, SullivanAlgebra
from sullivan.documents import load_diagram
from sullivan.errors import UnknownGenerator
from sullivan.models import borel_model_cohomogeneity_one, borel_model_homogeneous


def _gen_power(algebra, name, k):
    if name not in algebra._index:
        raise UnknownGenerator(f"no generator named {name!r}")
    index = algebra._index[name]
    if k >= 2 and algebra.generators[index].is_odd:
        return algebra.zero()
    mono = tuple(k if i == index else 0 for i in range(len(algebra.generators)))
    return AlgebraElement(algebra, {mono: Fraction(1)})


def _reference_tokenize(algebra, text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = algebra._TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot tokenize polynomial at {text[pos:]!r}")
        pos = match.end()
        for kind in ("num", "name", "op"):
            if match.group(kind) is not None:
                tokens.append((kind, match.group(kind)))
                break
    return tokens


def _reference_term(algebra, tokens, pos):
    coeff = Fraction(1)
    mono = algebra.one()
    saw_factor = False
    while True:
        if pos >= len(tokens):
            break
        kind, value = tokens[pos]
        if kind == "num":
            try:
                coeff *= Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {value!r}") from None
            pos += 1
        elif kind == "name":
            if value not in algebra._index:
                raise UnknownGenerator(f"no generator named {value!r}")
            pos += 1
            exp = 1
            if pos + 1 < len(tokens) and tokens[pos] == ("op", "^"):
                nk, nv = tokens[pos + 1]
                if nk != "num" or "/" in nv:
                    raise ValueError("exponent must be a non-negative integer")
                exp = int(nv)
                pos += 2
            mono = mono * _gen_power(algebra, value, exp)
        else:
            break
        saw_factor = True
        if pos < len(tokens) and tokens[pos] == ("op", "*"):
            pos += 1
            if pos >= len(tokens) or tokens[pos][0] == "op":
                raise ValueError("'*' must be followed by a factor")
            continue
        break
    if not saw_factor:
        raise ValueError("empty term in polynomial")
    return coeff * mono, pos


def reference_parse(algebra, text):
    """The element-built parser: a product of ``AlgebraElement`` factors
    per term, summed in ``Fraction`` arithmetic."""
    tokens = _reference_tokenize(algebra, text)
    result = algebra.zero()
    pos = 0
    sign = Fraction(1)
    expect_term = True
    while pos < len(tokens):
        kind, value = tokens[pos]
        if expect_term:
            if kind == "op" and value == "-":
                sign = -sign
                pos += 1
                continue
            if kind == "op" and value == "+":
                pos += 1
                continue
            term, pos = _reference_term(algebra, tokens, pos)
            result = result + sign * term
            sign = Fraction(1)
            expect_term = False
        else:
            if kind != "op" or value not in "+-":
                raise ValueError(f"expected '+' or '-' in polynomial: {text!r}")
            sign = Fraction(-1) if value == "-" else Fraction(1)
            pos += 1
            expect_term = True
    if expect_term:
        raise ValueError(f"empty term in polynomial: {text!r}")
    return result


def assert_same_element(algebra, text):
    parsed = algebra.parse(text)
    assert parsed == reference_parse(algebra, text), text
    assert all(type(c) is Fraction for c in parsed.terms.values()), text


def sheared_differentials(seed, count):
    """Every differential string of the first ``count`` sheared draws of
    ``seed``, as written by ``model_document``, with its draft algebra."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        pair = random_sheared(rng)
        if pair is None:
            continue
        found += 1
        doc = documents.model_document(pair[0])
        draft = SullivanAlgebra.build(doc["generators"], cutoff=doc["cutoff"])
        for text in doc["differential"].values():
            yield draft, text


def recorded_parses(monkeypatch, build):
    """The ``(algebra, text)`` of every ``parse`` call made by ``build()``."""
    calls = []
    parse = SullivanAlgebra.parse

    def recording(self, text):
        calls.append((self, text))
        return parse(self, text)

    monkeypatch.setattr(SullivanAlgebra, "parse", recording)
    build()
    monkeypatch.setattr(SullivanAlgebra, "parse", parse)
    return calls


def build_catalog_models():
    for name in sorted(DIAGRAM_PRESETS):
        borel_model_cohomogeneity_one(load_diagram(DIAGRAM_PRESETS[name]))
    for g, h in (
        ("SU(2)", "T1"), ("Sp(1)", "T1"), ("SO(3)", "T1"), ("Sp(2)", "T2"), ("SO(5)", "T2"),
        ("SU(3)", "T2"), ("SU(4)", "T3"), ("SU(2)^2", "T2"), ("SU(2)xSp(2)", "T3"),
    ):
        restriction = standard_restriction(g, h, "maximal-torus")
        borel_model_homogeneous(restriction.source, restriction.target, restriction)
    for g, h, kind in (("SU(2)^2", "SU(2)", "diagonal"), ("SU(2)^3", "T1", "diagonal-circle")):
        restriction = standard_restriction(g, h, kind)
        borel_model_homogeneous(restriction.source, restriction.target, restriction)
    documents.run_analysis(
        {
            "kind": "biquotient",
            "G": "SU(2)",
            "H": "T1",
            "left": {"u1": "-u1^2"},
            "right": {"u1": "-4*u1^2"},
        }
    )


def small_algebra():
    # x, y even; a, b odd: a repeated odd generator vanishes, b*a = -a*b
    return SullivanAlgebra.build([("x", 2), ("y", 2), ("a", 3), ("b", 3)], cutoff=8)


@pytest.fixture
def small():
    return small_algebra()


# Fragments of the grammar's tokens, with an unknown name, a zero
# denominator once joined ("2" + "/0") and a character outside it.
TOKENS = ["x", "y", "a", "b", "z", "0", "2", "1/2", "/0", "^", "^2", "^0", "*", "+", "-", " ", "\t", "("]
FACTORS = ["x", "y^2", "a", "b", "2", "1/2", "3/6", "0", "x^0", "a^1"]
# Token strings, most of them malformed, and well-formed polynomials
# whose terms multiply odd generators in either order.
TEXTS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=10).map("".join),
    st.lists(
        st.tuples(
            st.sampled_from(["", "-", " + ", "--"]),
            st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=3,
    ).map(lambda terms: "".join(sign + " * ".join(factors) for sign, factors in terms)),
).map(str.rstrip)


def _outcome(parse, algebra, text):
    try:
        return parse(algebra, text)
    except Exception as exc:
        return exc


class TestAgainstElementParser:
    @pytest.mark.parametrize("seed", [1013, 7])
    def test_sheared_differentials(self, seed):
        count = 0
        for draft, text in sheared_differentials(seed, 60):
            assert_same_element(draft, text)
            count += 1
        assert count > 60

    def test_catalog_preset_and_restriction_polynomials(self, monkeypatch):
        calls = recorded_parses(monkeypatch, build_catalog_models)
        texts = {text for _, text in calls}
        torus = {
            _rename_torus_polynomial(p, 0)
            for base, data in _TORUS_DATA.items()
            if not base.startswith("T")
            for p in data
        }
        assert torus <= texts
        assert {"-em^2", "-ep^2", "-4*u1^2", "0"} <= texts
        for algebra, text in calls:
            assert_same_element(algebra, text)

    @pytest.mark.parametrize(
        "text",
        ["a*a", "b*a", "a^0*x", "x^0", "0*x", "x - x", "1/2*x + 1/2*x", "2*3*x", "x*2", "--x",
         "a*x*b", "b*x*a - a*x*b", "a^2*x", "a^1*b^1", "3/6*y^3 - 1/2*y*y^2", "0", "7"],
    )
    def test_edge_terms(self, small, text):
        assert_same_element(small, text)

    def test_edge_values(self, small):
        a, b, x = small.gen("a"), small.gen("b"), small.gen("x")
        assert small.parse("a*a").is_zero
        assert small.parse("b*a") == -(a * b)
        assert small.parse("x - x").is_zero
        assert small.parse("1/2*x + 1/2*x") == x
        assert small.parse("--x") == x

    @pytest.mark.parametrize(
        "text", ["x*", "2/0", "x^1/2", "x^-1", "3x", "(x)", "x**2", "", "+", "x + z"]
    )
    def test_errors(self, small, text):
        with pytest.raises(Exception) as expected:
            reference_parse(small, text)
        with pytest.raises(Exception) as got:
            small.parse(text)
        assert type(got.value) is type(expected.value), text
        assert str(got.value) == str(expected.value), text


class TestRandomText:
    """Random strings of the grammar's tokens: ``parse`` gives the
    reference's element, or raises its class with its message.  Only the
    two messages ``TestMessages`` documents may differ, a term led by
    ``*`` or ``^`` and a dangling caret; there the class must still
    match.  Trailing whitespace is stripped, since the reference
    tokenizer predates it (``TestWhitespace``)."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(TEXTS)
    def test_parse_matches_the_reference(self, text):
        algebra = small_algebra()
        got = _outcome(SullivanAlgebra.parse, algebra, text)
        expected = _outcome(reference_parse, algebra, text)
        if not isinstance(expected, Exception):
            assert not isinstance(got, Exception), (text, got)
            assert got == expected, text
            assert all(type(c) is Fraction for c in got.terms.values()), text
            return
        assert type(got) is type(expected), (text, got, expected)
        if str(got) != str(expected):
            tokens = _reference_tokenize(algebra, text)
            led_by_operator = str(expected) == "empty term in polynomial"
            dangling_caret = [kind for kind, _ in tokens[-2:]] == ["name", "op"] and text.endswith("^")
            assert led_by_operator or dangling_caret, (text, got, expected)


class TestMessages:
    """Messages that differ from the reference parser's: a dangling caret
    names the exponent, and a term that starts with an operator is an
    empty term quoted with its polynomial, as a dangling sign is."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x^", "exponent must be a non-negative integer"),
            ("*x", "empty term in polynomial: '*x'"),
            ("^x", "empty term in polynomial: '^x'"),
        ],
        ids=["x^", "*x", "^x"],
    )
    def test_errors(self, small, text, message):
        with pytest.raises(ValueError) as got:
            small.parse(text)
        assert str(got.value) == message


class TestWhitespace:
    @pytest.mark.parametrize("text", ["x^2 ", " x^2", "x ^ 2", "\tx^2\n", " 2 * x ^ 2 - a * b "])
    def test_whitespace_around_tokens(self, small, text):
        assert small.parse(text) == small.parse("".join(text.split()))

    @pytest.mark.parametrize("text", ["x^2 + ", "   ", "x - "])
    def test_dangling_sign_is_an_empty_term(self, small, text):
        with pytest.raises(ValueError, match="empty term"):
            small.parse(text)
