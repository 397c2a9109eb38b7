"""Free graded-commutative algebras over Q with a differential.

An algebra is generated by named generators of positive degree; odd
generators square to zero, even generators are polynomial.  Monomials
are exponent tuples aligned with the generator declaration order, and
products are normalized to that order while accumulating Koszul signs,
so every element has one canonical form.  The odd generators of a
monomial are also read as a bitmask (bit i for generator i): two
monomials multiply to zero when their masks overlap, and otherwise the
Koszul sign is the parity of the pairs of set bits out of order.

The differential is stored as each generator's image, a tuple of
``(monomial, odd mask, coefficient)`` terms with ``int`` coefficients
where they are integral and ``Fraction`` otherwise.  The d of a monomial
is the derivation that Leibniz's rule extends from those images, computed
in integers on packed monomials: each monomial is one int with a
fixed-width field per generator, wide enough for every exponent that
occurs, so a term of d(x_i) times m/x_i is the packed m plus a fixed
delta.  ``_d_rows`` writes the d of many packed monomials as sparse rows
over one ``{packed monomial: position}`` index per degree, from a memo
of the signed terms of each generator's image against each odd mask;
``_d_sum`` (and ``_d_terms`` for one monomial) is its output for a
combination of monomials, unpacked back to exponent tuples.  Algebra
maps work on the stored terms: a ``CdgaMorphism`` stores its generator
images so, multiplies them out per monomial with ``_product_terms`` and
caches the result, and ``substitute`` does the same for an
endomorphism; ``_combination`` extends a map linearly.  The algebra
holds no element of its own, so it is freed by reference counting.

``AlgebraElement`` values appear only where elements are read or
written: parsed polynomials (``parse`` adds each term's exponents,
Koszul sign and coefficient straight into one ``{monomial: coefficient}``
map and builds the element once) and the model builders' differentials, the
``differential`` property, the results of ``multiply``,
``apply_differential``, ``substitute``, ``CdgaMorphism.apply`` and
``element_from_coordinates`` (class representatives).  The chain-map
check, the direct surjectivity check and the formality count build none.

A degree cutoff is fixed at construction: basis enumeration and the
public differential are guarded by it (internal callers may go one
degree past it, which cohomology needs for kernels at the cutoff).
Every degree's monomial basis is one list of packed monomials, built
from the lists of the degrees below it, in increasing degree and each
once.  The packed basis is the key order of the degree's position
index; exponent tuples are unpacked from it only where an element is
read or written.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from fractions import Fraction
from operator import add, attrgetter, lshift, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    CutoffExceeded,
    DegreeMismatch,
    DimensionMismatch,
    InvalidDegrees,
    InvalidDifferential,
    NotAChainMap,
    UnknownGenerator,
    ValidationError,
)

# A generator name: the name token of the polynomial grammar.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_TOKEN = re.compile(_NAME)

Monomial = tuple[int, ...]
# One term of a stored image: monomial, odd-generator mask, coefficient.
Term = tuple[Monomial, int, "int | Fraction"]


def _koszul_sign(mask1: int, mask2: int) -> int:
    """Sign of the normalized product of two monomials whose odd
    generators are the set bits of ``mask1`` and ``mask2``: -1 to the
    number of pairs j in mask1, i in mask2 with j > i.  Zero when the
    masks overlap, since an odd generator squares to zero."""
    if mask1 & mask2:
        return 0
    inversions = 0
    while mask1 and mask2:
        low = mask2 & -mask2
        inversions += (mask1 & -(low << 1)).bit_count()
        mask2 ^= low
    return -1 if inversions & 1 else 1


def _decimal(digits: str, what: str) -> int:
    """The int of a decimal string; past Python's limit on the digits of
    an integer string, a ValueError that states the limit."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from None


class _Identity(dict):
    """The index that maps each packed monomial to itself."""

    def __missing__(self, key):
        return key


def _combination(terms: Iterable[tuple[Monomial, "int | Fraction"]], image_of) -> dict:
    """The sum of ``c*image_of(m)`` over the pairs ``(m, c)`` of ``terms``,
    as ``{monomial: coefficient}`` with the nonzero coefficients; each
    ``image_of(m)`` is a ``{monomial: coefficient}`` map."""
    out: dict = {}
    for mono, coeff in terms:
        for m, c in image_of(mono).items():
            out[m] = out.get(m, 0) + coeff * c
    return {m: c for m, c in out.items() if c}


def _add_products(out: dict, m1: Monomial, mask1: int, c1, right: Iterable[Term]) -> None:
    """Add ``c1*m1`` times each term of ``right`` into ``out``, Koszul
    normalized."""
    for m2, mask2, c2 in right:
        sign = _koszul_sign(mask1, mask2)
        if sign:
            mono = tuple(map(add, m1, m2))
            out[mono] = out.get(mono, 0) + sign * c1 * c2


class _GeneratorFields(NamedTuple):
    name: str
    degree: int


class Generator(_GeneratorFields):
    __slots__ = ()

    def __new__(cls, name: str, degree: int):
        if not isinstance(name, str) or not _NAME_TOKEN.fullmatch(name):
            raise ValidationError(
                f"generator name {name!r} does not match the polynomial name token {_NAME}"
            )
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise InvalidDegrees(f"generator {name!r} must have positive degree")
        return tuple.__new__(cls, (name, degree))

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class AlgebraElement:
    """Q-linear combination of monomials of a fixed algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "SullivanAlgebra", terms: Mapping[Monomial, Fraction]):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_homogeneous(self) -> bool:
        return len({self.algebra.monomial_degree(m) for m in self.terms}) <= 1

    @property
    def degree(self) -> int | None:
        """Degree of a homogeneous nonzero element, else None."""
        degrees = {self.algebra.monomial_degree(m) for m in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def _compat(self, other: "AlgebraElement") -> None:
        if self.algebra.signature != other.algebra.signature:
            raise UnknownGenerator("elements belong to different algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.constant(other)
        self._compat(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return AlgebraElement(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other if isinstance(other, AlgebraElement) else -Fraction(other))

    def __neg__(self):
        return AlgebraElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return AlgebraElement(self.algebra, {m: c * x for m, x in self.terms.items()})
        return self.algebra.multiply(self, other)

    def __rmul__(self, scalar):
        return self * scalar

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.signature == other.algebra.signature and self.terms == other.terms

    def __repr__(self):
        return self.algebra.format_element(self)


class SullivanAlgebra:
    """Free graded-commutative algebra with a degree +1 differential.

    Immutable after construction; the differential is validated to be
    homogeneous of degree +1 on generators and to square to zero.
    """

    def __init__(
        self,
        generators: Sequence[Generator],
        cutoff: int,
        differential: Mapping[str, AlgebraElement] | None = None,
    ):
        if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
            raise CutoffExceeded("cutoff must be a non-negative integer")
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise InvalidDegrees("generator names must be unique")
        self.cutoff = cutoff
        self.signature = tuple((g.name, g.degree) for g in self.generators)
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        self._degrees = tuple(g.degree for g in self.generators)
        self._odd = tuple(i for i, g in enumerate(self.generators) if g.is_odd)
        self._width = 0
        self._fit(cutoff + 1)
        self._images = self._validate_differential(differential or {})

    # -- construction -------------------------------------------------

    @classmethod
    def build(
        cls,
        generators: Iterable[tuple[str, int] | Generator],
        differential: Mapping[str, "AlgebraElement | str"] | None = None,
        *,
        cutoff: int,
    ) -> "SullivanAlgebra":
        """Build an algebra from (name, degree) pairs and a differential
        given per generator name, either as elements or in the polynomial
        grammar (e.g. ``"x^2+y^2"``)."""
        gens = tuple(g if isinstance(g, Generator) else Generator(*g) for g in generators)
        draft = cls(gens, cutoff)
        resolved = {
            name: draft.parse(value) if isinstance(value, str) else value
            for name, value in (differential or {}).items()
        }
        return cls(gens, cutoff, resolved)

    def with_cutoff(self, cutoff: int) -> "SullivanAlgebra":
        """The same generators and differential up to another cutoff."""
        images = {g.name: image for g, image in zip(self.generators, self.differential)}
        return SullivanAlgebra(self.generators, cutoff, images)

    def _validate_differential(self, diff: Mapping[str, AlgebraElement]) -> tuple[tuple[Term, ...], ...]:
        images = []
        for name in diff:
            if name not in self._index:
                raise UnknownGenerator(f"differential assigned to unknown generator {name!r}")
        for g in self.generators:
            value = diff.get(g.name)
            if value is None:
                images.append(())
                continue
            if value.algebra.signature != self.signature:
                raise UnknownGenerator(
                    f"differential of {g.name!r} uses a different generator set"
                )
            value = AlgebraElement(self, value.terms)
            if not value.is_homogeneous:
                raise InvalidDifferential(f"d({g.name}) is not homogeneous")
            if not value.is_zero and value.degree != g.degree + 1:
                raise InvalidDifferential(
                    f"d({g.name}) has degree {value.degree}, expected {g.degree + 1}"
                )
            images.append(self._image_terms(value.terms))
        self._images = tuple(images)  # used by the d-squared check below
        for g, image in zip(self.generators, self._images):
            if not self._closed(image):
                raise InvalidDifferential(f"d(d({g.name})) != 0")
        return self._images

    def _image_terms(self, terms: Mapping[Monomial, Fraction]) -> tuple[Term, ...]:
        """Stored form of a generator's image: ``int`` coefficients where
        they are integral."""
        return tuple(
            (m, self._mask(m), c.numerator if c.denominator == 1 else c)
            for m, c in terms.items()
        )

    @property
    def differential(self) -> tuple[AlgebraElement, ...]:
        """Image of each generator, in declaration order, built from the
        stored terms on each access."""
        return tuple(
            AlgebraElement(self, {m: Fraction(c) for m, _, c in image}) for image in self._images
        )

    # -- basic elements -----------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def one(self) -> AlgebraElement:
        return self.constant(1)

    def constant(self, c) -> AlgebraElement:
        unit: Monomial = (0,) * len(self.generators)
        return AlgebraElement(self, {unit: Fraction(c)})

    def gen(self, name: str) -> AlgebraElement:
        index = self._index.get(name)
        if index is None:
            raise UnknownGenerator(f"no generator named {name!r}")
        mono = tuple(int(i == index) for i in range(len(self.generators)))
        return AlgebraElement(self, {mono: Fraction(1)})

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self._degrees))

    def odd_word_length(self, mono: Monomial) -> int:
        return sum(mono[i] for i in self._odd)

    # -- monomial bases -----------------------------------------------

    def monomial_basis(self, degree: int) -> tuple[Monomial, ...]:
        """All monomials of exactly the given degree, in a fixed order."""
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if degree > self.cutoff:
            raise CutoffExceeded(f"degree {degree} exceeds cutoff {self.cutoff}")
        return self._basis(degree)

    def _basis(self, degree: int) -> tuple[Monomial, ...]:
        """The degree's monomials as exponent tuples, in lexicographic
        exponent order: ``_monomials`` unpacked, for the callers that read
        every monomial of a degree."""
        return tuple(map(self._unpack, self._monomials(degree)))

    def _monomials(self, degree: int) -> list[int]:
        """The degree's packed monomials in lexicographic exponent order.
        ``_bases`` holds one list per degree and is filled in increasing
        degree, each degree once.  A degree-n monomial whose first
        generator is i is x_i times a degree n - d_i monomial with no
        generator before i (none up to i when x_i is odd); those lead
        their degree's list, so each block is a prefix of a list below,
        and the blocks run from the last generator to the first."""
        self._fit(degree)
        bases, width = self._bases, self._width
        while len(bases) <= degree:
            n = len(bases)
            monos = [] if n else [0]
            for i in reversed(range(len(self._degrees))):
                d, shift = self._degrees[i], self._shifts[i]
                if d <= n:
                    below = bases[n - d]
                    free = (1 << shift + (width if d % 2 else 0)) - 1
                    lead = bisect_left(below, 1, key=free.__and__)
                    monos.extend(map((1 << shift).__add__, below[:lead]))
            bases.append(monos)
        return bases[degree]

    # -- packed monomials ---------------------------------------------

    def _fit(self, degree: int) -> None:
        """Make the packed fields wide enough for every exponent of a
        monomial of degree at most ``degree`` (no exponent exceeds its
        degree), so no field carries into the next.  The constructor fits
        cutoff + 1, so only a monomial past that widens the fields, which
        drops what was packed at the old width: the bases, the position
        indexes and the memo of signed image terms."""
        if degree >> self._width:
            width = self._width = degree.bit_length()
            self._shifts = tuple(width * i for i in range(len(self._degrees)))
            self._odd_bits = sum(1 << self._shifts[i] for i in self._odd)
            self._bases: list[list[int]] = []
            self._positions_cache: dict[int, dict[int, int]] = {}
            self._leibniz = tuple({} for _ in self._degrees)

    def _pack(self, mono: Monomial) -> int:
        """A monomial as one int, exponent i in the field at ``_shifts[i]``."""
        return sum(map(lshift, mono, self._shifts))

    def _unpack(self, packed: int) -> Monomial:
        """The exponent tuple of a packed monomial."""
        field = (1 << self._width) - 1
        return tuple(packed >> s & field for s in self._shifts)

    def _positions(self, degree: int) -> dict[int, int]:
        """Position of each monomial of the degree basis, keyed by the
        packed monomial of ``_monomials``; the keys run in basis order."""
        self._fit(degree)
        cached = self._positions_cache.get(degree)
        if cached is None:
            monos = self._monomials(degree)
            cached = self._positions_cache[degree] = dict(zip(monos, range(len(monos))))
        return cached

    # -- products -----------------------------------------------------

    def _mask(self, mono: Monomial) -> int:
        """Odd generators of a monomial as a bitmask, bit i for generator i."""
        mask = 0
        for i in self._odd:
            if mono[i]:
                mask |= 1 << i
        return mask

    def multiply(self, e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
        if e1.algebra.signature != self.signature or e2.algebra.signature != self.signature:
            raise UnknownGenerator("elements belong to different algebras")
        right = [(m, self._mask(m), c) for m, c in e2.terms.items()]
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in e1.terms.items():
            _add_products(terms, m1, self._mask(m1), c1, right)
        return AlgebraElement(self, terms)

    def _product_terms(self, mono: Monomial, images: Sequence[tuple[Term, ...]]) -> dict:
        """The product over i, in order, of ``images[i]`` (stored terms of
        this algebra) to the power ``mono[i]``, as ``{monomial:
        coefficient}`` with the nonzero coefficients."""
        product = {(0,) * len(self.generators): 1}
        for e, image in zip(mono, images):
            for _ in range(e):
                out: dict = {}
                for m, c in product.items():
                    _add_products(out, m, self._mask(m), c, image)
                product = {m: c for m, c in out.items() if c}
        return product

    # -- differential -------------------------------------------------

    def apply_differential(self, e: AlgebraElement) -> AlgebraElement:
        if not e.is_homogeneous:
            raise DegreeMismatch("differential of a mixed-degree element")
        if not e.is_zero and e.degree > self.cutoff - 1:
            raise CutoffExceeded(
                f"degree {e.degree} element: differential exceeds cutoff {self.cutoff}"
            )
        return self._d_element(e)

    def _d_element(self, e: AlgebraElement) -> AlgebraElement:
        return self._element(self._d_sum(e.terms.items()))

    def _d_monomial(self, mono: Monomial) -> AlgebraElement:  # (perfbench/tracer.py patches it here)
        return self._element(self._d_terms(mono))

    def _element(self, terms: Mapping[Monomial, "int | Fraction"]) -> AlgebraElement:
        return AlgebraElement(self, {m: Fraction(c) for m, c in terms.items()})

    def _closed(self, image: tuple[Term, ...]) -> bool:
        return not self._d_sum((m, c) for m, _, c in image)

    def _d_terms(self, mono: Monomial) -> dict[Monomial, "int | Fraction"]:
        """d of a monomial as ``{monomial: coefficient}`` with nonzero
        coefficients, ``int`` where the generators' images are integral."""
        return self._d_sum(((mono, 1),))

    def _d_sum(self, terms: Iterable[tuple[Monomial, "int | Fraction"]]) -> dict:
        """d of the sum of ``c*m`` over the pairs ``(m, c)`` of ``terms``,
        as ``{monomial: coefficient}`` with the nonzero coefficients: the
        ``_d_rows`` rows of the packed monomials, combined and unpacked."""
        terms = tuple(terms)
        if not terms:
            return {}
        self._fit(max(self.monomial_degree(m) for m, _ in terms) + 1)
        rows = self._d_rows([self._pack(m) for m, _ in terms], _Identity())
        out: dict = {}
        for (_, c), row in zip(terms, rows):
            for packed, x in row.items():
                out[packed] = out.get(packed, 0) + c * x
        return {self._unpack(p): x for p, x in out.items() if x}

    def _d_rows(self, monos: Iterable[int], index: Mapping[int, int]) -> list[dict]:
        """d of each packed monomial of ``monos`` as a sparse row
        ``{position: coefficient}`` over ``index`` (packed monomial ->
        position), with the nonzero coefficients in the order their
        monomials first occur; the fields must be fitted to the degree
        of the images.

        Leibniz's rule: for each generator i of a monomial m, its exponent
        times d(i) times m with one factor i removed.  Each term of that
        product is m plus a delta, and its sign depends on i and the odd
        generators of m only, so ``_leibniz_terms`` memoises the signed
        terms per generator and odd mask."""
        field = (1 << self._width) - 1
        odd_bits = self._odd_bits
        active = [
            (i, shift, memo)
            for i, (shift, memo) in enumerate(zip(self._shifts, self._leibniz))
            if self._images[i]
        ]
        rows = []
        for packed in monos:
            mask = packed & odd_bits
            row: dict = {}
            for i, shift, memo in active:
                e = packed >> shift & field
                if e:
                    terms = memo.get(mask)
                    if terms is None:
                        terms = self._leibniz_terms(i, mask)
                    for delta, c in terms:
                        k = index[packed + delta]
                        row[k] = row.get(k, 0) + e * c
            rows.append(row if all(row.values()) else {k: c for k, c in row.items() if c})
        return rows

    def _leibniz_terms(self, i: int, mask: int) -> tuple[tuple[int, "int | Fraction"], ...]:
        """The terms of d(i) times a monomial m with odd generators
        ``mask`` (packed) and one factor i removed, as ``(delta,
        coefficient)`` pairs: the term is the packed m plus delta.  The
        coefficient carries the Koszul sign of the product and the sign
        of moving d past the odd factors on one side: for an odd
        generator those before it, for an even one (whose d is odd) those
        after it.  Memoised in ``_leibniz[i]``."""
        unit = 1 << self._shifts[i]
        if mask & unit:
            rest = mask ^ unit
            parity = (mask & (unit - 1)).bit_count()
        else:
            rest = mask
            parity = (mask & -unit).bit_count()
        terms = []
        for m, _, c in self._images[i]:
            packed = self._pack(m)
            sign = _koszul_sign(rest, packed & self._odd_bits)
            if sign:
                terms.append((packed - unit, -sign * c if parity & 1 else sign * c))
        terms = self._leibniz[i][mask] = tuple(terms)
        return terms

    def verify_d_squared(self) -> bool:
        """True iff d(d(g)) = 0 for every generator."""
        return all(self._closed(image) for image in self._images)

    def substitute(
        self, e: AlgebraElement, assignment: Mapping[str, AlgebraElement]
    ) -> AlgebraElement:
        """Apply the algebra endomorphism sending each named generator to
        the given (degree-equal homogeneous) element, fixing the others.
        No compatibility with the differential is assumed."""
        images = []
        for g in self.generators:
            image = assignment.get(g.name)
            if image is None:
                image = self.gen(g.name)
            elif image.algebra.signature != self.signature:
                raise UnknownGenerator(f"substitute for {g.name!r} uses another algebra")
            elif not image.is_zero and (not image.is_homogeneous or image.degree != g.degree):
                raise DegreeMismatch(f"substitute for {g.name!r} must preserve the degree")
            images.append(self._image_terms(image.terms))
        return self._element(
            _combination(e.terms.items(), lambda mono: self._product_terms(mono, images))
        )

    # -- structure ----------------------------------------------------

    def is_pure(self) -> bool:
        """Even generators closed, odd differentials inside the even
        subalgebra."""
        for g, image in zip(self.generators, self._images):
            if image and (not g.is_odd or any(mask for _, mask, _ in image)):
                return False
        return True

    def associated_pure(self) -> "SullivanAlgebra":
        """Same generators; even differentials dropped, odd differentials
        projected to their even-subalgebra component, the stored terms
        whose odd mask is 0."""
        diff = {
            g.name: self._element({m: c for m, mask, c in image if not mask})
            for g, image in zip(self.generators, self._images)
            if g.is_odd
        }
        return SullivanAlgebra(self.generators, self.cutoff, diff)

    def homotopy_euler_characteristic(self) -> int:
        odd = len(self._odd)
        return odd - (len(self.generators) - odd)

    # -- parsing and formatting ----------------------------------------

    _TOKEN = re.compile(
        rf"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<name>{_NAME})|(?P<op>[\^*+-]))"
    )

    def parse(self, text: str) -> AlgebraElement:
        """Parse the polynomial grammar: terms ``coef*gen^k*gen2^k2``
        joined by ``+``/``-``; coefficients integer or ``a/b``; whitespace
        is allowed between and around tokens.  Each term is added straight
        into one ``{monomial: coefficient}`` map."""
        tokens = self._tokenize(text)
        terms: dict[Monomial, int | Fraction] = {}
        pos = 0
        sign = 1
        expect_term = True
        while pos < len(tokens):
            kind, value = tokens[pos]
            if expect_term:
                if kind == "op" and value in "+-":
                    if value == "-":
                        sign = -sign
                    pos += 1
                    continue
                if kind == "op":
                    break  # '*' or '^' cannot start a term, which is empty
                mono, coeff, pos = self._parse_term(tokens, pos)
                if coeff:
                    terms[mono] = terms.get(mono, 0) + sign * coeff
                sign = 1
                expect_term = False
            else:
                if kind != "op" or value not in "+-":
                    raise ValueError(f"expected '+' or '-' in polynomial: {text!r}")
                sign = -1 if value == "-" else 1
                pos += 1
                expect_term = True
        if expect_term:
            raise ValueError(f"empty term in polynomial: {text!r}")
        return self._element(terms)

    def _tokenize(self, text: str) -> list[tuple[str, str]]:
        tokens = []
        pos = 0
        end = len(text.rstrip())
        while pos < end:
            match = self._TOKEN.match(text, pos)
            if not match:
                raise ValueError(f"cannot tokenize polynomial at {text[pos:]!r}")
            pos = match.end()
            tokens.append((match.lastgroup, match.group(match.lastgroup)))
        return tokens

    def _parse_term(self, tokens, pos: int) -> tuple[Monomial, "int | Fraction", int]:
        """One term from its first factor ``tokens[pos]``, a number or a
        name, on: its monomial, its coefficient (0 when an odd generator
        repeats, with the Koszul sign of its factors' order folded in) and
        the position after it."""
        coeff: int | Fraction = 1
        exponents = [0] * len(self._degrees)
        mask = 0  # odd generators of the term so far
        while pos < len(tokens):
            kind, value = tokens[pos]
            if kind == "num":
                numerator, _, denominator = value.partition("/")
                coeff *= _decimal(numerator, "coefficient")
                if denominator:
                    divisor = _decimal(denominator, "coefficient")
                    if not divisor:
                        raise ValueError(f"zero denominator in coefficient {value!r}")
                    coeff = Fraction(coeff, divisor)
                pos += 1
            else:
                index = self._index.get(value)
                if index is None:
                    raise UnknownGenerator(f"no generator named {value!r}")
                pos += 1
                exp = 1
                if pos < len(tokens) and tokens[pos] == ("op", "^"):
                    nk, nv = tokens[pos + 1] if pos + 1 < len(tokens) else ("", "")
                    if nk != "num" or "/" in nv:
                        raise ValueError("exponent must be a non-negative integer")
                    exp = _decimal(nv, "exponent")
                    pos += 2
                exponents[index] += exp
                if exp and self._degrees[index] % 2:
                    bit = 1 << index
                    if exp > 1 or mask & bit:
                        coeff = 0
                    elif (mask >> (index + 1)).bit_count() & 1:
                        coeff = -coeff
                    mask |= bit
            if pos < len(tokens) and tokens[pos] == ("op", "*"):
                pos += 1
                if pos >= len(tokens) or tokens[pos][0] == "op":
                    raise ValueError("'*' must be followed by a factor")
                continue
            break
        return tuple(exponents), coeff, pos

    def format_monomial(self, mono: Monomial) -> str:
        parts = []
        for g, e in zip(self.generators, mono):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def format_element(self, e: AlgebraElement) -> str:
        if e.is_zero:
            return "0"
        items = sorted(e.terms.items(), key=lambda kv: (self.monomial_degree(kv[0]), kv[0]))
        chunks = []
        for mono, coeff in items:
            body = self.format_monomial(mono)
            mag = abs(coeff)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not chunks:
                chunks.append(text if coeff > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(chunks)

    def coordinates(self, e: AlgebraElement, degree: int) -> list[Fraction]:  # (perfbench/tracer.py patches it here)
        """Coefficient vector of a homogeneous element over the degree basis."""
        index = self._positions(degree)
        vec = [Fraction(0)] * len(index)
        for mono, coeff in e.terms.items():
            packed = self._pack(mono)
            p = index.get(packed)
            if p is None or self._unpack(packed) != mono:  # a wider exponent may pack onto a basis monomial
                raise DegreeMismatch(
                    f"monomial {self.format_monomial(mono)} is not of degree {degree}"
                )
            vec[p] = coeff
        return vec

    def element_from_coordinates(self, coords: Mapping[int, Fraction], degree: int) -> AlgebraElement:
        """The element with coefficient c at each basis position p of ``coords``."""
        monos = self._monomials(degree)
        if coords and not 0 <= min(coords) <= max(coords) < len(monos):
            raise DimensionMismatch(
                f"coordinate position outside a degree-{degree} basis of size {len(monos)}"
            )
        return AlgebraElement(self, {self._unpack(monos[p]): Fraction(c) for p, c in coords.items()})

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"SullivanAlgebra({gens}; cutoff={self.cutoff})"


_morphism_fields = attrgetter("_source", "_target", "_assignment")


class CdgaMorphism:
    """Algebra morphism determined by generator images; must commute with
    the differentials (checked on every generator).  Immutable: source,
    target and assignment are read-only."""

    __slots__ = ("_source", "_target", "_assignment", "_images", "_mono_cache")

    source = property(attrgetter("_source"))
    target = property(attrgetter("_target"))
    assignment = property(attrgetter("_assignment"))

    def __init__(
        self,
        source: SullivanAlgebra,
        target: SullivanAlgebra,
        assignment: Mapping[str, AlgebraElement],
    ):
        images: dict[str, AlgebraElement] = {}
        terms = []  # the images as stored terms of the target, in source order
        for g in source.generators:
            if g.name not in assignment:
                raise UnknownGenerator(f"morphism misses generator {g.name!r}")
            img = assignment[g.name]
            if img.algebra.signature != target.signature:
                raise UnknownGenerator(f"image of {g.name!r} is not in the target algebra")
            img = AlgebraElement(target, img.terms)
            if not img.is_homogeneous:
                raise DegreeMismatch(f"image of {g.name!r} is not homogeneous")
            if not img.is_zero and img.degree != g.degree:
                raise DegreeMismatch(
                    f"image of {g.name!r} has degree {img.degree}, expected {g.degree}"
                )
            images[g.name] = img
            terms.append(target._image_terms(img.terms))
        self._source, self._target, self._assignment = source, target, images
        self._images = tuple(terms)
        self._mono_cache = {}
        for g, d_g, image in zip(source.generators, source._images, self._images):
            f_of_d = _combination(((m, c) for m, _, c in d_g), self._monomial_terms)
            if f_of_d != target._d_sum((m, c) for m, _, c in image):
                raise NotAChainMap(f"morphism does not commute with d on {g.name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _morphism_fields(self) == _morphism_fields(other)

    def __repr__(self):
        return "CdgaMorphism(source={!r}, target={!r}, assignment={!r})".format(
            *_morphism_fields(self)
        )

    def apply(self, e: AlgebraElement) -> AlgebraElement:
        if e.algebra.signature != self.source.signature:
            raise UnknownGenerator("element is not in the morphism source")
        return self.target._element(_combination(e.terms.items(), self._monomial_terms))

    def _monomial_terms(self, mono: Monomial) -> dict:
        """The image of a source monomial, the product of the generator
        images ``_images`` (stored terms of the target), as ``{monomial:
        coefficient}``; cached per monomial."""
        cache = self._mono_cache
        cached = cache.get(mono)
        if cached is None:
            cached = cache[mono] = self.target._product_terms(mono, self._images)
        return cached
