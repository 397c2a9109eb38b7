"""Randomized instance generators shared by the property and acceptance
suites.  Everything is driven by an explicit random.Random so failures
reproduce from the seed."""

from __future__ import annotations

import random
from fractions import Fraction

from sullivan.cdga import AlgebraElement, Generator, SullivanAlgebra
from sullivan.cohomology import betti_numbers, top_window_vanishes

# odd degrees o with o+1 a multiple of e, keyed by even degree e <= 8
_PAIRABLE_ODD = {2: [1, 3, 5, 7], 4: [3, 7], 6: [5], 8: [7]}


def _random_even_element(rng: random.Random, algebra: SullivanAlgebra, degree: int):
    """Random element of the even subalgebra in one degree (possibly 0)."""
    monos = [m for m in algebra._basis(degree) if algebra.odd_word_length(m) == 0]
    terms = {}
    for mono in monos:
        if rng.random() < 0.5:
            c = rng.choice([-2, -1, 1, 2, 3])
            terms[mono] = Fraction(c)
    return AlgebraElement(algebra, terms)


def random_pure_elliptic(
    rng: random.Random,
    max_even: int = 3,
    max_odd: int = 4,
    max_cutoff: int = 24,
    require_closed_odd: bool = False,
    shape_filter=None,
):
    """A random pure algebra built to be elliptic with high probability:
    each even generator is paired with an odd generator whose
    differential contains a power of it, plus noise.  Returns None when
    the draw is out of budget, rejected by shape_filter(even_degrees,
    odd_degrees), or fails the top-window vanishing proxy, so callers
    filter.
    """
    n_even = rng.randint(0, max_even)
    n_odd = rng.randint(max(n_even, 1), max_odd)
    even_degrees = sorted(rng.choice([2, 2, 4, 4, 6, 8]) for _ in range(n_even))
    paired_odd = [rng.choice(_PAIRABLE_ODD[e]) for e in even_degrees]
    free_odd = [rng.choice([1, 3, 3, 5, 7]) for _ in range(n_odd - n_even)]
    odd_degrees = paired_odd + free_odd
    fdim = sum(odd_degrees) - sum(e - 1 for e in even_degrees)
    if fdim < 0:
        return None
    width = max(even_degrees + odd_degrees)
    cutoff = fdim + width
    if cutoff > max_cutoff:
        return None
    if shape_filter is not None and not shape_filter(even_degrees, odd_degrees):
        return None
    gens = [Generator(f"a{i + 1}", d) for i, d in enumerate(even_degrees)]
    gens += [Generator(f"b{i + 1}", d) for i, d in enumerate(odd_degrees)]
    draft = SullivanAlgebra(gens, cutoff)
    differential = {}
    closed_left = len(free_odd) if require_closed_odd else 0
    for i, (e, o) in enumerate(zip(even_degrees, paired_odd)):
        power = (o + 1) // e
        pivot = draft.gen(f"a{i + 1}") ** power
        differential[f"b{i + 1}"] = pivot + _random_even_element(rng, draft, o + 1)
    for j, o in enumerate(free_odd):
        name = f"b{n_even + j + 1}"
        if closed_left > 0 or rng.random() < 0.4:
            closed_left -= 1
            continue  # closed odd generator
        differential[name] = _random_even_element(rng, draft, o + 1)
    algebra = SullivanAlgebra(gens, cutoff, differential)
    betti = betti_numbers(algebra)
    if not top_window_vanishes(algebra, betti):
        return None
    return algebra


def random_shear(rng: random.Random):
    """A pure elliptic core and a shearing automorphism of it,
    v_t -> v_t + c * m * v_a v_b v_c, as the assignments ``(core,
    forward, backward)`` of the shear and its inverse, or None when no
    shear fits."""
    def admits_shear(even_degrees, odd_degrees):
        if len(odd_degrees) < 4:
            return False
        for t in range(len(odd_degrees)):
            rest = sorted(odd_degrees[:t] + odd_degrees[t + 1 :])
            if odd_degrees[t] >= rest[0] + rest[1] + rest[2]:
                return True
        return False

    core = random_pure_elliptic(rng, max_even=3, max_odd=4, shape_filter=admits_shear)
    if core is None:
        return None
    odd = [(g.name, g.degree) for g in core.generators if g.is_odd]
    shears = []
    for t_name, t_degree in odd:
        others = [item for item in odd if item[0] != t_name]
        for i in range(len(others)):
            for j in range(i + 1, len(others)):
                for k in range(j + 1, len(others)):
                    triple = (others[i], others[j], others[k])
                    filler = t_degree - sum(d for _, d in triple)
                    if (
                        filler >= 0
                        and filler % 2 == 0
                        and any(core.odd_word_length(m) == 0 for m in core._basis(filler))
                    ):
                        shears.append((t_name, triple, filler))
    if not shears:
        return None
    t_name, triple, filler = rng.choice(shears)
    monos = [m for m in core._basis(filler) if core.odd_word_length(m) == 0]
    factor = AlgebraElement(core, {rng.choice(monos): Fraction(rng.choice([-2, -1, 1, 2]))})
    perturbation = factor
    for name, _ in triple:
        perturbation = perturbation * core.gen(name)
    forward = {t_name: core.gen(t_name) + perturbation}
    backward = {t_name: core.gen(t_name) - perturbation}
    return core, forward, backward


def random_sheared(rng: random.Random):
    """A non-pure algebra isomorphic to a pure elliptic core: conjugate
    the core differential by a shearing automorphism (``random_shear``),
    which adds odd-word-length-two terms to d(v_t) but leaves the
    associated pure algebra equal to the core.  Returns (sheared, core)
    or None when no shear fits."""
    drawn = random_shear(rng)
    if drawn is None:
        return None
    core, forward, backward = drawn
    return conjugated(core, forward, backward), core


def conjugated(core: SullivanAlgebra, forward, backward) -> SullivanAlgebra:
    """The core's generators with the differential backward . d . forward
    of a shear and its inverse, given as assignments."""
    differential = {}
    for g in core.generators:
        image = core.substitute(
            core._d_element(core.substitute(core.gen(g.name), forward)), backward
        )
        if not image.is_zero:
            differential[g.name] = image
    return SullivanAlgebra(core.generators, core.cutoff, differential)


def tensor_product(a: SullivanAlgebra, b: SullivanAlgebra) -> SullivanAlgebra:
    """Tensor product with generators renamed L*/R*; the differential of
    each side acts on its own factor."""
    gens = [Generator(f"L{g.name}", g.degree) for g in a.generators]
    gens += [Generator(f"R{g.name}", g.degree) for g in b.generators]
    cutoff = min(a.cutoff, b.cutoff)
    draft = SullivanAlgebra(gens, cutoff)
    pad_left = (0,) * len(b.generators)
    pad_right = (0,) * len(a.generators)
    differential = {}
    for g, img in zip(a.generators, a.differential):
        if not img.is_zero:
            differential[f"L{g.name}"] = AlgebraElement(
                draft, {m + pad_left: c for m, c in img.terms.items()}
            )
    for g, img in zip(b.generators, b.differential):
        if not img.is_zero:
            differential[f"R{g.name}"] = AlgebraElement(
                draft, {pad_right + m: c for m, c in img.terms.items()}
            )
    return SullivanAlgebra(gens, cutoff, differential)


def random_mixed_two_stage(rng: random.Random):
    """A two-stage algebra that is generally not pure: a pure core with at
    least two closed odd generators plus extra odd generators whose
    differentials mix an even monomial with a product of two closed odd
    generators (d^2 = 0 automatically)."""
    core = random_pure_elliptic(rng, max_even=2, max_odd=3, max_cutoff=14, require_closed_odd=True)
    if core is None:
        return None
    closed_odd = [
        g.name
        for g, img in zip(core.generators, core.differential)
        if g.is_odd and img.is_zero
    ]
    if len(closed_odd) < 2:
        return None
    extra = rng.randint(1, 2)
    gens = list(core.generators)
    degrees = {g.name: g.degree for g in core.generators}
    fillers = [0] + [
        f
        for f in (2, 4)
        if any(core.odd_word_length(m) == 0 for m in core._basis(f))
    ]
    new_specs = []
    for i in range(extra):
        q_a, q_b = rng.sample(closed_odd, 2)
        filler = rng.choice(fillers)
        name = f"c{i + 1}"
        degree = degrees[q_a] + degrees[q_b] + filler - 1
        gens.append(Generator(name, degree))
        new_specs.append((name, q_a, q_b, filler))
    cutoff = core.cutoff + max(g.degree for g in gens) + 1
    draft = SullivanAlgebra(gens, cutoff)
    pad = len(gens) - len(core.generators)
    differential = {}
    for g, img in zip(core.generators, core.differential):
        if not img.is_zero:
            differential[g.name] = AlgebraElement(
                draft, {m + (0,) * pad: c for m, c in img.terms.items()}
            )
    for name, q_a, q_b, filler in new_specs:
        mixing = [
            m for m in draft._basis(filler) if draft.odd_word_length(m) == 0
        ]
        factor = AlgebraElement(draft, {rng.choice(mixing): Fraction(rng.choice([-1, 1, 2]))})
        term = factor * draft.gen(q_a) * draft.gen(q_b)
        pure_part = _random_even_element(
            rng, draft, degrees[q_a] + degrees[q_b] + filler
        )
        differential[name] = term + pure_part
    return SullivanAlgebra(gens, cutoff, differential)
