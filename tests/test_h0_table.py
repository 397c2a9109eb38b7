"""Cohomology of pure elliptic algebras with as many odd as even
generators.  Such an algebra, once it passes the H_0 rule, has
cohomology H = H_0 = ΛQ/(f_j), all in even degrees, with Poincaré series
Π(1 - t^{|y_j|+1}) / Π(1 - t^{|x_i|}) (Halperin; Félix–Halperin–Thomas
§32).  The series is the oracle here: it needs no elimination at all.

``CohomologyTable`` reads such a table from ΛQ alone (``_h0_blocks``);
with that route patched out it walks ΛV, and both must give the same
table.  The H_0 rule's answer is kept per algebra, so asking it again
ranks nothing."""

import random

import pytest

from induced_reference import representative_vectors
from instance_generators import k_pair_model, random_pure_elliptic
from sullivan import cohomology as ch
from sullivan import linalg
from sullivan.catalog import DIAGRAM_PRESETS, resolve, standard_restriction
from sullivan.cdga import SullivanAlgebra
from sullivan.cohomology import (
    LowerGradedTable,
    _elliptic,
    _formal_dimension,
    betti_numbers,
    cohomology,
)
from sullivan.criteria import even_subalgebra_inclusion
from sullivan.documents import load_diagram, run_analysis, to_json
from sullivan.models import borel_model_cohomogeneity_one, borel_model_homogeneous

# |W| of each group's maximal torus pair, the rank of H*(G/T)
WEYL_ORDERS = {
    "SU(2)": 2,
    "Sp(1)": 2,
    "SO(3)": 2,
    "Sp(2)": 8,
    "SO(5)": 8,
    "SU(3)": 6,
    "SU(4)": 24,
    "T2": 1,
    "SU(2)xSU(3)": 12,
    "SU(3)^2": 36,
    "SU(3)xSp(2)": 48,
}


def _w_q(a):
    return max((g.degree for g in a.generators if not g.is_odd), default=0)


def torus_pairs():
    """(G, space model of G/T at its formal dimension) for the groups of
    ``WEYL_ORDERS``."""
    for g in WEYL_ORDERS:
        r = standard_restriction(g, f"T{resolve(g).group.rank}", "maximal-torus")
        yield g, borel_model_homogeneous(r.source, r.target, r).space


def chi_pi_zero_models():
    """(name, algebra at its formal dimension) of pure models with
    χ_π = 0 that pass the H_0 rule: the maximal-torus pairs above, the
    k-pair models for k <= 5, three diagram presets' space models and
    50 elliptic draws of ``random_pure_elliptic`` with χ_π = 0."""
    models = [(f"{g}/T", space) for g, space in torus_pairs()]
    models += [(f"{k}-pair", k_pair_model(k, 2 * k)) for k in range(1, 6)]
    for name in ("cp2-sum", "cp2-sum-times-sphere", "sphere-s4"):
        models.append((name, borel_model_cohomogeneity_one(load_diagram(DIAGRAM_PRESETS[name])).space))
    rng = random.Random(311)
    drawn = 0
    while drawn < 50:
        a = random_pure_elliptic(rng, max_cutoff=18)
        if a is not None and a.homotopy_euler_characteristic() == 0 and _elliptic(a):
            models.append((f"draw-{drawn}", a.with_cutoff(_formal_dimension(a))))
            drawn += 1
    return models


MODELS = chi_pi_zero_models()
ABOVE_ZERO = [(name, a) for name, a in MODELS if a.cutoff > 0]


def fresh(a, cutoff):
    """``a`` up to ``cutoff``, with no H_0 answer shared with ``a``."""
    return SullivanAlgebra(a.generators, cutoff, {g.name: d for g, d in zip(a.generators, a.differential)})


def poincare_series(a, top):
    """Coefficients of Π(1 - t^{|y_j|+1}) / Π(1 - t^{|x_i|}) up to t^top."""
    coeffs = [1] + [0] * top
    for g in a.generators:
        if g.is_odd:  # times 1 - t^d
            d = g.degree + 1
            for n in range(top, d - 1, -1):
                coeffs[n] -= coeffs[n - d]
        else:  # times 1 + t^d + t^2d + ...
            d = g.degree
            for n in range(d, top + 1):
                coeffs[n] += coeffs[n - d]
    return tuple(coeffs)


class TestPoincareSeries:
    def test_population(self):
        assert len(MODELS) == len(WEYL_ORDERS) + 5 + 3 + 50
        for name, a in MODELS:
            assert a.is_pure() and a.homotopy_euler_characteristic() == 0, name
            assert a.cutoff == _formal_dimension(a) >= 0, name

    @pytest.mark.parametrize("name, a", MODELS, ids=[name for name, _ in MODELS])
    def test_betti_numbers_are_the_series(self, name, a):
        """The table and the reference ``betti_numbers``, at the formal
        dimension N and past the window, at N + w_Q + 1."""
        assert _elliptic(a)
        for b in (a, a.with_cutoff(a.cutoff + _w_q(a) + 1)):
            series = poincare_series(b, b.cutoff)
            assert cohomology(b).betti == betti_numbers(b) == series
            assert not any(series[_formal_dimension(b) + 1 :])

    @pytest.mark.parametrize("g, space", list(torus_pairs()))
    def test_flag_manifold_betti_sums_are_weyl_orders(self, g, space):
        assert sum(cohomology(space).betti) == WEYL_ORDERS[g]


def everything(table):
    """What a table gives: its Betti numbers and, per degree, its
    formatted representatives in order, its representative vectors over
    the basis positions and its lower-grading dimensions."""
    a = table.algebra
    degrees = range(table.cutoff + 1)
    return (
        table.betti,
        [[a.format_element(e) for e in table.representatives(n)] for n in degrees],
        [representative_vectors(table, n) for n in degrees],
        [LowerGradedTable(table).dims(n) for n in degrees],
    )


@pytest.fixture
def walked(monkeypatch):
    """The algebras whose table walks ΛV."""
    algebras = []
    strand_blocks = ch._strand_blocks
    monkeypatch.setattr(ch, "_strand_blocks", lambda a: algebras.append(a) or strand_blocks(a))
    return algebras


def patch_route_out(monkeypatch):
    monkeypatch.setattr(ch, "_h0_blocks", lambda a: None)


class TestRouteAgainstTheWalk:
    @pytest.mark.parametrize("name, a", MODELS, ids=[name for name, _ in MODELS])
    def test_route_matches_the_walk(self, name, a, walked, monkeypatch):
        """At the formal dimension N, at N + 1 and past the window, each
        routed table deciding the H_0 rule itself."""
        cutoffs = (a.cutoff, a.cutoff + 1, a.cutoff + _w_q(a) + 1)
        routed = [everything(cohomology(fresh(a, c))) for c in cutoffs]
        assert walked == []
        patch_route_out(monkeypatch)
        assert [everything(cohomology(a.with_cutoff(c))) for c in cutoffs] == routed
        assert len(walked) == 3

    def test_empty_algebra(self, walked, monkeypatch):
        a = SullivanAlgebra([], 4)
        routed = everything(cohomology(a))
        assert walked == [] and routed[0] == (1, 0, 0, 0, 0)
        patch_route_out(monkeypatch)
        assert everything(cohomology(a)) == routed

    def test_failing_the_rule_walks_lv(self, walked, monkeypatch):
        """x, y / a, b with d a = x^2 and d b = xy has χ_π = 0 and N = 4
        but classes y^n in every even degree: the route's window rank
        falls short before it eliminates any degree up to N, it keeps that
        answer, and the table walks ΛV to the cutoff."""
        a = SullivanAlgebra.build([("x", 2), ("y", 2), ("a", 3), ("b", 3)], {"a": "x^2", "b": "x*y"}, cutoff=10)
        assert a.homotopy_euler_characteristic() == 0 and _formal_dimension(a) == 4
        ranked, echelon = [], linalg.ff_row_echelon
        monkeypatch.setattr(linalg, "ff_row_echelon", lambda rows: ranked.append(len(rows)) or echelon(rows))
        assert ch._h0_blocks(a.with_cutoff(10)) is None
        assert ranked == [4]  # f_a and f_b times x and y, in the window's one degree, 6
        monkeypatch.setattr(linalg, "ff_row_echelon", echelon)
        routed = everything(cohomology(a))
        assert walked == [a] and list(ch._ideal(a).kept) == [6]  # the window alone
        assert routed[0] == betti_numbers(a) == (1, 0, 2, 0, 1, 1, 1, 1, 1, 1, 1)
        patch_route_out(monkeypatch)
        assert everything(cohomology(a.with_cutoff(10))) == routed

    @pytest.mark.parametrize("name, a", ABOVE_ZERO, ids=[name for name, _ in ABOVE_ZERO])
    def test_below_the_formal_dimension_builds_no_ring(self, name, a, walked, monkeypatch):
        """Cut off at N - 1 the table walks ΛV and builds no ΛQ."""
        b = a.with_cutoff(a.cutoff - 1)
        monkeypatch.setattr(ch, "SullivanAlgebra", None)
        table = cohomology(b)
        assert walked == [b]
        assert table.betti == betti_numbers(b)

    @pytest.mark.parametrize("name, a", MODELS[:20], ids=[name for name, _ in MODELS[:20]])
    def test_references_read_no_route(self, name, a, monkeypatch):
        """``betti_numbers``, ``h0_dims`` and the direct check stay on ΛV."""
        b = a.with_cutoff(a.cutoff + 1)
        monkeypatch.setattr(ch, "_h0_blocks", None)
        assert betti_numbers(b) == poincare_series(b, b.cutoff)
        assert all(ch.h0_dims(b)[n] == betti_numbers(b)[n] for n in range(0, b.cutoff + 1, 2))
        evens = [g.name for g in b.generators if not g.is_odd]
        assert ch.surjectivity_by_parity(even_subalgebra_inclusion(b, evens), (0,)) == ((True, None),)

    def test_pure_ladder_reports_enumerate_no_lv_degree(self, monkeypatch):
        """A model report of x, y, z / a, b, c reads its table, lower
        grading, even coverage and formality without one ΛV basis."""
        read = []
        monomials = SullivanAlgebra._monomials

        def recording(self, degree):
            if any(g.is_odd for g in self.generators):
                read.append(degree)
            return monomials(self, degree)

        monkeypatch.setattr(SullivanAlgebra, "_monomials", recording)
        for cutoff in (10, 12, 14):
            doc = {
                "kind": "model",
                "generators": [["x", 2], ["y", 2], ["z", 2], ["a", 3], ["b", 3], ["c", 3]],
                "differential": {"a": "x^2", "b": "y^2", "c": "z^2"},
                "cutoff": cutoff,
            }
            report = run_analysis(doc)
            to_json(report)
            assert report["space"]["betti"][:7] == [1, 0, 3, 0, 3, 0, 1]
        assert read == []


class TestOneAnswerPerAlgebra:
    """One ΛQ helper per algebra, shared by its copies through
    ``with_cutoff`` and ``associated_pure``, eliminates each even degree
    at most once."""

    @pytest.fixture
    def helpers(self, monkeypatch):
        """The algebras a ΛQ helper is built for."""
        built = []
        ideal = ch._Ideal
        monkeypatch.setattr(ch, "_Ideal", lambda a: built.append(a) or ideal(a))
        return built

    def test_asked_again_ranks_nothing(self, helpers, monkeypatch):
        a = k_pair_model(3, 4)
        assert _elliptic(a)
        monkeypatch.setattr(linalg, "ff_row_echelon", None)
        assert _elliptic(a)
        assert _elliptic(a.with_cutoff(20)) and _elliptic(a.associated_pure().with_cutoff(0))
        assert helpers == [a]

    def test_sheared_algebra_shares_with_its_associated_pure(self, helpers):
        a = SullivanAlgebra.build(
            [("x", 2), ("y", 2), ("a", 3), ("b", 3), ("c", 5)], {"c": "x^3+a*b"}, cutoff=14
        )
        assert not _elliptic(a.associated_pure()) and not _elliptic(a)
        assert len(helpers) == 1

    def test_the_route_fills_the_answer(self, helpers, monkeypatch):
        a = k_pair_model(3, 8)
        cohomology(a)
        assert helpers == [a]
        monkeypatch.setattr(linalg, "ff_row_echelon", None)
        assert _elliptic(a.associated_pure())
        assert helpers == [a]

    def test_a_known_answer_skips_the_window(self, monkeypatch):
        """With the answer known, the route eliminates the even degrees
        up to N only, each once."""
        a = k_pair_model(3, 8)
        assert _elliptic(a)
        kept = ch._ideal(a).kept
        assert list(kept) == [8]
        eliminated = []
        echelon = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon", lambda rows: eliminated.append(1) or echelon(rows))
        cohomology(a)
        assert list(kept) == [8, 0, 2, 4, 6] and len(eliminated) == 4
