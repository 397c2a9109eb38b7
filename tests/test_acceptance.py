"""Acceptance suite: one test per criterion, each printing a verdict line.

All comparisons are exact (integer/rational equality); the stated time
budgets are asserted with the wall clock.
"""

import json
import random
import time

from instance_generators import random_pure_elliptic, random_sheared
from sullivan.catalog import DIAGRAM_PRESETS, lookup, standard_restriction
from sullivan.cdga import SullivanAlgebra
from sullivan.cli import main as cli_main
from sullivan.cohomology import (
    betti_numbers,
    cohomology,
    even_degree_surjectivity,
    euler_characteristic,
    poincare_duality_holds,
)
from sullivan.criteria import (
    cohomogeneity_one_surjectivity,
    euler_characteristic_relations,
    even_subalgebra_inclusion,
    homogeneous_surjectivity,
    pure_h0_equals_heven,
)
from sullivan.documents import load_diagram, run_analysis
from sullivan.ktheory import rational_k_dimensions, stable_class_infinitude
from sullivan.models import RestrictionMap, cohomogeneity_one_model, borel_model_cohomogeneity_one


def verdict_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_two_sphere_pipeline(tmp_path):
    """The catalog two-sphere runs through the CLI in under a second."""
    target = tmp_path / "s2.json"
    start = time.perf_counter()
    code = cli_main(
        [
            "check",
            "homogeneous",
            "--g",
            "SU(2)",
            "--h",
            "T1",
            "--format",
            "structured",
            "--output",
            str(target),
        ]
    )
    elapsed = time.perf_counter() - start
    report = json.loads(target.read_text())
    ok = (
        code == 0
        and report["space"]["betti"] == [1, 0, 1]
        and report["space"]["chi_pi"] == 0
        and report["verdict"]["rank_criterion"] is True
        and report["verdict"]["direct_check"] is True
        and report["ktheory"]["k0_dim"] == 2
        and elapsed < 1.0
    )
    verdict_line(1, ok, f"betti {report['space']['betti']}, k0 {report['ktheory']['k0_dim']}, {elapsed:.3f}s")


def test_criterion_2_cp2sum_two_ways():
    """Explicit minimal model and the group diagram agree exactly."""
    start = time.perf_counter()
    model = SullivanAlgebra.build(
        [("x", 2), ("y", 2), ("n", 3), ("m", 3)],
        {"n": "x^2+y^2", "m": "x*y"},
        cutoff=5,
    )
    betti_a = betti_numbers(model)[:5]
    diagram = load_diagram(DIAGRAM_PRESETS["cp2-sum"])
    space = cohomogeneity_one_model(diagram)
    betti_b = betti_numbers(space)
    checks = {
        "betti(a)": betti_a == (1, 0, 2, 0, 1),
        "betti(b)": betti_b == (1, 0, 2, 0, 1),
        "chi": euler_characteristic(betti_b) == 4,
        "odd": all(b == 0 for n, b in enumerate(betti_b) if n % 2 == 1),
        "duality": poincare_duality_holds(betti_b, 4) and poincare_duality_holds(betti_a, 4),
    }
    package = borel_model_cohomogeneity_one(diagram, cutoff=12)
    borel_betti = betti_numbers(package.borel)
    checks["borel ring"] = borel_betti == (1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2)
    surjective, _ = even_degree_surjectivity(
        borel_model_cohomogeneity_one(diagram).forgetful
    )
    checks["even surjectivity"] = surjective
    elapsed = time.perf_counter() - start
    checks["time"] = elapsed < 5.0
    failed = [name for name, good in checks.items() if not good]
    verdict_line(2, not failed, f"betti {betti_b}, borel {borel_betti[:6]}..., {elapsed:.2f}s" + (f"; failed: {failed}" if failed else ""))


def _homogeneous_cases():
    torus_pairs = [
        ("T1", "T1"), ("T2", "T2"), ("T2", "T1"), ("T3", "T2"), ("T3", "T1"),
        ("T4", "T3"), ("T4", "T2"), ("T4", "T1"), ("T1", "e"), ("T2", "e"),
        ("T3", "e"),
    ]
    cases = [(g, h, None) for g, h in torus_pairs]
    cases += [
        ("SU(2)", "T1", None),
        ("SU(2)", "e", None),
        ("SU(2)^2", "T2", None),
        ("SU(2)^2", "T1", "diagonal-circle"),
        ("SU(2)^2", "SU(2)", "diagonal"),
        ("SU(2)^2", "e", None),
        ("SU(2)^3", "T3", None),
        ("SU(2)^3", "T1", "diagonal-circle"),
        ("SU(2)^3", "e", None),
        ("SU(2)^4", "T1", "diagonal-circle"),
    ]
    return cases


def test_criterion_3_cross_validation_suite():
    """Rank formula vs direct check on >= 20 pairs/diagrams, gaps 0..3."""
    agreements = 0
    gaps = set()
    for g_name, h_name, kind in _homogeneous_cases():
        g, h = lookup(g_name), lookup(h_name)
        if kind is None and h.is_trivial:
            restriction = RestrictionMap(g, h, {})
        else:
            restriction = standard_restriction(g_name, h_name, kind)
        verdict = homogeneous_surjectivity(g, h, restriction)
        assert verdict.rank_criterion == verdict.direct_check
        agreements += 1
        gaps.add(verdict.rank_gap)
    witness_degree = None
    for name in DIAGRAM_PRESETS:
        diagram = load_diagram(DIAGRAM_PRESETS[name])
        verdict = cohomogeneity_one_surjectivity(diagram)
        assert verdict.rank_criterion == verdict.direct_check
        agreements += 1
        gaps.add(verdict.rank_gap)
        if name == "gap-two-diagonal":
            witness_degree = verdict.first_failing_degree
    ok = agreements >= 20 and gaps >= {0, 1, 2, 3} and witness_degree == 6
    verdict_line(
        3,
        ok,
        f"{agreements} agreements, rank gaps {sorted(gaps)}, gap-two witness degree {witness_degree}",
    )


def test_criterion_4_even_coverage_population():
    """Even coverage iff chi_pi <= 1, on >= 200 random pure elliptic
    algebras, within a minute."""
    rng = random.Random(1009)
    start = time.perf_counter()
    kept = 0
    holds = 0
    while kept < 200:
        algebra = random_pure_elliptic(rng)
        if algebra is None:
            continue
        kept += 1
        report = pure_h0_equals_heven(cohomology(algebra))  # raises on disagreement
        holds += report.h0_equals_heven == (report.chi_pi <= 1)
    elapsed = time.perf_counter() - start
    ok = kept >= 200 and holds == kept and elapsed < 60.0
    verdict_line(4, ok, f"{holds}/{kept} equivalences, {elapsed:.1f}s")


def test_criterion_5_reduction_to_pure():
    """Surjectivity into the associated pure algebra implies surjectivity
    into the full algebra, over the sheared population."""
    rng = random.Random(1013)
    kept = 0
    nonvacuous = 0
    implications = 0
    while kept < 200:
        pair = random_sheared(rng)
        if pair is None:
            continue
        sheared, _ = pair
        kept += 1
        evens = [g.name for g in sheared.generators if not g.is_odd]
        assoc = sheared.associated_pure()
        hypothesis, _ = even_degree_surjectivity(even_subalgebra_inclusion(assoc, evens))
        if not hypothesis:
            implications += 1  # vacuously true
            continue
        nonvacuous += 1
        conclusion, _ = even_degree_surjectivity(even_subalgebra_inclusion(sheared, evens))
        implications += conclusion
    ok = kept >= 200 and implications == kept and nonvacuous >= 10
    verdict_line(5, ok, f"{implications}/{kept} implications, {nonvacuous} non-vacuous")


def test_criterion_6_euler_identity():
    """chi(M) = chi(G/K-) + chi(G/K+) - chi(G/H) on every catalog diagram,
    each characteristic from its own model."""
    checked = []
    for name in sorted(DIAGRAM_PRESETS):
        diagram = load_diagram(DIAGRAM_PRESETS[name])
        report = euler_characteristic_relations(diagram, cohomology(cohomogeneity_one_model(diagram)))  # raises on failure
        assert report.identity_holds
        checked.append(f"{name}:{report.chi_m}")
    verdict_line(6, len(checked) == len(DIAGRAM_PRESETS), ", ".join(checked))


def test_criterion_7_ktheory_bridge():
    """The rank-one symmetric-space Betti table reproduces the expected
    rational K-theory dimensions."""
    betti = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    k0, k1, ko = rational_k_dimensions(betti)
    infinite = stable_class_infinitude(betti)
    report = run_analysis({"kind": "betti", "betti": list(betti)})
    ok = (
        (k0, k1, ko) == (3, 0, 3)
        and infinite
        and report["ktheory"]["k0_dim"] == 3
        and report["ktheory"]["k1_dim"] == 0
        and report["ktheory"]["infinite_stable_classes"] is True
    )
    verdict_line(7, ok, f"k0 {k0}, k1 {k1}, ko {ko}, infinite stable classes {infinite}")


def test_criterion_8_invariant_battery():
    """At least 1000 randomized exact checks of the structural laws in
    under two minutes."""
    from test_cdga import series_coefficients
    from test_properties import random_algebra, random_homogeneous_element
    from sullivan.linalg import RationalMatrix, kernel_basis, rank_rows

    start = time.perf_counter()
    rng = random.Random(1021)
    cases = 0

    # Koszul signs and squares of odd generators
    done = 0
    while done < 200:
        algebra = random_algebra(rng)
        e1 = random_homogeneous_element(rng, algebra)
        e2 = random_homogeneous_element(rng, algebra)
        if e1 is None or e2 is None:
            continue
        assert e1 * e2 == (-1) ** (e1.degree * e2.degree) * (e2 * e1)
        for g in algebra.generators:
            if g.is_odd:
                assert (algebra.gen(g.name) * algebra.gen(g.name)).is_zero
        done += 1
        cases += 1

    # Leibniz rule and d squared on random pure elliptic instances
    done = 0
    while done < 120:
        algebra = random_pure_elliptic(rng)
        if algebra is None:
            continue
        e1 = random_homogeneous_element(rng, algebra)
        e2 = random_homogeneous_element(rng, algebra)
        if e1 is None or e2 is None:
            continue
        left = algebra._d_element(e1 * e2)
        right = algebra._d_element(e1) * e2 + (-1) ** e1.degree * (
            e1 * algebra._d_element(e2)
        )
        assert left == right
        assert algebra.verify_d_squared()
        done += 1
        cases += 2

    # Poincare duality over the elliptic population
    done = 0
    while done < 120:
        algebra = random_pure_elliptic(rng)
        if algebra is None:
            continue
        betti = betti_numbers(algebra)
        fdim = max(n for n, b in enumerate(betti) if b)
        assert poincare_duality_holds(betti, fdim)
        done += 1
        cases += 1

    # basis counts against the generating function
    for _ in range(200):
        n = rng.randint(1, 4)
        degrees = [rng.randint(1, 6) for _ in range(n)]
        gens = [(f"g{i + 1}", d) for i, d in enumerate(degrees)]
        algebra = SullivanAlgebra.build(gens, cutoff=9)
        expected = series_coefficients(
            [d for d in degrees if d % 2 == 0],
            [d for d in degrees if d % 2 == 1],
            9,
        )
        assert [len(algebra._basis(k)) for k in range(10)] == expected
        cases += 1

    # exact linear algebra: scaling and permutation invariance, rank-kernel
    for _ in range(360):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        m = RationalMatrix.from_rows(matrix)
        r = rank_rows(m.entries)
        assert r + kernel_basis(m).dim == cols
        scaled = RationalMatrix.from_rows([[13 * x for x in row] for row in matrix])
        assert rank_rows(scaled.entries) == r
        perm = list(range(cols))
        rng.shuffle(perm)
        permuted = RationalMatrix.from_rows([[row[j] for j in perm] for row in matrix])
        assert rank_rows(permuted.entries) == r
        cases += 3

    elapsed = time.perf_counter() - start
    ok = cases >= 1000 and elapsed < 120.0
    verdict_line(8, ok, f"{cases} randomized checks, {elapsed:.1f}s")
