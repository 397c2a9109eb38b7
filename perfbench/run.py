#!/usr/bin/env python3
"""End-to-end benchmark of the ``sullivan`` package.

    python3 perfbench/run.py --workload reports --seed 1013 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and needs no install.  The benchmark times the import of the
package in fresh processes, builds the workload's inputs, then runs one
fresh workload process per pass over them for ``--seconds`` seconds and
checks every output.  It prints one line per metric and, as the last
line, a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
half the time goes to untraced passes and half to traced ones, and the
metrics are per layer.  Any failed check makes the exit code 1.  Times
are in reference seconds (see calibrate.py and README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORKDIR = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
DEADLINE_S = 170.0
SETUP_PROBES = 7
MIN_PASSES = 3


class PassFailed(Exception):
    pass


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("per_report"):
        return "1/report"
    if name.endswith(("ratio", "yield", "error_rate")):
        return "ratio"
    return "count"


def _scale(cal_s: float) -> float:
    """Factor from measured to reference seconds."""
    return calibrate.REFERENCE_S / cal_s


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["SULLIVAN_PURE"] = "1"  # the same elimination kernel on every machine
    return env


def _setup_times(env: dict) -> list[float]:
    """Import time of the package in fresh processes, in reference seconds;
    the first probe compiles the bytecode and is not counted."""
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, CHILD, "--setup"], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=60,
        )
        if out.returncode != 0:
            raise PassFailed(f"set-up probe failed: {out.stderr.strip()}")
        probe = json.loads(out.stdout)
        if i:
            times.append(probe["setup_s"] * _scale(probe["cal_s"]))
    return times


def _passes(plan_path, run_dir, env, seconds, minimum, traced, started) -> list[dict]:
    """Run one-pass workload processes (at least minimum of them) while the
    next pass, taking as long as the last one, still ends within seconds
    and before the deadline."""
    results: list[dict] = []
    result_path = os.path.join(run_dir, "result.json")
    command = [sys.executable, CHILD, plan_path, result_path] + (["--traced"] if traced else [])
    begin = time.monotonic()
    last = 0.0
    while len(results) < minimum or time.monotonic() - begin + last <= seconds:
        now = time.monotonic()
        remaining = DEADLINE_S - (now - started)
        if len(results) >= minimum and remaining < 2 * last:
            break
        child = subprocess.run(command, env=env, cwd=ROOT, timeout=max(remaining, 1.0))
        if child.returncode != 0:
            raise PassFailed(f"workload process exited with {child.returncode}")
        with open(result_path, encoding="ascii") as handle:
            results.append(json.load(handle))
        last = time.monotonic() - now
    return results


def _layer_metrics(traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced passes: times are medians in
    reference seconds, counts must repeat exactly."""
    metrics, problems = {}, []
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith("_s"):
            metrics[name] = statistics.median(v * _scale(r["cal_s"]) for v, r in zip(values, traced))
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1013)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "sullivan", "cli.py")):
        sys.stderr.write(f"perfbench: no sullivan sources under {SRC}; run from a checkout\n")
        return 2
    sys.path[:0] = [SRC, TESTS]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    with open(EXPECTED, encoding="ascii") as handle:
        recorded = json.load(handle)
    smoke_key = f"{args.workload}-smoke"
    expected = dict(recorded[smoke_key if args.smoke and smoke_key in recorded else args.workload])

    env = _environment()
    problems: list[str] = []
    items, facts = workloads.plan(args.workload, args.seed, args.smoke)
    if "core_sha256" in facts and facts["core_sha256"] != expected.pop("core_sha256"):
        problems.append(f"sheared core documents drifted: sha256 {facts['core_sha256']}")

    os.makedirs(WORKDIR, exist_ok=True)
    run_dir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="ascii") as handle:
        json.dump(
            {
                "workload": args.workload,
                "items": items,
                "expected": expected,
                "workdir": run_dir,
                "spans": os.path.join(WORKDIR, f"spans-{args.workload}.jsonl"),
            },
            handle,
        )
    try:
        setup = _setup_times(env)
        if args.trace:
            plain = _passes(plan_path, run_dir, env, args.seconds / 2, 1, False, started)
            traced = _passes(plan_path, run_dir, env, args.seconds / 2, 2, True, started)
        else:
            plain = _passes(
                plan_path, run_dir, env, args.seconds, 1 if args.smoke else MIN_PASSES, False, started
            )
            traced = []
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r["item_s"]) for r in plain + traced)
    # each problem the parent found so far (a drifted core) is one failure
    failed = len(problems) + sum(r["failed"] for r in plain + traced)
    for result in plain + traced:
        problems += result["problems"]
    pass_s = [sum(r["item_s"]) * _scale(r["cal_s"]) for r in plain]
    if args.trace:
        metrics, count_problems = _layer_metrics(traced)
        failed += len(count_problems)
        problems += count_problems
        traced_s = [sum(r["item_s"]) * _scale(r["cal_s"]) for r in traced]
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(pass_s)
        metrics["error_rate"] = failed / attempted
    else:
        metrics = {
            "wall_s": statistics.median(pass_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    for problem in problems:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")

    print(f"# {args.workload}: {len(plain) + len(traced)} passes, {attempted} items, {failed} failed")
    print("# measured pass seconds: " + " ".join(f"{sum(r['item_s']):.4f}" for r in plain))
    print("# median calibration sample seconds: " + " ".join(f"{r['cal_s']:.5f}" for r in plain))
    if "error_rate" not in metrics:
        print(f"error_rate {failed / attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
