"""One pass of a workload in a fresh process.

    python3 child.py PLAN RESULT [--traced]    one pass over the planned items
    python3 child.py --setup                   only the timed import

With ``--setup`` it prints how long the import of the library took and
how long the calibration work takes right after it.  Otherwise it runs
every planned item once, checks each output, and writes the measurements
to RESULT as JSON; with ``--traced`` it also records per-layer metrics
and writes its spans out at the end.  A pass per process means no cache outlives a pass, and every
pass pays the first-call costs a user of the command line pays.  A timer
samples the machine's speed throughout the pass (calibrate.py), so the
parent can scale the times to reference seconds; the clock the pass is
timed with leaves the sampling out.
"""

from __future__ import annotations

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_library() -> float:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import sullivan.cli  # imports every module a report uses

    elapsed = time.perf_counter() - start
    if not os.path.abspath(sullivan.cli.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"sullivan was imported from {sullivan.cli.__file__}, not from {SRC}")
    return elapsed


def setup(setup_s: float) -> None:
    import calibrate

    cal_s = statistics.median(calibrate.sample() for _ in range(30))
    print(json.dumps({"setup_s": setup_s, "cal_s": cal_s}))


def one_pass(plan_path: str, result_path: str, traced: bool) -> None:
    import calibrate
    import workloads

    with open(plan_path, encoding="ascii") as handle:
        plan = json.load(handle)
    workload, items, expected = plan["workload"], plan["items"], plan["expected"]
    workloads.prepare(workload, items, plan["workdir"])
    item_s: list[float] = []
    problems: list[str] = []
    failed = 0
    nonvacuous = 0
    with calibrate.Sampler() as sampler:
        clock = sampler.clock
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer(clock)
            tracer.install()
        try:
            for index, item in enumerate(items):
                if tracer is not None:
                    tracer.item = index
                start = clock()
                try:
                    output = workloads.run(workload, item)
                except Exception:  # an item that raises is a failed item; keep measuring
                    item_s.append(clock() - start)
                    failed += 1
                    problems.append(f"{item['name']}: {traceback.format_exc(limit=3)}")
                    continue
                item_s.append(clock() - start)
                found = workloads.check(workload, item, output, expected)
                failed += bool(found)
                problems += [f"{item['name']}: {p}" for p in found]
                if item.get("core") and output[0]:
                    nonvacuous += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
    if "core_nonvacuous" in expected and nonvacuous != expected["core_nonvacuous"]:
        failed += 1
        problems.append(
            f"{nonvacuous} non-vacuous core instances, recorded {expected['core_nonvacuous']}"
        )
    result = {
        "item_s": item_s,
        "cal_s": statistics.median(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(items))
        tracer.write(plan["spans"])
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    # The library's import is timed before anything else is imported, so the
    # standard modules it needs (fractions, re, json) count toward it.
    SETUP_S = _import_library()
    import json
    import resource
    import statistics
    import traceback

    if sys.argv[1:] == ["--setup"]:
        setup(SETUP_S)
    else:
        one_pass(sys.argv[1], sys.argv[2], sys.argv[3:] == ["--traced"])
