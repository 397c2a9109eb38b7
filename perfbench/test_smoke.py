"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted recorded digest is counted as a failed item, that a
directory without the library's sources gives no result, and that the
tracer neither times its own observers nor reads an absent function as
zero cost.
"""

import json
import os
import shutil
import subprocess
import sys

import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reports", "pure-ladder", "sheared-sweep")


def _run(*args, root=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return out


def _result(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _run("--workload", workload, "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = _result(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        bench = json.load(handle)
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _copy_benchmark(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_digest_counts_as_failed_item(tmp_path):
    _copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "expected.json"
    recorded = json.loads(path.read_text(encoding="ascii"))
    recorded["reports"]["preset:cp2-sum"] = "0" * 64
    path.write_text(json.dumps(recorded), encoding="ascii")
    out = _run("--workload", "reports", "--trace", "0", root=str(tmp_path))
    assert out.returncode == 1
    result = _result(out)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 3
    assert "preset:cp2-sum" in out.stderr


def test_no_result_without_the_sources(tmp_path):
    _copy_benchmark(tmp_path)
    out = _run("--workload", "reports", "--trace", "0", root=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip()


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import tracer

    return tracer


def test_observer_time_is_in_no_span(tracer, monkeypatch):
    def slow(tracer_, args, result):
        time.sleep(0.05)

    monkeypatch.setattr(tracer, "OBSERVERS", {"elim": slow})
    traced = tracer.Tracer()
    traced.install()
    try:
        from sullivan.linalg import rank_rows

        assert rank_rows([[1, 2], [3, 4]]) == 2
    finally:
        traced.uninstall()
    metrics = traced.metrics(1)
    assert metrics["elim.calls"] == 1 and metrics["linalg.rank.calls"] == 1
    assert traced.observed_s >= 0.05
    assert metrics["linalg.rank.self_s"] + metrics["elim.self_s"] < 0.025


def test_absent_function_leaves_its_metrics_out(tracer, monkeypatch):
    patches = [p for p in tracer.PATCHES if p[2] != "_int_rows"]
    patches.append(("sullivan.linalg", None, "_int_rows_renamed", "linalg.convert"))
    monkeypatch.setattr(tracer, "PATCHES", patches)
    traced = tracer.Tracer()
    traced.install()
    try:
        from sullivan.linalg import rank_rows

        rank_rows([[1, 2], [3, 4]])
    finally:
        traced.uninstall()
    metrics = traced.metrics(1)
    assert "linalg.convert.calls" not in metrics and "linalg.convert.self_s" not in metrics
    assert metrics["linalg.rank.calls"] == 1
