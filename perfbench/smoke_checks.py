"""The benchmark's own tests, on smoke-size workloads.

Run with ``python3 -m pytest perfbench/smoke_checks.py -q`` (the file
name keeps it out of a bare ``pytest`` collection of the repo).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["falsify", "risk", "service"])
def test_end_to_end_smoke_reports_every_metric(workload):
    code, lines = _bench("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", "0", "--smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    context = json.loads(lines[-2])["context"]
    assert context["seed"] == 3 and context["nproc"] >= 1
    assert all(context["checks"].values())


@pytest.mark.parametrize("workload", ["falsify", "risk", "service"])
def test_traced_smoke_reports_every_layer(workload):
    code, lines = _bench("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", "1", "--smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["sim.calls"]["value"] > 0
    assert metrics["trace.coverage"]["value"] > 0.5
    assert metrics["telemetry.hook_calls"]["value"] > 0


def test_wrong_output_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PINNED, "falsify",
                        dict(workloads.PINNED["falsify"], digest="0" * 64))
    falsify = workloads.Falsify(seed=1, work=tmp_path / "w",
                                cache=tmp_path / "cache", smoke=True)
    try:
        falsify.setup()
        falsify.run(seconds=None, ops=2)
        checks = falsify.check()
    finally:
        falsify.teardown()
    assert checks["pinned_probe"] is False
    assert checks["twin_generations"] and checks["resume_identical"]


def test_failed_check_reports_no_numbers(monkeypatch, capsys):
    def measure(args, work):
        result = {"checks": {"pinned_probe": False}, "attempted": 1,
                  "failed": 0, "parameters": {}}
        return [result], {}, {}

    monkeypatch.setattr(bench, "measure", measure)
    code = bench.main(["--workload", "falsify", "--seed", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["metrics"] == {}


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--workload", "falsify", "--seed", "1",
                         cwd=tmp_path)
    assert code != 0 and lines == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail(list(range(100))) == (89, 90.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, 1, None, None, 7, 1, {}],
        ["b", 1.0, 4.0, 2, 1, None, 7, 1, {}],
        ["c", 3.0, 6.0, 3, 1, None, 7, 1, {}],
    ]
    own = layers.self_times(spans)
    assert own[(7, 1)] == pytest.approx(5.0)
    assert own[(7, 2)] == pytest.approx(3.0)


def _coverage(spans, t0, t1, main_pid, threads=1):
    trace = {"spans": spans, "hook_calls": 0}
    timing = {"t_start": t0, "t_end": t1, "traced_wall": 1.0,
              "untraced_wall": 1.0}
    return layers.analyse(trace, timing, main_pid=main_pid,
                          kernel_processes=1,
                          driving_threads=threads)["trace.coverage"]


def test_uninstrumented_time_drives_coverage_below_the_floor(
        tmp_path, monkeypatch):
    monkeypatch.setitem(tracing._state, "pid", os.getpid())
    monkeypatch.setitem(tracing._state, "spans", [])
    monkeypatch.setitem(tracing._state, "trace_dir", str(tmp_path))
    t0 = time.monotonic()
    span = tracing.open_span("search.ga")
    time.sleep(0.05)
    tracing.close_span(span)
    time.sleep(0.10)  # work outside every layer span
    t1 = time.monotonic()
    # The benchmark's own client spans cover the window but are no layer.
    tracing.record("client.request", t0, t1, ctx="r0")
    tracing.dump()
    spans = tracing.load(tmp_path)["spans"]
    coverage = _coverage(spans, t0, t1, os.getpid())
    assert coverage < layers.COVERAGE_FLOOR
    assert coverage == pytest.approx(1 / 3, abs=0.1)


def test_service_coverage_is_handler_time_not_client_time():
    client, server = 7, 8
    spans = [
        ["client.request", 0.0, 4.0, 1, None, "r0", client, 1, {}],
        ["client.request", 0.0, 4.0, 2, None, "r1", client, 2, {}],
        ["service.handler", 0.5, 4.0, 1, None, "r0", server, 1, {}],
        ["service.handler", 0.5, 2.5, 2, None, "r1", server, 2, {}],
        ["store.read", 1.0, 2.0, 3, 2, "r1", server, 2, {}],
    ]
    assert _coverage(spans, 0.0, 4.0, client, threads=2) == pytest.approx(
        5.5 / 8)
