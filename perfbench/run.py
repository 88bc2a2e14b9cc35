"""The repo benchmark: ``python3 perfbench/run.py --workload W --seed N``.

Workloads (see ``workloads.py``): ``falsify`` (the paper's Fig. 6 GA
search on the megabatch backend with a file-backed store), ``risk`` (the
Monte-Carlo risk ratio, equipped and unequipped arms, process pool sized
to the host) and ``service`` (closed-loop HTTP against ``repro serve
--queue`` and a fleet of ``repro worker --forever`` processes).

``--trace 0`` measures the end-to-end metrics.  Every metric exists on
every workload:

* ``setup_s``           median over five set-ups of process start →
                        workload ready (imports, table load, store/queue
                        open, service and fleet live, one warm-up op);
* ``runs_per_s``        simulated runs ÷ wall of the fresh work: the
                        searches or estimates without their replays
                        (falsify, risk), the whole closed loop (service,
                        where store hits add 0 runs);
* ``peak_rss_mb``       max RSS over this process and all it started;
* ``gen_s_p50/_tail``   wall time of one step: a GA generation (falsify),
                        one estimate, both arms (risk), one block of the
                        request mix as the sum of its eight request
                        latencies (service);
* ``latency_s_p50/_tail``  fresh campaign latency: ``evaluate_population``
                        (falsify), the equipped arm's ``Campaign.run``
                        (risk), POST → full response (service), each
                        timed by the benchmark;
* ``hit_latency_s_p50`` the same for a campaign the store already holds:
                        each search or estimate is replayed from its
                        seed right after it runs, outside the fresh
                        wall (falsify, risk); re-submissions (service);
* ``requests_per_s``    campaign requests completed ÷ timed wall: a
                        generation's fitness campaign, an estimator arm
                        (replays included), an HTTP request of any kind.

A ``_tail`` is the highest percentile with at least ten samples beyond
it, or the maximum when there are fewer than 20 samples.

``--trace 1`` runs the workload untraced, then traced for exactly the
same operations, and reports the per-layer metrics of ``layers.py``
from the traced run.  The last stdout line is the result JSON; the line
before it is the run's context (host, versions, parameters, sample
counts, check outcomes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracing  # noqa: E402

#: A second seed, never used while the benchmark was tuned, on which
#: later performance claims are checked.
HELD_OUT_SEED = 7919
#: Set-ups measured per end-to-end run (the reported value is the median).
SETUP_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s", "runs_per_s": "runs/s", "peak_rss_mb": "MB",
    "gen_s_p50": "s", "gen_s_tail": "s", "latency_s_p50": "s",
    "latency_s_tail": "s", "hit_latency_s_p50": "s",
    "requests_per_s": "req/s",
}


def tail(samples):
    """(value, percentile): the highest percentile with ≥10 samples above.

    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spawn(args, phase, work, extra=(), timeout=170.0):
    """Run one workload process; return its result dict (None for warm)."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / f"{phase}.json"
    argv = [
        sys.executable, str(HERE / "workload_main.py"),
        "--workload", args.workload, "--phase", phase,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work), "--cache", str(WORK / "cache"),
        "--out", str(out), *extra,
    ]
    if args.smoke:
        argv.append("--smoke")
    t0 = time.monotonic()
    # Own process group, so a timeout also stops the service and fleet
    # processes a workload started.
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited {proc.returncode}")
    return json.loads(out.read_text()) if phase != "warm" else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def e2e_metrics(result, setups):
    samples = result["samples"]
    wall = result["wall"]
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    gen_tail, gen_pct = tail(samples["gen_s"])
    lat_tail, lat_pct = tail(samples["latency_s"])
    values = {
        "setup_s": statistics.median(setups),
        "runs_per_s": result["runs"] / result["fresh_wall"],
        "peak_rss_mb": usage / 1024.0,
        "gen_s_p50": statistics.median(samples["gen_s"]),
        "gen_s_tail": gen_tail,
        "latency_s_p50": statistics.median(samples["latency_s"]),
        "latency_s_tail": lat_tail,
        "hit_latency_s_p50": statistics.median(samples["hit_latency_s"]),
        "requests_per_s": result["steps"] / wall,
    }
    detail = {
        "setup_samples": setups,
        "replay_share": result.get("replay_wall", 0.0) / wall,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "tail_percentiles": {"gen_s_tail": gen_pct,
                             "latency_s_tail": lat_pct},
    }
    return values, detail


def measure(args, work):
    spawn(args, "warm", work)
    if args.trace == 0:
        # Set-ups before and after the run, so that one slow spell of the
        # host does not hold all of them.
        def setup(i):
            return spawn(args, "setup", work / f"setup{i}")["setup_s"]

        setups = [setup(i) for i in range(SETUP_SAMPLES // 2)]
        result = spawn(args, "run", work / "run")
        setups.append(result["setup_s"])
        setups += [setup(i) for i in range(len(setups), SETUP_SAMPLES)]
        values, detail = e2e_metrics(result, setups)
        return [result], values, detail

    plain = spawn(args, "run", work / "plain")
    trace_dir = work / "spans"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = spawn(args, "run", work / "traced",
                    ["--ops", str(plain["ops"]),
                     "--trace-dir", str(trace_dir)])
    params = traced["parameters"]
    values = layers.analyse(
        tracing.load(trace_dir),
        {"t_start": traced["t_start"], "t_end": traced["t_end"],
         "traced_wall": traced["wall"], "untraced_wall": plain["wall"]},
        main_pid=traced["pid"],
        kernel_processes=params.get("workers") or params.get("fleet") or 1,
        driving_threads=params.get("connections", 1),
    )
    low = values["trace.coverage"] < layers.COVERAGE_FLOOR
    detail = {"ops": plain["ops"], "coverage_below_floor": low}
    if low:
        print(f"perfbench: trace.coverage {values['trace.coverage']:.3f} "
              f"is below {layers.COVERAGE_FLOOR}", file=sys.stderr)
    return [plain, traced], values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("falsify", "risk", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        results, values, detail = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = {}
    for result in results:
        for name, ok in result["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    correct = all(checks.values())
    context = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "src_digest": src_digest(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": results[0]["parameters"].get("numpy"),
        "parameters": results[0]["parameters"],
        "checks": checks, **detail,
        "outputs": [r.get("outputs") for r in results],
    }
    units = E2E_UNITS if args.trace == 0 else dict(layers.METRICS)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (
            {name: {"value": values[name], "unit": unit}
             for name, unit in units.items()} if correct else {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
