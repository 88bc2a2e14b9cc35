"""Benchmark: the noise-tape megabatch kernel vs its frozen ancestor.

The megabatch kernel pre-draws every scenario's disturbance and sensor
noise into tapes, keeps the active lanes a contiguous sorted prefix,
and shares one joint Q lookup between both equipped aircraft.  The
pre-refactor inline-draw implementation is frozen verbatim in
:mod:`repro.sim.batch_reference` as the golden baseline, so this bench
measures exactly the refactor's win on the acceptance workload (the
paper's GA-evaluation shape: 50 scenarios × 100 stochastic runs) —
and asserts the results stay **bitwise identical** while doing so.

Two records land under ``benchmarks/results/``:

- ``kernel_tape_speedup``: interleaved best-of-N wall clocks for the
  frozen reference (one chunk call, and one call per scenario) and the
  tape kernel, with both speedup ratios (each the median of the
  per-repeat ratios), their floors and the single-CPU caveat.  The
  per-scenario ratio is the megabatch gate: it
  measures what batching scenarios buys against a baseline that does
  not move with the kernel (``run()`` is a one-scenario kernel call,
  so it moves with the kernel and cannot be that baseline);
- ``kernel_phase_profile``: the per-phase breakdown (tape draw /
  decision / physics / observe) from a profiled
  ``Campaign.run(profile=True)``, persisted through
  :func:`record_campaign` so the store's campaign metadata carries it.

Under ``--smoke`` the workloads shrink to CI size, the speedup floor is
not asserted (one tiny noisy run proves wiring, not performance), and
nothing is persisted.
"""

import time

from conftest import record_campaign, record_result, single_cpu_note

import numpy as np

from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, SampledSource
from repro.sim.batch import BatchEncounterSimulator
from repro.sim.batch_reference import reference_run_many

#: The acceptance workload (one GA generation's evaluation chunk).
KERNEL_SCENARIOS = 50
KERNEL_RUNS = 100

#: Interleaved timing repetitions.  Each repeat times the three paths
#: back to back and contributes one ratio per gate; the gates take the
#: median ratio.  A ratio of two best-ofs rests on two single lucky
#: runs (the per-scenario ratio read 5.38x and 8.14x on one tree), while
#: a per-repeat ratio compares runs seconds apart, so slow drift (other
#: tenants) cancels, and the median drops the odd disturbed repeat.
KERNEL_REPS = 11

#: Wall-clock floor the tape kernel must clear over the frozen
#: reference on the full workload.
MIN_SPEEDUP = 1.3

#: Wall-clock floor the tape kernel must clear over the frozen
#: reference called once per scenario.  It replaces the old ">= 3x
#: over the per-scenario ``run()`` loop" campaign gate: the reference
#: loop measured 1.27-1.50x slower than that old loop (2 CPUs, best of
#: 7), so 3x there is 3.8-4.5x here, and 5.0 is at least as strict.
MIN_PER_SCENARIO_SPEEDUP = 5.0


def _workload(smoke):
    model = StatisticalEncounterModel()
    # The seed flows in as plain data — util/rng's as_generator builds
    # the Generator — which is the R1 seeded-rng idiom benches share
    # with src/ (bitwise identical to passing default_rng(7) directly).
    scenarios = model.sample(6 if smoke else KERNEL_SCENARIOS, seed=7)
    runs = 10 if smoke else KERNEL_RUNS
    seeds = list(range(100, 100 + len(scenarios)))
    return scenarios, runs, seeds


def test_bench_kernel_tape_speedup(fast_table, smoke):
    scenarios, runs, seeds = _workload(smoke)
    sim = BatchEncounterSimulator(fast_table, equipage="both")

    # Warm both paths (table caches, first-touch allocations).
    sim.run_many(scenarios[:3], 5, seeds[:3])
    reference_run_many(sim, scenarios[:3], 5, seeds[:3])

    reps = 2 if smoke else KERNEL_REPS
    ref_times, per_scenario_times, tape_times = [], [], []
    for _ in range(reps):
        start = time.perf_counter()
        ref_results = reference_run_many(sim, scenarios, runs, seeds)
        ref_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        per_scenario_results = [
            reference_run_many(sim, [params], runs, [seed])[0]
            for params, seed in zip(scenarios, seeds)
        ]
        per_scenario_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        tape_results = sim.run_many(scenarios, runs, seeds)
        tape_times.append(time.perf_counter() - start)

    identical = all(
        np.array_equal(getattr(a, field), getattr(b, field))
        for baseline in (ref_results, per_scenario_results)
        for a, b in zip(tape_results, baseline)
        for field in (
            "min_separation",
            "min_horizontal",
            "nmac",
            "own_alerted",
            "intruder_alerted",
        )
    )
    ref_best, tape_best = min(ref_times), min(tape_times)
    per_scenario_best = min(per_scenario_times)
    tape = np.array(tape_times)
    speedup = float(np.median(np.array(ref_times) / tape))
    per_scenario_speedup = float(
        np.median(np.array(per_scenario_times) / tape)
    )
    record_result(
        "kernel_tape_speedup",
        f"workload:            {len(scenarios)} scenarios x {runs} runs\n"
        f"inline-draw (frozen reference) best of {reps}: {ref_best:.3f}s\n"
        f"frozen reference per scenario  best of {reps}: "
        f"{per_scenario_best:.3f}s\n"
        f"noise-tape kernel              best of {reps}: {tape_best:.3f}s\n"
        f"speedup (median of {reps} per-repeat ratios): "
        f"{speedup:.2f}x (floor {MIN_SPEEDUP}x)\n"
        f"per-scenario speedup (median of {reps} per-repeat ratios): "
        f"{per_scenario_speedup:.2f}x (floor {MIN_PER_SCENARIO_SPEEDUP}x)\n"
        f"bitwise identical:   {identical}\n"
        + single_cpu_note(),
    )
    assert identical
    if not smoke:
        assert speedup >= MIN_SPEEDUP
        assert per_scenario_speedup >= MIN_PER_SCENARIO_SPEEDUP


def test_bench_kernel_phase_profile(fast_table, smoke):
    scenarios, runs, _ = _workload(smoke)
    campaign = Campaign(
        SampledSource(StatisticalEncounterModel(), len(scenarios)),
        backend="vectorized-batch",
        table=fast_table,
        runs_per_scenario=runs,
    )
    results = campaign.run(seed=7, profile=True)
    profile = results.metadata["kernel_profile"]
    record_campaign("kernel_phase_profile", results)
    breakdown = "\n".join(
        f"{phase:<12} {profile[phase]:7.3f}s "
        f"({100.0 * profile[phase] / profile['total']:5.1f}%)"
        for phase in ("tape_draw", "decision", "physics", "observe")
    )
    record_result(
        "kernel_phase_profile",
        f"workload:  {len(scenarios)} scenarios x {runs} runs\n"
        f"{breakdown}\n"
        f"total      {profile['total']:7.3f}s over {profile['calls']} "
        f"kernel call(s)\n"
        + single_cpu_note(),
    )
    assert profile["total"] > 0.0
