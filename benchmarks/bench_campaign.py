"""Benchmark: the campaign API's backend fidelity/speed trade-off.

Runs the same reference campaign — the paper's two canonical geometries
plus sampled encounters from the statistical model — through the three
in-process CPU backends (``agent``, ``vectorized``,
``vectorized-batch``) and through the process-parallel path, recording
each run's :class:`~repro.experiments.ResultSet` (aggregates plus
wall-clock timing) under ``benchmarks/results/``.

Two dedicated speedup records cover the acceptance-critical numbers:

- ``campaign_megabatch_speedup``: the megabatch backend against the
  per-scenario vectorized backend on a 50-scenario × 100-run campaign
  (the paper's GA evaluation shape).  Both call the same kernel, so
  this record is not gated; the megabatch gate lives in
  ``bench_batch_kernel.py``, against the frozen reference;
- ``campaign_parallel_speedup``: serial versus a fixed 4-worker
  process pool on the same workload, with the pool's per-worker
  backend built once from a picklable spec.  The record notes the
  machine's CPU count — on a single-core box the parallel path can at
  best match serial, whatever the executor does.

Under ``--smoke`` every workload shrinks to CI size and nothing is
persisted (the wiring is exercised, recorded results are untouched).
"""

import os

from conftest import record_campaign, record_result, single_cpu_note

from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, ExplicitSource, SampledSource

RUNS_PER_SCENARIO = 30
#: The acceptance workload: the paper evaluates every GA individual
#: with 100 stochastic runs; 50 scenarios is one generation's chunk.
MEGABATCH_SCENARIOS = 50
MEGABATCH_RUNS = 100


def _reference_campaign(table, backend):
    return Campaign(
        ExplicitSource(["head_on", "tail_approach"]),
        backend=backend,
        table=table,
        runs_per_scenario=RUNS_PER_SCENARIO,
    )


def _megabatch_campaign(table, backend, smoke):
    return Campaign(
        SampledSource(
            StatisticalEncounterModel(),
            6 if smoke else MEGABATCH_SCENARIOS,
        ),
        backend=backend,
        table=table,
        runs_per_scenario=10 if smoke else MEGABATCH_RUNS,
    )


def test_bench_campaign_vectorized(benchmark, fast_table):
    campaign = _reference_campaign(fast_table, "vectorized")
    results = benchmark.pedantic(
        lambda: campaign.run(seed=0), rounds=1, iterations=1
    )
    record_campaign("campaign_vectorized", results)


def test_bench_campaign_vectorized_batch(benchmark, fast_table):
    campaign = _reference_campaign(fast_table, "vectorized-batch")
    results = benchmark.pedantic(
        lambda: campaign.run(seed=0), rounds=1, iterations=1
    )
    record_campaign("campaign_vectorized_batch", results)
    # The megabatch path replays the vectorized backend's noise
    # streams: identical aggregates, only the wall clock moves.
    reference = _reference_campaign(fast_table, "vectorized").run(seed=0)
    assert (
        results.min_separations() == reference.min_separations()
    ).all()


def test_bench_campaign_agent(benchmark, fast_table):
    campaign = _reference_campaign(fast_table, "agent")
    results = benchmark.pedantic(
        lambda: campaign.run(seed=0), rounds=1, iterations=1
    )
    record_campaign("campaign_agent", results)
    assert results.total_runs == 2 * RUNS_PER_SCENARIO


def test_bench_campaign_megabatch_speedup(fast_table, smoke):
    vectorized = _megabatch_campaign(fast_table, "vectorized", smoke)
    megabatch = _megabatch_campaign(fast_table, "vectorized-batch", smoke)
    vec_results = vectorized.run(seed=3)
    mega_results = megabatch.run(seed=3)
    record_campaign("campaign_megabatch", mega_results)
    speedup = vec_results.wall_time / mega_results.wall_time
    identical = (
        vec_results.min_separations() == mega_results.min_separations()
    ).all()
    record_result(
        "campaign_megabatch_speedup",
        f"workload:          {len(vec_results)} scenarios x "
        f"{vec_results.runs_per_scenario} runs\n"
        f"vectorized wall:   {vec_results.wall_time:.2f}s\n"
        f"megabatch wall:    {mega_results.wall_time:.2f}s\n"
        f"speedup:           {speedup:.2f}x\n"
        f"identical results: {identical}\n"
        + single_cpu_note(),
    )
    assert identical


def test_bench_campaign_parallel_speedup(fast_table, smoke):
    campaign = _megabatch_campaign(fast_table, "vectorized-batch", smoke)
    workers = 4
    # Chunks sized so every worker in the fixed pool gets work.
    chunk_size = max(1, len(campaign.source) // workers)
    serial = campaign.run(seed=1, workers=1, chunk_size=chunk_size)
    parallel = campaign.run(seed=1, workers=workers, chunk_size=chunk_size)
    record_campaign("campaign_parallel", parallel)
    cpu_count = os.cpu_count()
    # The shared caveat plus the executor-specific consequence: on one
    # core the process pool can at best match serial, so a <= 1x number
    # here says nothing about the executor itself.
    caveat = single_cpu_note()
    record_result(
        "campaign_parallel_speedup",
        f"workload:       {len(serial)} scenarios x "
        f"{serial.runs_per_scenario} runs "
        f"(backend={parallel.backend})\n"
        f"serial wall:    {serial.wall_time:.2f}s\n"
        f"parallel wall:  {parallel.wall_time:.2f}s "
        f"({workers} workers, per-worker backend via BackendSpec "
        f"initializer)\n"
        f"speedup:        {serial.wall_time / parallel.wall_time:.2f}x\n"
        f"cpu count:      {cpu_count}\n"
        f"identical results: "
        f"{(serial.min_separations() == parallel.min_separations()).all()}\n"
        + caveat,
    )
    assert (serial.min_separations() == parallel.min_separations()).all()
