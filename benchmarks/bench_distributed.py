"""Benchmark: distributed campaign execution vs the serial path.

Runs the acceptance workload (50 scenarios × 100 runs — the paper's GA
evaluation shape) serially in-process, then through
``repro.distributed``: submit the campaign's chunks to a shared sqlite
work queue and drain it with a 2-process supervised worker fleet
(:class:`~repro.distributed.FleetSupervisor`, what ``repro fleet``
runs) writing through a shared result store.  Records both runs via
:func:`record_campaign` (so the timing lands in the shared store with
``cpu_count`` metadata — the single-core caveat stays
self-describing) plus a dedicated speedup record, and asserts the
collected result is bitwise identical to the serial run.

On a single-core container the distributed path can at best match
serial (and pays queue/store/process overhead on top); the record's
caveat says so explicitly.  Re-record on multi-core hardware.

Under ``--smoke`` the workload shrinks to CI size and nothing persists.
"""

import os
import tempfile
from pathlib import Path

from conftest import record_campaign, record_result

from repro.distributed import FleetSupervisor, submit
from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, SampledSource

SCENARIOS = 50
RUNS = 100
WORKERS = 2


def _campaign(table, smoke):
    return Campaign(
        SampledSource(
            StatisticalEncounterModel(), 6 if smoke else SCENARIOS
        ),
        table=table,
        runs_per_scenario=10 if smoke else RUNS,
    )


def test_bench_distributed_vs_serial(fast_table, smoke):
    serial = _campaign(fast_table, smoke).run(seed=2)
    record_campaign("campaign_distributed_serial", serial)

    scratch = Path(tempfile.mkdtemp(prefix="bench_distributed_"))
    queue_path = scratch / "queue.sqlite"
    store_path = scratch / "store.sqlite"

    import time

    start = time.perf_counter()
    run = submit(
        _campaign(fast_table, smoke), 2,
        queue=queue_path, store=store_path,
        # One chunk per eventual worker so both fleet members get work.
        chunk_size=max(1, len(serial) // WORKERS),
    )
    FleetSupervisor(
        queue_path, workers=WORKERS, lease_seconds=60, poll_interval=0.05
    ).run(timeout=600)
    final = run.wait(timeout=600, poll=0.1)
    distributed = run.collect()
    distributed_wall = time.perf_counter() - start
    assert final.complete

    record_campaign("campaign_distributed_2workers", distributed)

    identical = (
        serial.min_separations() == distributed.min_separations()
    ).all()
    cpu_count = os.cpu_count()
    caveat = (
        f"CAVEAT: measured on a {cpu_count}-CPU machine — with a "
        "single core a worker fleet can at best match serial and "
        "additionally pays queue/store/process overhead, so any "
        "speedup <= 1x here says nothing about the subsystem; "
        "re-record on multi-core hardware.\n"
        if (cpu_count or 1) <= 1
        else f"measured on {cpu_count} CPUs.\n"
    )
    record_result(
        "campaign_distributed_speedup",
        f"workload:          {len(serial)} scenarios x "
        f"{serial.runs_per_scenario} runs "
        f"(backend={serial.backend})\n"
        f"serial wall:       {serial.wall_time:.2f}s\n"
        f"distributed wall:  {distributed_wall:.2f}s "
        f"({WORKERS} supervised worker subprocesses, sqlite queue + "
        "store, submit->drain->collect)\n"
        f"speedup:           {serial.wall_time / distributed_wall:.2f}x\n"
        f"cpu count:         {cpu_count}\n"
        f"chunks:            {run.chunks_enqueued}\n"
        f"identical results: {identical}\n"
        + caveat,
    )
    assert identical

    # Re-submitting the completed campaign enqueues (and simulates)
    # nothing: the acceptance criterion's zero-resimulation half.
    resubmit = submit(
        _campaign(fast_table, smoke), 2,
        queue=queue_path, store=store_path,
    )
    assert resubmit.chunks_enqueued == 0
    assert resubmit.simulated == 0


def _fleet_campaign(table, smoke, scratch):
    return Campaign(
        SampledSource(
            StatisticalEncounterModel(), 6 if smoke else SCENARIOS
        ),
        table=table,
        runs_per_scenario=10 if smoke else RUNS,
        backend="distributed",
        backend_options={
            "queue": str(scratch / "backend-queue.sqlite"),
            "store": str(scratch / "backend-store.sqlite"),
            "poll_interval": 0.02,
        },
    )


def test_bench_distributed_backend(fast_table, smoke):
    """The fleet-native ``backend="distributed"`` path vs serial.

    No external worker is running, so the run exercises the automatic
    in-process fallback worker — the measured overhead over serial is
    the full submit → queue → drain → collect cycle (sqlite queue,
    lease bookkeeping, store round trip).  Bits must match serial
    exactly.
    """
    serial = _campaign(fast_table, smoke).run(seed=4)
    scratch = Path(tempfile.mkdtemp(prefix="bench_dist_backend_"))
    fleet = _fleet_campaign(fast_table, smoke, scratch).run(seed=4)
    record_campaign("campaign_distributed_backend", fleet)

    identical = (
        serial.min_separations() == fleet.min_separations()
    ).all()
    assert identical
    assert fleet.metadata["distributed_fallback"] is True
    overhead = fleet.wall_time - serial.wall_time
    record_result(
        "campaign_distributed_backend_overhead",
        f"workload:            {len(serial)} scenarios x "
        f"{serial.runs_per_scenario} runs\n"
        f"serial wall:         {serial.wall_time:.2f}s\n"
        f"backend=distributed: {fleet.wall_time:.2f}s "
        "(fallback in-process worker: submit -> queue -> drain -> "
        "collect)\n"
        f"overhead:            {overhead:+.2f}s\n"
        f"identical results:   {identical}\n"
        "The fallback path measures the fleet plumbing's full cost on "
        "one core; with external `repro worker` processes on other "
        "cores/hosts the same call fans out instead.\n",
    )

    # A re-run resolves to the same campaign and simulates nothing.
    rerun = _fleet_campaign(fast_table, smoke, scratch).run(seed=4)
    assert rerun.metadata["simulated"] == 0
    assert rerun.metadata["loaded"] == len(serial)
