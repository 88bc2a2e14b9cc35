"""`CampaignService`: the domain logic behind every REST resource.

The service is the composition point for everything PRs 1–5 built: it
parses plain-JSON campaign specs (:meth:`Campaign.from_spec`), registers
them in the provenance-keyed :class:`~repro.store.ResultStore`, and
executes them either through the shared
:class:`~repro.distributed.WorkQueue` (fleet mode, with the same
fallback-worker policy the ``"distributed"`` backend uses) or on a
background thread against the thread-safe store (inline mode, when the
service runs without a queue).

Identity is the load-bearing property: a submission plans with the
campaign's own planner — per-scenario seeds spawned from the root seed
before anything executes — so the service-run campaign lands in the
store under the **same** content-addressed id, with the same bits, as
``Campaign.run`` given the same spec and seed.  Re-submitting a
complete campaign simulates nothing.

Error model (the WSGI layer maps these to HTTP statuses):
``ValueError`` — malformed spec/filter/parameters → 400;
``KeyError`` — unknown campaign id → 404.
"""

from __future__ import annotations

import math
import os
import sqlite3
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro import faults, telemetry
from repro.experiments.campaign import Campaign, CampaignPlan
from repro.sim.batch import decision_count
from repro.store import ResultStore

#: Bounded retry for queued submissions racing a busy fleet: attempts
#: and base backoff for transient sqlite lock errors.  A submission
#: that still cannot enqueue after these propagates (the WSGI layer
#: maps it to a 500) — at that point the queue is genuinely wedged,
#: not merely under churn.
SUBMIT_RETRIES = 4
SUBMIT_BACKOFF = 0.05

#: Lane-decisions (lanes × decisions) one chunk of a submission may
#: claim.  Chunking never splits a scenario's runs, and the megabatch
#: noise tape holds about 42 doubles per lane-decision at the default
#: 5 physics substeps, so this keeps one chunk's tape under ~1 GiB
#: (3e6 × 42 × 8 B ≈ 0.94 GiB).
MAX_CHUNK_LANE_DECISIONS = 3_000_000


def _service_config(preset: str):
    """Resolve a table preset name to its :class:`AcasConfig`."""
    from repro.acasx import paper_config, test_config

    if preset == "test":
        return test_config()
    if preset == "paper":
        return paper_config()
    raise ValueError(
        f"unknown table preset {preset!r} (use 'test' or 'paper')"
    )


def _check_admission(plan: CampaignPlan) -> None:
    """Reject a plan any chunk of which would exceed the memory budget.

    Raises ``ValueError`` (a 400 over HTTP) naming the first chunk over
    :data:`MAX_CHUNK_LANE_DECISIONS`.  Called before anything is
    registered or enqueued, so a rejected request leaves no trace.
    """
    campaign = plan.campaign
    for number, chunk in enumerate(plan.chunks):
        lanes = len(chunk) * campaign.runs_per_scenario
        decisions = max(
            decision_count(params, campaign.backend.config)
            for _, params, _ in chunk
        )
        if lanes * decisions > MAX_CHUNK_LANE_DECISIONS:
            raise ValueError(
                f"chunk {number} (scenarios {chunk[0][0]}-{chunk[-1][0]}) "
                f"needs {lanes} lanes x {decisions} decisions = "
                f"{lanes * decisions:,} lane-decisions, over the "
                f"per-chunk budget of {MAX_CHUNK_LANE_DECISIONS:,} "
                '(~1 GiB of noise tape); submit a smaller "chunk_size" '
                'or fewer "runs", or shorten "time_to_cpa"'
            )


def _timeout_seconds(value) -> float:
    """The ``"timeout"`` envelope key as finite positive seconds.

    A ``NaN`` or infinite timeout would make :meth:`CampaignService.wait`
    block forever, holding a handler thread, so it is a ``ValueError``
    (a 400 over HTTP) before anything is registered.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            seconds = float(value)
        except OverflowError:  # an int too large for a double
            seconds = math.inf
        if 0.0 < seconds < math.inf:
            return seconds
    raise ValueError(
        f'"timeout" must be a finite positive number of seconds, '
        f"got {value!r}"
    )


@dataclass
class Submission:
    """One submitted campaign's execution state, service-side.

    Supplementary to the store (the store is the durable truth about
    records; this tracks the in-process runner so failures surface in
    ``GET /campaigns/{id}`` instead of silently stalling).
    """

    campaign_id: str
    mode: str  # "inline" | "queued" | "fallback" | "complete"
    state: str = "running"  # "running" | "done" | "failed"
    error: Optional[str] = None
    label: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "mode": self.mode,
            "state": self.state,
            "error": self.error,
            "label": self.label,
            "submitted_at": self.submitted_at,
        }


class CampaignService:
    """Campaign submission and introspection over one store (+ queue).

    Parameters
    ----------
    store:
        The shared :class:`ResultStore` (or its path).  One handle is
        shared by every request thread and the watchlist thread — the
        store serializes access internally.
    queue:
        Optional shared :class:`~repro.distributed.WorkQueue` path.
        With a queue, submissions enqueue chunks for the worker fleet
        (spawning a fallback worker thread when no live worker could
        serve the campaign); without one, they run on a background
        thread in-process.
    preset:
        Default logic-table preset for equipped submissions
        (overridable per request via the ``"preset"`` envelope key).
    tables:
        Pre-solved tables keyed by preset name.  Lets tests and
        embedders inject tables (including deliberately degraded ones)
        without touching the solver cache; missing presets fall back
        to :func:`repro.acasx.cache.build_or_load`.
    """

    #: Envelope keys the service consumes before handing the body to
    #: :meth:`Campaign.from_spec` (which rejects everything unknown).
    ENVELOPE_KEYS = frozenset(
        {"seed", "chunk_size", "label", "wait", "timeout", "preset"}
    )

    def __init__(
        self,
        store: Union[str, Path, ResultStore] = ":memory:",
        queue: Union[str, Path, None] = None,
        preset: str = "test",
        sim_config=None,
        tables: Optional[Dict[str, object]] = None,
        verbose: bool = False,
    ):
        self._owns_store = not isinstance(store, ResultStore)
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.queue_path = None if queue is None else os.path.abspath(str(queue))
        self.preset = preset
        self.sim_config = sim_config
        self.verbose = verbose
        self._tables: Dict[str, object] = dict(tables or {})
        self._lock = threading.RLock()
        self._submissions: Dict[str, Submission] = {}
        self._threads: list = []
        # Uptime is a duration: measure it on the monotonic clock (the
        # wall stamp is only for display in health bodies).
        # repro-lint: ok[R2] started_at is the display timestamp;
        # uptime math uses _started_mono.
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self._m_submissions = telemetry.REGISTRY.counter(
            "repro_service_submissions_total",
            "Campaign submissions accepted, by execution mode.",
        )
        # The registry counter is process-cumulative (Prometheus
        # semantics); health() reports *this* instance's count.
        self._submission_count = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, join_timeout: float = 0.5) -> None:
        """Join finished runner threads and release an owned store."""
        for thread in self._threads:
            thread.join(timeout=join_timeout)
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def table_for(self, preset: str):
        """The logic table for *preset*, solved/loaded once and cached."""
        with self._lock:
            if preset not in self._tables:
                from repro.acasx.cache import build_or_load

                self._tables[preset] = build_or_load(
                    _service_config(preset), verbose=self.verbose
                )
            return self._tables[preset]

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, payload) -> dict:
        """Parse, register, and start one campaign; return a receipt.

        The receipt carries the content-addressed ``campaign_id`` (the
        handle for every other endpoint), counts of already-stored vs
        to-simulate scenarios, and the execution ``mode``.  With
        ``"wait": true`` in the payload the call blocks until the
        campaign completes (bounded by the ``"timeout"`` key) and the
        receipt gains a terminal ``"progress"`` snapshot.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"campaign submission must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f'"seed" must be a non-negative integer, got {seed!r}')
        chunk_size = payload.get("chunk_size")
        if chunk_size is not None and (
            not isinstance(chunk_size, int)
            or isinstance(chunk_size, bool)
            or chunk_size < 1
        ):
            raise ValueError(
                f'"chunk_size" must be a positive integer, got {chunk_size!r}'
            )
        label = payload.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f'"label" must be a string, got {label!r}')
        timeout = _timeout_seconds(payload.get("timeout", 60.0))
        if payload.get("backend") == "distributed":
            raise ValueError(
                'backend "distributed" is not accepted over the wire: '
                "the service owns dispatch — submit to a service started "
                "with --queue instead"
            )

        equipage = payload.get("equipage", "both")
        preset = payload.get("preset", self.preset)
        if not isinstance(preset, str):
            raise ValueError(f'"preset" must be a string, got {preset!r}')
        table = None if equipage == "none" else self.table_for(preset)
        campaign = Campaign.from_spec(
            payload,
            table=table,
            sim_config=self.sim_config,
            ignore=self.ENVELOPE_KEYS,
        )
        plan = campaign.plan(seed, chunk_size)
        _check_admission(plan)

        with telemetry.span("service.submit") as submit_span, self._lock:
            if self.queue_path is not None:
                receipt = self._submit_queued(campaign, seed, chunk_size, label)
            else:
                receipt = self._submit_inline(plan, seed, chunk_size, label)
            submit_span.set(
                campaign_id=receipt["campaign_id"], mode=receipt["mode"]
            )
        self._m_submissions.inc(mode=receipt["mode"])
        self._submission_count += 1
        if payload.get("wait"):
            receipt["progress"] = self.wait(
                receipt["campaign_id"], timeout=timeout
            )
        return receipt

    def _submit_queued(self, campaign, seed, chunk_size, label) -> dict:
        """Enqueue chunks for the fleet; fall back to a local drainer.

        Enqueueing writes into the shared queue file while the whole
        fleet hammers it, so a transient ``database is locked`` is
        expected weather, not an error worth a 500: retry with backoff
        a few times before giving up.  Idempotent by construction —
        the job is content-addressed, so a retry after a partially
        observed failure cannot double-enqueue.
        """
        from repro.distributed.coordinator import submit as enqueue
        from repro.distributed.queue import WorkQueue

        for attempt in range(SUBMIT_RETRIES):
            try:
                faults.maybe_fail(
                    "service.submit",
                    lambda event: sqlite3.OperationalError(
                        "database is locked (injected submit fault)"
                    ),
                )
                run = enqueue(
                    campaign,
                    seed,
                    queue=self.queue_path,
                    store=self.store.path,
                    chunk_size=chunk_size,
                    metadata={"label": label} if label else None,
                )
                break
            except sqlite3.OperationalError:
                if attempt == SUBMIT_RETRIES - 1:
                    raise
                time.sleep(SUBMIT_BACKOFF * (2 ** attempt))
        campaign_id = run.campaign_id
        if label:
            self.store.merge_metadata(campaign_id, {"label": label})
        if run.simulated == 0:
            mode = "complete"
        else:
            with WorkQueue(self.queue_path) as queue:
                fleet = queue.live_workers(campaign_id)
            if fleet:
                mode = "queued"
            else:
                mode = "fallback"
                self._spawn(
                    f"repro-service-fallback-{campaign_id[:8]}",
                    lambda: self._drain_fallback(campaign_id),
                )
        self._register(campaign_id, mode, label)
        return {
            "campaign_id": campaign_id,
            "num_scenarios": run.num_scenarios,
            "already_stored": run.already_stored,
            "simulated": run.simulated,
            "chunks_enqueued": run.chunks_enqueued,
            "mode": mode,
            "label": label,
        }

    def _submit_inline(self, plan, seed, chunk_size, label) -> dict:
        """Register the campaign and run its missing tail on a thread.

        The campaign id is *plan*'s, so it (and every bit of every
        record) matches ``Campaign.run`` with the same spec and seed.
        """
        campaign_id, done, _ = plan.open(
            self.store, metadata={"label": label} if label else None
        )
        if label:
            self.store.merge_metadata(campaign_id, {"label": label})
        already = len(done)
        num_scenarios = len(plan.scenarios)
        existing = self._submissions.get(campaign_id)
        if already >= num_scenarios:
            mode = "complete"
        elif existing is not None and existing.state == "running":
            # Same campaign already executing: don't double-run it —
            # the store would dedup the records, but the wasted
            # simulation would not be free.
            mode = existing.mode
        else:
            mode = "inline"
            self._spawn(
                f"repro-service-run-{campaign_id[:8]}",
                lambda: self._run_inline(
                    plan.campaign, seed, chunk_size, campaign_id
                ),
            )
        self._register(campaign_id, mode, label)
        return {
            "campaign_id": campaign_id,
            "num_scenarios": num_scenarios,
            "already_stored": already,
            "simulated": num_scenarios - already,
            "chunks_enqueued": 0,
            "mode": mode,
            "label": label,
        }

    def _register(self, campaign_id: str, mode: str, label) -> None:
        existing = self._submissions.get(campaign_id)
        if existing is not None and existing.state == "running":
            return
        self._submissions[campaign_id] = Submission(
            campaign_id=campaign_id,
            mode=mode,
            state="done" if mode == "complete" else "running",
            label=label,
        )

    def _spawn(self, name: str, target) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def _run_inline(self, campaign, seed, chunk_size, campaign_id) -> None:
        try:
            campaign.run(seed=seed, chunk_size=chunk_size, store=self.store)
        except Exception as error:  # surfaced via progress(), not lost
            self._mark(campaign_id, "failed",
                       f"{type(error).__name__}: {error}")
            traceback.print_exc(file=sys.stderr)
        else:
            self._mark(campaign_id, "done")

    def _drain_fallback(self, campaign_id: str) -> None:
        """Fallback drainer: a worker pinned to this campaign's chunks.

        Constructed inside the thread — the worker owns its own queue
        and store connections, so nothing crosses threads.
        """
        from repro.distributed.worker import Worker

        try:
            Worker(
                self.queue_path, campaign_id=campaign_id, poll_interval=0.05
            ).run()
        except Exception as error:
            self._mark(campaign_id, "failed",
                       f"{type(error).__name__}: {error}")
            traceback.print_exc(file=sys.stderr)
        else:
            info = self.store.get_campaign(campaign_id)
            self._mark(campaign_id, "done" if info.complete else "running")

    def _mark(self, campaign_id: str, state: str,
              error: Optional[str] = None) -> None:
        with self._lock:
            submission = self._submissions.get(campaign_id)
            if submission is not None:
                submission.state = state
                if error:
                    submission.error = error

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def list_campaigns(
        self,
        where: Optional[str] = None,
        params=(),
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> list:
        """Stored campaigns (newest first), as JSON-ready dicts."""
        return [
            info.to_dict()
            for info in self.store.campaigns(
                where=where, params=params, limit=limit, offset=offset
            )
        ]

    def progress(self, campaign_id: str) -> dict:
        """One campaign's live completion state.

        Merges the store's record counts, the queue's chunk counts
        (when the service runs one), and the in-process runner state —
        the whole ``GET /campaigns/{id}`` body.
        """
        campaign_id = self.store.resolve(campaign_id)
        info = self.store.get_campaign(campaign_id)
        out = info.to_dict()
        out["complete"] = info.complete
        submission = self._submissions.get(campaign_id)
        if submission is not None:
            if info.complete and submission.state == "running":
                # An external fleet may have finished it for us.
                submission.state = "done"
            out["mode"] = submission.mode
            out["state"] = submission.state
            out["error"] = submission.error
        else:
            out["mode"] = None
            out["state"] = "done" if info.complete else "external"
            out["error"] = None
        if self.queue_path is not None:
            from repro.distributed.queue import WorkQueue

            with WorkQueue(self.queue_path) as queue:
                out["chunks"] = queue.chunk_counts(campaign_id).to_dict()
        return out

    def records(
        self,
        campaign_id: str,
        where: Optional[str] = None,
        params=(),
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> list:
        """Scalar record rows for one campaign (no blob decode)."""
        campaign_id = self.store.resolve(campaign_id)
        return self.store.record_rows(
            campaign_id, where=where, params=params, limit=limit,
            offset=offset,
        )

    def diff(self, campaign_a: str, campaign_b: str) -> dict:
        """Aggregate comparison of two stored campaigns."""
        return self.store.diff(campaign_a, campaign_b).to_dict()

    def workers(self) -> dict:
        """Fleet liveness, aged against the queue's own clock."""
        if self.queue_path is None:
            return {"queue": None, "workers": [], "live": []}
        from repro.distributed.queue import DEFAULT_WORKER_TTL, WorkQueue

        with WorkQueue(self.queue_path) as queue:
            now = queue.now()
            rows = []
            for worker in queue.workers():
                row = worker.to_dict(now=now)
                row["live"] = worker.heartbeat >= now - DEFAULT_WORKER_TTL
                rows.append(row)
        return {
            "queue": self.queue_path,
            "now": now,
            "workers": rows,
            "live": [row["worker_id"] for row in rows if row["live"]],
        }

    def uptime(self) -> float:
        """Seconds this service has been up (monotonic clock)."""
        return time.monotonic() - self._started_mono

    def health(self) -> dict:
        """Liveness probe body: store/queue identity plus row counts.

        Carries a compact metrics snapshot — uptime, live worker count,
        submission totals — so a bare ``GET /healthz`` answers "is it
        up *and* is it doing anything" without a full ``/metrics``
        scrape (the WSGI layer adds request totals and the watchlist's
        scan health on top).
        """
        with self._lock:
            states: Dict[str, int] = {}
            for submission in self._submissions.values():
                states[submission.state] = states.get(submission.state, 0) + 1
        return {
            "status": "ok",
            "store": self.store.path,
            "queue": self.queue_path,
            "totals": self.store.totals(),
            "submissions": states,
            "uptime_seconds": self.uptime(),
            "started_at": self.started_at,
            "submissions_total": self._submission_count,
            "live_workers": (
                len(self.workers()["live"])
                if self.queue_path is not None
                else None
            ),
        }

    def wait(
        self, campaign_id: str, timeout: float = 60.0, poll: float = 0.05
    ) -> dict:
        """Block until *campaign_id* completes; return final progress.

        Raises ``TimeoutError`` after *timeout* seconds and
        ``RuntimeError`` if the in-process runner failed (carrying the
        runner's one-line diagnosis).
        """
        # Timeout is a duration: a wall-clock (time.time) deadline here
        # would stretch or shrink under NTP steps — use the monotonic
        # clock, matching the queue/worker deadline discipline.
        deadline = time.monotonic() + timeout
        while True:
            progress = self.progress(campaign_id)
            if progress["complete"]:
                return progress
            if progress["state"] == "failed":
                raise RuntimeError(
                    f"campaign {progress['campaign_id'][:12]} failed: "
                    f"{progress['error']}"
                )
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {progress['campaign_id'][:12]} incomplete "
                    f"after {timeout}s "
                    f"({progress['completed']}/{progress['num_scenarios']} "
                    "records)"
                )
            time.sleep(poll)
