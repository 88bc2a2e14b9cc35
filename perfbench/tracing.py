"""Span recording for the traced benchmark run.

The benchmark attributes time to the ``src/repro`` modules without
changing them: :func:`instrument` wraps the public functions each layer
exposes (class attributes and module attributes, so every call site sees
the wrapper) and records one span per call.  A span is
``[name, start, end, span_id, parent_id, ctx, pid, tid, attrs]`` with
``start``/``end`` on the host's monotonic clock, which is shared by
every process on the host, so spans from the service, the workers and
the client line up.  ``ctx`` is the request or generation id the span
belongs to (see :func:`set_ctx`).

Spans stay in memory and are written to ``<trace_dir>/spans-<pid>.json``
when the process ends (:func:`dump`).  Processes forked from an
instrumented one (the campaign process pool) inherit the wrappers, start
an empty buffer and dump it from a ``multiprocessing`` finalizer.

The program's own ``repro.telemetry`` stays disarmed: the only thing
installed on it is a counter of calls to its ``span`` hook.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

_lock = threading.Lock()
_local = threading.local()
_state = {
    "pid": None,
    "spans": [],
    "next_id": 1,
    "hook_calls": 0,
    "trace_dir": None,
    "installed": False,
}


def _reset_if_forked() -> None:
    """Give a forked child its own empty buffer and an exit dump."""
    pid = os.getpid()
    if _state["pid"] == pid:
        return
    first = _state["pid"] is None
    _state.update(pid=pid, spans=[], next_id=1, hook_calls=0)
    if not first and _state["trace_dir"] is not None:
        from multiprocessing import util

        util.Finalize(None, dump, exitpriority=100)


def set_ctx(ctx: Optional[str]) -> None:
    """Tag spans opened from now on, in this thread, with *ctx*."""
    _local.ctx = ctx


def _stack() -> List[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def open_span(name: str, ctx: Optional[str] = None) -> list:
    """Start a span (child of this thread's innermost open span)."""
    _reset_if_forked()
    with _lock:
        span_id = _state["next_id"]
        _state["next_id"] += 1
    stack = _stack()
    span = [
        name, time.monotonic(), None, span_id,
        stack[-1] if stack else None,
        ctx if ctx is not None else getattr(_local, "ctx", None),
        _state["pid"], threading.get_ident(), {},
    ]
    stack.append(span_id)
    return span


def close_span(span: list) -> None:
    span[2] = time.monotonic()
    stack = _stack()
    if stack and stack[-1] == span[3]:
        stack.pop()
    _state["spans"].append(span)


def record(name: str, start: float, end: float, ctx=None, **attrs) -> None:
    """Record an already-measured interval as a top-level span."""
    span = open_span(name, ctx)
    close_span(span)
    span[1], span[2] = start, end
    span[8].update(attrs)


def dump() -> Optional[Path]:
    """Write this process's spans (and hook count) to the trace dir."""
    directory = _state["trace_dir"]
    if directory is None or _state["pid"] != os.getpid():
        return None
    path = Path(directory) / f"spans-{os.getpid()}.json"
    payload = {
        "pid": os.getpid(),
        "hook_calls": _state["hook_calls"],
        "spans": list(_state["spans"]),
    }
    path.write_text(json.dumps(payload))
    return path


def load(directory) -> Dict[str, object]:
    """All spans and the summed hook count written under *directory*."""
    spans: List[list] = []
    hook_calls = 0
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans.extend(payload["spans"])
        hook_calls += payload["hook_calls"]
    return {"spans": spans, "hook_calls": hook_calls}


def _wrap(func: Callable, name: str, attrs=None, prepare=None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if prepare is not None:
            args, kwargs = prepare(args, kwargs)
        span = open_span(name)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            close_span(span)
            if attrs is not None:
                span[8].update(attrs(args, kwargs, result))

    return wrapper


def patch(owner, attr: str, name: str, attrs=None, prepare=None) -> None:
    """Replace ``owner.attr`` (function, method or classmethod) by a
    span-recording wrapper."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(
            _wrap(raw.__func__, name, attrs, prepare)))
    else:
        setattr(owner, attr, _wrap(raw, name, attrs, prepare))


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


# ----------------------------------------------------------------------
# Per-call attributes (counts measured where the work happens)
# ----------------------------------------------------------------------
def _q_rows(args, kwargs, result):
    return {"rows": int(len(_arg(args, kwargs, 1, "tau")))}


def _wrap_run_many(cls) -> None:
    """Time ``run_many`` with a fresh KernelProfile passed through its
    public ``profile=``; a caller's own profile still accumulates."""
    from repro.sim.batch import KERNEL_PHASES, KernelProfile

    func = cls.__dict__["run_many"]

    @functools.wraps(func)
    def run_many(self, params_list, num_runs, *args, **kwargs):
        params_list = list(params_list)
        outer = kwargs.get("profile")
        profile = kwargs["profile"] = KernelProfile()
        span = open_span("sim.kernel")
        try:
            return func(self, params_list, num_runs, *args, **kwargs)
        finally:
            close_span(span)
            config = self.config
            decisions = sum(
                max(1, int(round((p.time_to_cpa + config.extra_duration)
                                 / config.decision_dt)))
                for p in params_list
            )
            span[8].update(
                lanes=len(params_list) * num_runs,
                lane_decisions=decisions * num_runs,
                **{phase: getattr(profile, phase) for phase in KERNEL_PHASES},
            )
            if outer is not None:
                for phase in KERNEL_PHASES:
                    setattr(outer, phase,
                            getattr(outer, phase) + getattr(profile, phase))
                for count in ("calls", "scenarios", "lanes"):
                    setattr(outer, count,
                            getattr(outer, count) + getattr(profile, count))

    cls.run_many = run_many


def _record_bytes(args, kwargs, result):
    record = _arg(args, kwargs, 2, "record")
    runs = record.runs
    nbytes = sum(
        getattr(runs, field).nbytes
        for field in ("min_separation", "min_horizontal", "nmac",
                      "own_alerted", "intruder_alerted")
    )
    return {"bytes": int(nbytes) + 8 * len(record.params.as_array())}


def _claim_attrs(args, kwargs, result):
    return {"yield": result is not None,
            "cid": None if result is None else result.campaign_id}


def _submit_job_attrs(args, kwargs, result):
    return {"cid": _arg(args, kwargs, 1, "campaign_id"),
            "chunks": int(result or 0)}


def _handler_prepare(args, kwargs):
    environ = _arg(args, kwargs, 1, "environ")
    set_ctx(environ.get("HTTP_X_PERFBENCH_REQUEST"))
    return args, kwargs


def instrument(trace_dir) -> None:
    """Install every layer's wrappers in this process (idempotent)."""
    if _state["installed"]:
        return
    _state["installed"] = True
    _state["trace_dir"] = str(trace_dir)
    _reset_if_forked()

    import repro.telemetry as telemetry
    from repro.acasx import cache
    from repro.acasx.logic_table import LogicTable
    from repro.distributed import coordinator
    from repro.distributed.queue import WorkQueue
    from repro.encounters.statistical import StatisticalEncounterModel
    from repro.experiments.backends import BackendSpec
    from repro.experiments.campaign import Campaign
    from repro.montecarlo.estimator import MonteCarloEstimator
    from repro.search.fitness import EncounterFitness
    from repro.search.ga import GeneticAlgorithm
    from repro.service.app import ServiceApp
    from repro.service.service import CampaignService
    from repro.sim.batch import BatchEncounterSimulator
    from repro.store import CampaignSpec, ResultStore

    hook = telemetry.span

    @functools.wraps(hook)
    def counted_span(*args, **kwargs):
        _state["hook_calls"] += 1
        return hook(*args, **kwargs)

    telemetry.span = counted_span

    patch(cache, "build_or_load", "acasx.table_load")
    patch(LogicTable, "q_values_batch", "acasx.q_lookup", attrs=_q_rows)
    patch(StatisticalEncounterModel, "sample", "encounters.sample")
    patch(Campaign, "run", "experiments.campaign")
    patch(BackendSpec, "capture", "experiments.backend_spec")
    _wrap_run_many(BatchEncounterSimulator)
    patch(GeneticAlgorithm, "run", "search.ga")
    patch(EncounterFitness, "evaluate_population", "search.evaluate")
    patch(MonteCarloEstimator, "estimate", "montecarlo.estimate")
    patch(CampaignSpec, "capture", "store.spec_capture")
    patch(ResultStore, "open_campaign", "store.open")
    patch(ResultStore, "add_record", "store.write", attrs=_record_bytes)
    for read in ("get_record", "completed_indices", "record_rows",
                 "get_campaign"):
        patch(ResultStore, read, "store.read")
    patch(coordinator, "submit", "distributed.submit")
    patch(WorkQueue, "claim", "distributed.claim", attrs=_claim_attrs)
    patch(WorkQueue, "submit_job", "distributed.enqueue",
          attrs=_submit_job_attrs)
    patch(CampaignService, "submit", "service.submit")
    patch(CampaignService, "wait", "service.wait")
    patch(CampaignService, "progress", "service.progress")
    patch(ServiceApp, "__call__", "service.handler",
          prepare=_handler_prepare)
