"""Per-layer metrics from the spans of one traced run.

A layer is a ``src/repro`` module; its spans are named ``<layer>.<what>``
(see ``tracing.instrument``).  A span's self time is its duration minus
the part of it its child spans cover.  Everything except the table load
(a set-up cost) is taken from spans that start inside the timed window.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("acasx.table_load_s", "s"),
    ("acasx.q_lookup_s", "s"),
    ("acasx.q_lookup_rows", "rows"),
    ("encounters.sample_s", "s"),
    ("experiments.campaign_self_s", "s"),
    ("experiments.campaigns", "count"),
    ("experiments.backend_spec_s", "s"),
    ("sim.kernel_s", "s"),
    ("sim.calls", "count"),
    ("sim.lanes", "lanes"),
    ("sim.lanes_per_call", "lanes"),
    ("sim.lane_decisions", "decisions"),
    ("sim.tape_draw_s", "s"),
    ("sim.decision_s", "s"),
    ("sim.physics_s", "s"),
    ("sim.observe_s", "s"),
    ("sim.busy_frac", "frac"),
    ("search.breed_s", "s"),
    ("search.evaluate_s", "s"),
    ("search.evaluations", "count"),
    ("montecarlo.aggregate_s", "s"),
    ("store.spec_capture_s", "s"),
    ("store.open_s", "s"),
    ("store.write_s", "s"),
    ("store.writes", "count"),
    ("store.bytes_written", "bytes"),
    ("store.read_s", "s"),
    ("store.reads", "count"),
    ("distributed.submit_s", "s"),
    ("distributed.claim_s", "s"),
    ("distributed.claims", "count"),
    ("distributed.claim_yield", "frac"),
    ("distributed.queue_wait_s", "s"),
    ("service.submit_s", "s"),
    ("service.wait_s", "s"),
    ("service.progress_calls", "count"),
    ("service.handler_s", "s"),
    ("service.transport_s", "s"),
    ("telemetry.hook_calls", "count"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("trace.coverage", "frac"),
)

NAME, START, END, ID, PARENT, CTX, PID, TID, ATTRS = range(9)

#: ``trace.coverage`` below this is flagged: the layer shares of a
#: workload should add up to within 10% of its wall.
COVERAGE_FLOOR = 0.9


def _union(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[list]) -> Dict[tuple, float]:
    """Self time of every span, keyed by (pid, span id)."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[(span[PID], span[PARENT])].append(span)
    result = {}
    for span in spans:
        key = (span[PID], span[ID])
        covered = _union(
            (max(c[START], span[START]), min(c[END], span[END]))
            for c in children.get(key, ())
            if c[END] > span[START] and c[START] < span[END]
        )
        result[key] = span[END] - span[START] - covered
    return result


def analyse(trace: dict, timing: dict, main_pid: int,
            kernel_processes: int, driving_threads: int) -> dict:
    """Every per-layer metric value of one traced run.

    *timing* carries the traced window (``t_start``/``t_end``) and the
    traced and untraced walls of the same operations.
    """
    spans = [s for s in trace["spans"] if s[END] is not None]
    own = self_times(spans)
    t0, t1 = timing["t_start"], timing["t_end"]
    wall = t1 - t0
    timed = [s for s in spans if t0 <= s[START] <= t1]

    def named(name):
        return [s for s in timed if s[NAME] == name]

    def dur(name):
        return sum(s[END] - s[START] for s in named(name))

    def self_of(name):
        return sum(own[(s[PID], s[ID])] for s in named(name))

    def attr_sum(name, key):
        return sum(s[ATTRS].get(key) or 0 for s in named(name))

    kernel = named("sim.kernel")
    claims = named("distributed.claim")
    values = {
        "acasx.table_load_s": sum(
            s[END] - s[START] for s in spans
            if s[NAME] == "acasx.table_load"),
        "acasx.q_lookup_s": dur("acasx.q_lookup"),
        "acasx.q_lookup_rows": attr_sum("acasx.q_lookup", "rows"),
        "encounters.sample_s": dur("encounters.sample"),
        "experiments.campaign_self_s": self_of("experiments.campaign"),
        "experiments.campaigns": len(named("experiments.campaign")),
        "experiments.backend_spec_s": dur("experiments.backend_spec"),
        "sim.kernel_s": dur("sim.kernel"),
        "sim.calls": len(kernel),
        "sim.lanes": attr_sum("sim.kernel", "lanes"),
        "sim.lanes_per_call": (
            attr_sum("sim.kernel", "lanes") / len(kernel) if kernel else 0.0),
        "sim.lane_decisions": attr_sum("sim.kernel", "lane_decisions"),
        "sim.tape_draw_s": attr_sum("sim.kernel", "tape_draw"),
        "sim.decision_s": attr_sum("sim.kernel", "decision"),
        "sim.physics_s": attr_sum("sim.kernel", "physics"),
        "sim.observe_s": attr_sum("sim.kernel", "observe"),
        "sim.busy_frac": dur("sim.kernel") / (wall * kernel_processes),
        "search.breed_s": self_of("search.ga"),
        "search.evaluate_s": dur("search.evaluate"),
        "search.evaluations": len(named("search.evaluate")),
        "montecarlo.aggregate_s": self_of("montecarlo.estimate"),
        "store.spec_capture_s": dur("store.spec_capture"),
        "store.open_s": dur("store.open"),
        "store.write_s": dur("store.write"),
        "store.writes": len(named("store.write")),
        "store.bytes_written": attr_sum("store.write", "bytes"),
        "store.read_s": dur("store.read"),
        "store.reads": len(named("store.read")),
        "distributed.submit_s": self_of("distributed.submit"),
        "distributed.claim_s": dur("distributed.claim"),
        "distributed.claims": len(claims),
        "distributed.claim_yield": (
            sum(1 for s in claims if s[ATTRS].get("yield")) / len(claims)
            if claims else 0.0),
        "distributed.queue_wait_s": _queue_wait(spans, t0, t1),
        "service.submit_s": dur("service.submit") - sum(
            s[END] - s[START] for s in named("service.wait")),
        "service.wait_s": dur("service.wait"),
        "service.progress_calls": len(named("service.progress")),
        "service.handler_s": dur("service.handler"),
        "service.transport_s": _transport(timed),
        "telemetry.hook_calls": trace["hook_calls"],
        "telemetry.trace_overhead_frac": (
            timing["traced_wall"] / timing["untraced_wall"] - 1.0),
    }
    values["trace.coverage"] = coverage(timed, main_pid, wall,
                                        driving_threads)
    return values


def coverage(timed, main_pid: int, wall: float,
             driving_threads: int) -> float:
    """Share of the driving threads' wall that layer spans account for.

    The driving threads are the ones the workload's operations run on:
    the main process's for falsify and risk; for service the server's
    request handlers, since the main process there only runs the
    benchmark's HTTP client, whose ``client.*`` spans are no layer.  The
    value is Σ duration of their top-level layer spans ÷ (wall × driving
    threads), so time outside every layer span (the benchmark's own
    loop, HTTP transport, idle connections) lowers it.
    """
    handlers = {s[PID] for s in timed if s[NAME] == "service.handler"}
    driving = handlers or {main_pid}
    top = sum(s[END] - s[START] for s in timed
              if s[PID] in driving and s[PARENT] is None
              and not s[NAME].startswith("client."))
    return top / (wall * driving_threads)


def _queue_wait(spans, t0, t1) -> float:
    """Σ over campaigns of enqueue end → first successful claim."""
    enqueued = {}
    for s in spans:
        if s[NAME] == "distributed.enqueue" and s[ATTRS].get("chunks"):
            if t0 <= s[START] <= t1:
                enqueued.setdefault(s[ATTRS]["cid"], s[END])
    first_claim = {}
    for s in spans:
        if s[NAME] == "distributed.claim" and s[ATTRS].get("yield"):
            cid = s[ATTRS]["cid"]
            first_claim[cid] = min(first_claim.get(cid, s[END]), s[END])
    return sum(first_claim[cid] - end for cid, end in enqueued.items()
               if cid in first_claim)


def _transport(timed) -> float:
    """Σ client latency minus server handler time, per request id."""
    handler = defaultdict(float)
    for s in timed:
        if s[NAME] == "service.handler" and s[CTX] is not None:
            handler[s[CTX]] += s[END] - s[START]
    return sum(
        (s[END] - s[START]) - handler.get(s[CTX], 0.0)
        for s in timed if s[NAME] == "client.request"
    )
