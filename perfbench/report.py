"""Metric names, units and how each is computed from a run's raw data.

``END_TO_END`` metrics come from untraced runs and are what a user of
the library waits for; ``PER_LAYER`` metrics come from a traced run.
Every name here is also listed in the repository's ``BENCHMARK.json``
(``run.py`` checks that the two agree).
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from spans import Tracer

#: (name, unit, better) -- measured with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("states_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("faults_found_ratio", "ratio", "higher"),
)

#: (name, unit) -- measured in a traced run.  ``_s`` times are self
#: times (span minus child spans) summed over the traced rounds, except
#: ``checker.shrink_s`` and ``api.pool.startup_s``.
PER_LAYER = (
    ("dom.query_all_s", "s"),
    ("dom.query_all.calls", "count"),
    ("dom.parse_selector_s", "s"),
    ("dom.parse_selector.calls", "count"),
    ("executors.act_s", "s"),
    ("executors.pass_time_s", "s"),
    ("executors.await_events_s", "s"),
    ("executors.start_s", "s"),
    ("executors.reset_s", "s"),
    ("executors.narrow_s", "s"),
    ("executors.narrow.calls", "count"),
    ("executors.narrow.accepted_ratio", "ratio"),
    ("quickltl.observe_s", "s"),
    ("quickltl.observe.calls", "count"),
    ("quickltl.intern_hit_ratio", "ratio"),
    ("specstrom.evaluate_s", "s"),
    ("specstrom.evaluate.calls", "count"),
    ("checker.narrow_s", "s"),
    ("checker.narrow.calls", "count"),
    ("checker.query_width_mean", "count"),
    ("checker.shrink_s", "s"),
    ("checker.replay.calls", "count"),
    ("checker.replay.useful_ratio", "ratio"),
    ("checker.loop_self_s", "s"),
    ("api.session_self_s", "s"),
    ("api.merge_s", "s"),
    ("api.transport_s", "s"),
    ("api.pool.startup_s", "s"),
    ("api.pool.utilisation_mean", "ratio"),
    ("api.pool.queue_depth_max", "count"),
    ("api.pool.warm_hit_ratio", "ratio"),
    ("api.pool.cold_starts", "count"),
    ("api.pool.tasks_completed", "count"),
    ("api.pool.tasks_skipped", "count"),
    ("api.pool.worker_skew", "ratio"),
    ("monitor.feed_self_s", "s"),
    ("monitor.decode_s", "s"),
    ("monitor.decode.calls", "count"),
    ("monitor.state_key_s", "s"),
    ("monitor.snapshot_from_json_s", "s"),
    ("monitor.progress_s", "s"),
    ("monitor.flush_self_s", "s"),
    ("monitor.finish_self_s", "s"),
    ("monitor.rounds", "count"),
    ("monitor.cohort_steps", "count"),
    ("monitor.states_applied", "count"),
    ("monitor.sharing_ratio", "ratio"),
    ("monitor.intern_hit_ratio", "ratio"),
    ("monitor.max_formula_size", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
    ("trace.worker_unaccounted_ratio", "ratio"),
)

#: Layers whose ``_s`` metric is the self time of one span name.
_SELF_TIMES = {
    "dom.query_all_s": "dom.query_all",
    "dom.parse_selector_s": "dom.parse_selector",
    "executors.act_s": "executors.act",
    "executors.pass_time_s": "executors.pass_time",
    "executors.await_events_s": "executors.await_events",
    "executors.start_s": "executors.start",
    "executors.reset_s": "executors.reset",
    "executors.narrow_s": "executors.narrow",
    "quickltl.observe_s": "quickltl.observe",
    "specstrom.evaluate_s": "specstrom.evaluate",
    "checker.narrow_s": "checker.narrow",
    "checker.loop_self_s": "checker.loop",
    "api.session_self_s": "api.session",
    "api.merge_s": "api.merge",
    "api.transport_s": "api.transport",
    "monitor.feed_self_s": "monitor.feed",
    "monitor.decode_s": "monitor.decode",
    "monitor.state_key_s": "monitor.state_key",
    "monitor.snapshot_from_json_s": "monitor.snapshot_from_json",
    "monitor.progress_s": "monitor.progress",
    "monitor.flush_self_s": "monitor.flush",
    "monitor.finish_self_s": "monitor.finish",
}

_CALLS = {
    "dom.query_all.calls": "dom.query_all",
    "dom.parse_selector.calls": "dom.parse_selector",
    "executors.narrow.calls": "executors.narrow",
    "quickltl.observe.calls": "quickltl.observe",
    "specstrom.evaluate.calls": "specstrom.evaluate",
    "checker.narrow.calls": "checker.narrow",
    "checker.replay.calls": "checker.replay",
    "monitor.decode.calls": "monitor.decode",
}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _merged_totals(*tracers: Tracer) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for tracer in tracers:
        for name, entry in tracer.layer_totals().items():
            into = merged.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
            )
            for key, value in entry.items():
                into[key] += value
    return merged


def _pool_startup_s(tracer: Tracer) -> List[float]:
    """Per batch: from ``check_many`` entry to the end of the last
    worker fork it caused."""
    session_id = tracer.name_id("api.session")
    fork_id = tracer.name_id("api.pool.fork")
    startup: Dict[int, float] = {}
    for index, name_id in enumerate(tracer.name):
        if name_id != fork_id:
            continue
        ancestor = tracer.parent[index]
        while ancestor >= 0 and tracer.name[ancestor] != session_id:
            ancestor = tracer.parent[ancestor]
        if ancestor >= 0:
            startup[ancestor] = tracer.end[index] - tracer.start[ancestor]
    return list(startup.values())


def _pool_metrics(batches: List[object], tracer: Tracer) -> Dict[str, float]:
    if not batches:
        return {}
    warm = sum(getattr(m, "warm_hits", 0) for m in batches)
    cold = sum(getattr(m, "cold_starts", 0) for m in batches)
    skews = []
    for metrics in batches:
        busy = list(getattr(metrics, "worker_busy_s", {}).values())
        if busy and sum(busy):
            skews.append(max(busy) / (sum(busy) / len(busy)))
    startup = _pool_startup_s(tracer)
    return {
        "api.pool.startup_s": statistics.median(startup) if startup else 0.0,
        "api.pool.utilisation_mean": statistics.fmean(
            m.mean_utilisation() for m in batches
        ),
        "api.pool.queue_depth_max": max(m.max_queue_depth for m in batches),
        "api.pool.warm_hit_ratio": ratio(warm, warm + cold),
        "api.pool.cold_starts": cold,
        "api.pool.tasks_completed": sum(m.tasks_completed for m in batches),
        "api.pool.tasks_skipped": sum(m.tasks_skipped for m in batches),
        "api.pool.worker_skew": statistics.median(skews) if skews else 0.0,
    }


def layer_metrics(workload, summary: dict, tracer: Tracer,
                  workers: Tracer) -> Dict[str, float]:
    """Every PER_LAYER metric except ``trace.overhead_ratio`` (the
    parent fills that in from the untraced run).  Layers the workload
    never calls read 0."""
    totals = _merged_totals(tracer, workers)
    counters = dict(tracer.counters)
    for key, value in workers.counters.items():
        counters[key] = counters.get(key, 0) + value
    out: Dict[str, float] = {metric: 0.0 for metric, _unit in PER_LAYER}
    empty = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    for metric, layer in _SELF_TIMES.items():
        out[metric] = totals.get(layer, empty)["self_s"]
    for metric, layer in _CALLS.items():
        out[metric] = totals.get(layer, empty)["calls"]
    out["checker.shrink_s"] = totals.get("checker.shrink", empty)["inclusive_s"]
    out["executors.narrow.accepted_ratio"] = ratio(
        counters.get("executors.narrow.accepted", 0),
        out["executors.narrow.calls"],
    )
    out["checker.replay.useful_ratio"] = ratio(
        counters.get("checker.replay.useful", 0), out["checker.replay.calls"]
    )
    if "intern_hits" in summary:
        out["quickltl.intern_hit_ratio"] = ratio(
            summary["intern_hits"],
            summary["intern_hits"] + summary["intern_misses"],
        )
        out["checker.query_width_mean"] = ratio(
            summary["query_width_sum"], summary["states"]
        )
    out.update(_pool_metrics(getattr(workload, "pool_metrics", []), tracer))
    monitor = summary.get("monitor")
    if monitor is not None:
        out["monitor.rounds"] = monitor["ticks"]
        out["monitor.cohort_steps"] = monitor["cohort_steps"]
        out["monitor.states_applied"] = monitor["states_applied"]
        out["monitor.sharing_ratio"] = 1.0 - ratio(
            monitor["cohort_steps"], monitor["states_applied"]
        )
        out["monitor.intern_hit_ratio"] = ratio(
            monitor["intern_hits"],
            monitor["intern_hits"] + monitor["intern_misses"],
        )
        out["monitor.max_formula_size"] = monitor["max_formula_size"]
    # Self times of every span in this process cover the traced rounds
    # up to the benchmark's own loop; pool workers are checked against
    # the busy time the pool itself recorded.
    wall = sum(outcome["wall_s"] for outcome in summary["rounds"])
    covered = sum(entry["self_s"] for entry in tracer.layer_totals().values())
    out["trace.unaccounted_ratio"] = 1.0 - ratio(covered, wall)
    if len(workers):
        busy = sum(
            sum(getattr(m, "worker_busy_s", {}).values())
            for m in getattr(workload, "pool_metrics", [])
        )
        worker_covered = sum(
            entry["self_s"] for entry in workers.layer_totals().values()
        )
        out["trace.worker_unaccounted_ratio"] = 1.0 - ratio(
            worker_covered, busy
        )
    return out
