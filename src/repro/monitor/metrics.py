"""Monitor observability, in the :class:`~repro.api.pool.PoolMetrics` style.

One :class:`MonitorMetrics` instance accompanies a monitor for its whole
life; the hot-path mutators are cheap counter bumps, everything derived
(throughput, sharing, hit ratios) is computed on read.  Surfaced two
ways by the CLI: a ``monitor_end`` record under ``--format json``, and a
periodic one-line stderr heartbeat (:meth:`heartbeat_line`) so an
operator tailing the monitor sees throughput, live-session count, queue
depth and the residual-sharing ratio without parsing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["MonitorMetrics"]

#: Queue-depth sample cap (mirrors PoolMetrics' bound).
_MAX_QUEUE_SAMPLES = 10_000

#: Counter fields summed when merging per-shard metrics.
_SUMMED_FIELDS = (
    "records_ingested",
    "malformed_records",
    "dropped_records",
    "late_records",
    "states_applied",
    "cohort_steps",
    "sessions_started",
    "sessions_live",
    "sessions_finished",
    "sessions_evicted",
    "evicted_lru",
    "evicted_idle",
    "sessions_errored",
    "intern_hits",
    "intern_misses",
    "decode_hits",
    "decode_misses",
    "cache_evictions",
    "cache_trims",
    "ticks",
)


@dataclass
class MonitorMetrics:
    """Counters for one monitor run.

    * ``records_ingested`` -- well-formed frames accepted (states + ends);
    * ``malformed_records`` -- quarantined lines (bad JSON/payload);
    * ``dropped_records`` -- lines shed by the ingest queue's ``drop``
      backpressure policy before parsing;
    * ``late_records`` -- frames for sessions already retired (finished
      or evicted) -- counted, never applied;
    * ``states_applied`` / ``cohort_steps`` -- session-states progressed
      vs distinct progression computations; their gap is the batching
      win (:attr:`sharing_ratio`);
    * ``sessions_*`` -- lifecycle counts (``evicted_lru``/``evicted_idle``
      break the eviction total down);
    * ``verdicts`` -- final dispositions by verdict name, plus
      ``"inconclusive"`` (evicted/EOF without a verdict) and ``"error"``;
    * ``intern_hits``/``intern_misses`` -- hash-cons deltas over the run
      (via :func:`repro.quickltl.intern_delta`);
    * ``decode_hits``/``decode_misses`` -- state lines this monitor
      parsed whose state the decoded-state table supplied vs decoded
      through the reference path (see :mod:`repro.monitor.records`);
      their sum is the number of state lines accepted;
    * ``cache_evictions``/``cache_trims`` -- what the bounded
      :class:`~repro.quickltl.ProgressionCaches` dropped;
    * ``queue_depth_samples`` -- ingest-queue depths sampled per drain;
    * ``ticks`` -- processing rounds run;
    * ``wall_s`` -- wall-clock of the run (set by the service).
    """

    records_ingested: int = 0
    malformed_records: int = 0
    dropped_records: int = 0
    late_records: int = 0
    states_applied: int = 0
    cohort_steps: int = 0
    sessions_started: int = 0
    sessions_live: int = 0
    sessions_finished: int = 0
    sessions_evicted: int = 0
    evicted_lru: int = 0
    evicted_idle: int = 0
    sessions_errored: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)
    intern_hits: int = 0
    intern_misses: int = 0
    decode_hits: int = 0
    decode_misses: int = 0
    cache_evictions: int = 0
    cache_trims: int = 0
    max_formula_size: int = 0
    queue_depth_samples: List[int] = field(default_factory=list)
    ticks: int = 0
    wall_s: float = 0.0

    # -- recording (hot path: keep cheap) ------------------------------

    def record_verdict(self, label: str) -> None:
        self.verdicts[label] = self.verdicts.get(label, 0) + 1

    def sample_queue_depth(self, depth: int) -> None:
        if len(self.queue_depth_samples) < _MAX_QUEUE_SAMPLES:
            self.queue_depth_samples.append(depth)

    # -- merging -------------------------------------------------------

    @classmethod
    def merged(cls, parts: "List[MonitorMetrics]") -> "MonitorMetrics":
        """Combine per-shard metrics into one whole-stream view.

        Counters and verdict tallies sum; ``max_formula_size`` takes
        the max; ``wall_s`` takes the max (shards run concurrently, so
        the slowest shard *is* the run's wall clock); queue-depth
        samples concatenate up to the usual cap (the sharded report
        additionally keeps them tagged per shard).
        """
        out = cls()
        for part in parts:
            for name in _SUMMED_FIELDS:
                setattr(out, name, getattr(out, name) + getattr(part, name))
            for label, count in part.verdicts.items():
                out.verdicts[label] = out.verdicts.get(label, 0) + count
            if part.max_formula_size > out.max_formula_size:
                out.max_formula_size = part.max_formula_size
            if part.wall_s > out.wall_s:
                out.wall_s = part.wall_s
            for depth in part.queue_depth_samples:
                if len(out.queue_depth_samples) >= _MAX_QUEUE_SAMPLES:
                    break
                out.queue_depth_samples.append(depth)
        return out

    # -- derived views -------------------------------------------------

    @property
    def sharing_ratio(self) -> float:
        """Fraction of applied states served by a cohort-mate's step."""
        if not self.states_applied:
            return 0.0
        return 1.0 - self.cohort_steps / self.states_applied

    @property
    def states_per_s(self) -> float:
        """Session-state throughput over the run's wall-clock."""
        if self.wall_s <= 0:
            return 0.0
        return self.states_applied / self.wall_s

    @property
    def intern_hit_ratio(self) -> float:
        constructions = self.intern_hits + self.intern_misses
        return self.intern_hits / constructions if constructions else 0.0

    @property
    def max_queue_depth(self) -> int:
        return max(self.queue_depth_samples, default=0)

    def to_dict(self) -> dict:
        """JSON-ready summary (the ``monitor_end`` record)."""
        return {
            "records_ingested": self.records_ingested,
            "malformed_records": self.malformed_records,
            "dropped_records": self.dropped_records,
            "late_records": self.late_records,
            "states_applied": self.states_applied,
            "cohort_steps": self.cohort_steps,
            "sharing_ratio": round(self.sharing_ratio, 4),
            "sessions_started": self.sessions_started,
            "sessions_live": self.sessions_live,
            "sessions_finished": self.sessions_finished,
            "sessions_evicted": self.sessions_evicted,
            "evicted_lru": self.evicted_lru,
            "evicted_idle": self.evicted_idle,
            "sessions_errored": self.sessions_errored,
            "verdicts": dict(sorted(self.verdicts.items())),
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "intern_hit_ratio": round(self.intern_hit_ratio, 4),
            "decode_hits": self.decode_hits,
            "decode_misses": self.decode_misses,
            "cache_evictions": self.cache_evictions,
            "cache_trims": self.cache_trims,
            "max_formula_size": self.max_formula_size,
            "max_queue_depth": self.max_queue_depth,
            "ticks": self.ticks,
            "wall_s": round(self.wall_s, 4),
            "states_per_s": round(self.states_per_s, 1),
        }

    def heartbeat_line(self, queue_depth: int = 0) -> str:
        """The periodic stderr one-liner."""
        return (
            f"[monitor] live={self.sessions_live} "
            f"states={self.states_applied} "
            f"({self.states_per_s:.0f}/s) "
            f"sharing={self.sharing_ratio:.2f} "
            f"decode_hits={self.decode_hits} "
            f"decode_misses={self.decode_misses} "
            f"verdicts={sum(self.verdicts.values())} "
            f"evicted={self.sessions_evicted} "
            f"queue={queue_depth} "
            f"malformed={self.malformed_records} "
            f"dropped={self.dropped_records}"
        )
