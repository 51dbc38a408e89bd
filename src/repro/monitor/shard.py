"""Sharded multi-process monitoring: N workers, one verdict stream.

The single-process :class:`~repro.monitor.service.Monitor` progresses
every session on one core.  :class:`ShardedMonitor` keeps that monitor
*exactly as it is* and scales it sideways: a dispatcher drains the
ingest stream, routes every line by a cheap hash of its session id
(read exactly as the decoder reads it -- see :func:`peek_session_id`),
and feeds N worker processes, each running today's ``Monitor`` -- its
own :class:`~repro.monitor.table.SessionTable`,
:class:`~repro.monitor.batch.BatchProgressor` and
:class:`~repro.quickltl.ProgressionCaches` -- over a
:class:`~repro.artifact.build.CompiledSpec` shipped as artifact bytes,
so workers load instead of re-elaborating (the same discipline remote
checker workers follow).

Because the router partitions *sessions* (never records of one session)
and per-session record order is preserved end to end, the sharded
monitor's verdict multiset is identical to the single-process monitor's
for any shard count and any record interleaving -- asserted by
``tests/monitor/test_shard.py`` and the fuzzer's monitor-oracle leg.
The one caveat: ``max_sessions``/``idle_ttl_s`` caps apply *per shard*,
so eviction choices (which depend on global LRU order) are equivalent
only in aggregate, not victim-for-victim.

Dispatch channels reuse the ingest queue's backpressure discipline
(:mod:`repro.monitor.ingest`): bounded multiprocessing queues of line
chunks, ``block`` stalling the dispatcher and ``drop`` shedding the
incoming chunk (counted, surfaced as ``dropped_records``).  Control
messages (ticks, checkpoints, shutdown) always block -- backpressure
may shed data, never protocol.

Checkpoints are per shard: a checkpoint directory holds one ``QSRC``
file per worker (``shard-NN.qsc``).  Restore merges whatever layout is
on disk -- N shard files or a single-process ``monitor.qsc`` -- and
re-partitions the merged snapshot through the router, so shard count
may change (and sharded/unsharded may swap) across a restart.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, Iterable, List, Optional, Tuple

from ..artifact.codec import decode, encode
from ..artifact.errors import ArtifactFormatError
from .checkpoint import (
    _COUNTER_FIELDS,
    checkpoint_path,
    list_shard_checkpoints,
    load_checkpoint_payload,
    merge_snapshots,
    prune_shard_checkpoints,
    restore_snapshot,
    save_shard_checkpoint,
)
from .ingest import IngestQueue
from .metrics import MonitorMetrics
from .records import session_tag
from .service import (
    _QUARANTINE_SAMPLES,
    Monitor,
    MonitorReport,
    SessionVerdict,
)

__all__ = [
    "ShardRouter",
    "ShardedMonitor",
    "ShardedMonitorReport",
    "peek_session_id",
    "split_snapshot",
]


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def peek_session_id(line: str) -> Optional[str]:
    """The record's top-level ``"session"`` value, as
    :func:`~repro.monitor.records.parse_record` decodes it.

    The stripped line goes through the same ``json.loads`` and
    :func:`~repro.monitor.records.session_tag` as the decoder, so for
    every line ``parse_record`` accepts this returns exactly its
    ``session_id`` (the last of duplicate keys wins, escaped key names
    count, integers become their decimal string).  Returns ``None`` for
    blank lines, invalid JSON, non-objects and a missing or ill-typed
    tag, which the router sends to shard 0, whose monitor quarantines
    them through the ordinary malformed-record path.
    """
    try:
        data = json.loads(line.strip())
    except (ValueError, RecursionError):
        return None
    return session_tag(data.get("session")) if isinstance(data, dict) else None


class ShardRouter:
    """Deterministic session-id -> shard-index partition.

    CRC32 rather than :func:`hash`: Python's string hash is salted per
    process, and the route must be identical across workers, restarts
    and re-sharding restores.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        self.shards = shards

    def shard_of(self, session_id: str) -> int:
        return zlib.crc32(session_id.encode("utf-8")) % self.shards

    def route(self, line: str) -> int:
        """The shard for one wire line (0 when no session id peeks out)."""
        session_id = peek_session_id(line)
        return 0 if session_id is None else self.shard_of(session_id)


def split_snapshot(snapshot: dict, router: ShardRouter) -> List[dict]:
    """Partition a whole-monitor snapshot into per-shard snapshots.

    Live entries and the retired ring route by session id, so every
    session's state lands on the shard that will receive its future
    records.  Aggregate counters/metrics cannot be attributed to a
    shard after a merge, so they ride on shard 0 -- the merged report
    (which sums) still covers the whole logical stream.
    """
    parts = [_empty_snapshot() for _ in range(router.shards)]
    for item in snapshot["entries"]:
        parts[router.shard_of(item["session_id"])]["entries"].append(item)
    for session_id, reason in snapshot["retired"]:
        parts[router.shard_of(session_id)]["retired"].append(
            (session_id, reason)
        )
    aggregate = parts[0]
    aggregate["counters"] = dict(snapshot["counters"])
    aggregate["verdicts"] = dict(snapshot["verdicts"])
    aggregate["queue_depth_samples"] = list(snapshot["queue_depth_samples"])
    for name in ("intern_hits", "intern_misses",
                 "cache_evictions", "cache_trims", "wall_s"):
        aggregate[name] = snapshot[name]
    aggregate["quarantine"] = list(snapshot["quarantine"])
    return parts


def _empty_snapshot() -> dict:
    return {
        "entries": [],
        "retired": [],
        "counters": {name: 0 for name in _COUNTER_FIELDS},
        "verdicts": {},
        "queue_depth_samples": [],
        "intern_hits": 0,
        "intern_misses": 0,
        "cache_evictions": 0,
        "cache_trims": 0,
        "wall_s": 0.0,
        "quarantine": [],
    }


# ----------------------------------------------------------------------
# Dispatch channels
# ----------------------------------------------------------------------


class ShardChannel:
    """One bounded dispatch channel to a shard worker.

    The ingest queue's backpressure discipline over a multiprocessing
    queue of line *chunks*: ``block`` stalls the dispatcher on a full
    channel, ``drop`` sheds the incoming chunk and counts every line in
    it.  Control messages always block: protocol is never shed.
    """

    def __init__(self, ctx, capacity: int, policy: str) -> None:
        if policy not in ("block", "drop"):
            raise ValueError(f"policy must be 'block' or 'drop', got {policy!r}")
        self.queue = ctx.Queue(capacity)
        self.policy = policy
        self.dropped = 0

    def send_lines(self, chunk: List[str]) -> None:
        if self.policy == "drop":
            try:
                self.queue.put_nowait(("lines", chunk))
            except queue_module.Full:
                self.dropped += len(chunk)
        else:
            self.queue.put(("lines", chunk))

    def send_control(self, message: tuple) -> None:
        self.queue.put(message)

    def depth(self) -> int:
        """Chunks in flight (approximate; 0 where unsupported)."""
        try:
            return self.queue.qsize()
        except (NotImplementedError, OSError):  # pragma: no cover
            return 0


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _shard_worker_main(
    index: int,
    shards: int,
    artifact: bytes,
    source_hash: str,
    property_name: Optional[str],
    monitor_kwargs: dict,
    inbox,
    outbox,
) -> None:
    """One shard worker: an ordinary :class:`Monitor` behind a channel.

    Loads the shipped artifact bytes (never re-elaborates), then serves
    its inbox until a ``suspend``/``finish`` message, answering with a
    final ``report``.  Any exception surfaces as an ``error`` message
    -- a shard must fail loudly, not hang the merge.
    """
    try:
        from ..artifact.resolver import SpecResolver

        bundle = SpecResolver().load_bytes(artifact, source_hash=source_hash)
        check = bundle.check_named(property_name)
        compiled = bundle.property_named(property_name)

        def emit(verdict: SessionVerdict) -> None:
            outbox.put((index, "verdict", verdict))

        monitor = Monitor(
            check, compiled=compiled, on_verdict=emit, **monitor_kwargs
        )
        while True:
            message = inbox.get()
            kind = message[0]
            if kind == "lines":
                for line in message[1]:
                    monitor.feed_line(line)
            elif kind == "tick":
                monitor.flush()
            elif kind == "checkpoint":
                monitor.flush()
                path = save_shard_checkpoint(
                    monitor, message[1], index, shards
                )
                outbox.put((index, "checkpointed", path))
            elif kind == "restore":
                restore_snapshot(monitor, decode(message[2]), message[1])
                outbox.put((index, "restored", dict(message[1])))
            elif kind in ("suspend", "finish"):
                if kind == "suspend":
                    monitor.flush()
                    if message[1] is not None:
                        save_shard_checkpoint(
                            monitor, message[1], index, shards
                        )
                    report = monitor.suspend()
                else:
                    report = monitor.finish()
                outbox.put(
                    (index, "report", (report.metrics, report.quarantine))
                )
                break
    except BaseException:  # pragma: no cover - exercised via error tests
        outbox.put((index, "error", traceback.format_exc()))


# ----------------------------------------------------------------------
# The sharded monitor
# ----------------------------------------------------------------------


@dataclass
class ShardedMonitorReport(MonitorReport):
    """A merged report plus the per-shard breakdown.

    ``metrics`` sums counters across shards (``wall_s`` and
    ``max_formula_size`` take the max -- shards run concurrently);
    ``quarantine`` concatenates shard samples up to the usual cap;
    ``shard_metrics`` keeps each worker's own counters and
    ``queue_depth_by_shard`` its dispatch-channel depth samples.
    """

    shard_metrics: List[MonitorMetrics] = field(default_factory=list)
    queue_depth_by_shard: Dict[int, List[int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["shards"] = len(self.shard_metrics)
        data["shard_metrics"] = [m.to_dict() for m in self.shard_metrics]
        data["queue_depth_by_shard"] = {
            str(index): samples
            for index, samples in sorted(self.queue_depth_by_shard.items())
        }
        return data


class ShardedMonitor:
    """N shard workers behind one dispatcher, reporting as one monitor.

    ``spec`` is a :class:`~repro.artifact.build.CompiledSpec` bundle
    (required for the ``process`` transport -- workers receive its
    artifact bytes) or a bare :class:`~repro.specstrom.module.CheckSpec`
    (``inline`` transport only -- the in-process twin used by the
    equivalence tests and the fuzz oracle, same router and merge logic
    without the processes).
    """

    def __init__(
        self,
        spec,
        *,
        shards: int,
        property_name: Optional[str] = None,
        transport: str = "process",
        max_sessions: Optional[int] = None,
        idle_ttl_s: Optional[float] = None,
        batch: bool = True,
        batch_size: int = 4096,
        cache_entries: Optional[int] = None,
        resolve_at_eof: bool = False,
        on_verdict: Optional[Callable[[SessionVerdict], None]] = None,
        channel_capacity: int = 64,
        chunk_size: int = 256,
        channel_policy: str = "block",
        resolver=None,
    ) -> None:
        if transport not in ("process", "inline"):
            raise ValueError(
                f"transport must be 'process' or 'inline', got {transport!r}"
            )
        self.router = ShardRouter(shards)
        self.shards = shards
        self.transport = transport
        self.property_name = property_name
        self.on_verdict = on_verdict
        self.chunk_size = max(1, chunk_size)
        self._buffers: List[List[str]] = [[] for _ in range(shards)]
        self._monitor_kwargs = dict(
            max_sessions=max_sessions,
            idle_ttl_s=idle_ttl_s,
            batch=batch,
            batch_size=batch_size,
            cache_entries=cache_entries,
            resolve_at_eof=resolve_at_eof,
        )
        self.batch_size = max(1, batch_size)
        self._ingest_dropped = 0
        self._depth_samples: Dict[int, List[int]] = {
            index: [] for index in range(shards)
        }
        self._finished: Optional[ShardedMonitorReport] = None

        from ..artifact.build import CompiledSpec

        if transport == "inline":
            if isinstance(spec, CompiledSpec):
                check = spec.check_named(property_name)
                compiled = spec.property_named(property_name)
            else:
                check, compiled = spec, None
            self._resolved_property = check.name
            self._monitors = [
                Monitor(
                    check,
                    compiled=compiled,
                    on_verdict=self._emit,
                    **self._monitor_kwargs,
                )
                for _ in range(shards)
            ]
            return

        if not isinstance(spec, CompiledSpec):
            raise TypeError(
                "the process transport ships artifact bytes; pass a "
                "CompiledSpec bundle (compile the spec first) or use "
                "transport='inline'"
            )
        self._resolved_property = spec.check_named(property_name).name
        if resolver is None:
            from ..artifact.resolver import SpecResolver

            resolver = SpecResolver()
        artifact = resolver.encoded(spec)
        # Fork context, like the pool's ForkTransport: workers inherit
        # the parent's imports; the artifact bytes are re-decoded per
        # process so each worker interns into its own table.
        ctx = multiprocessing.get_context("fork")
        self._outbox = ctx.Queue()
        self._channels = [
            ShardChannel(ctx, channel_capacity, channel_policy)
            for _ in range(shards)
        ]
        self._workers = [
            ctx.Process(
                target=_shard_worker_main,
                args=(
                    index,
                    shards,
                    artifact,
                    spec.source_hash,
                    property_name,
                    self._monitor_kwargs,
                    self._channels[index].queue,
                    self._outbox,
                ),
                daemon=True,
                name=f"monitor-shard-{index}",
            )
            for index in range(shards)
        ]
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._acks: Dict[str, List[Tuple[int, object]]] = {
            "checkpointed": [],
            "restored": [],
        }
        self._reports: Dict[int, Tuple[MonitorMetrics, list]] = {}
        self._errors: List[Tuple[int, str]] = []
        self._collector_stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="monitor-shard-collect"
        )
        for worker in self._workers:
            worker.start()
        self._collector.start()

    # -- verdict / message plumbing ------------------------------------

    def _emit(self, verdict: SessionVerdict) -> None:
        if self.on_verdict is not None:
            self.on_verdict(verdict)

    def _collect(self) -> None:
        pending = len(self._workers)
        while pending:
            try:
                index, kind, payload = self._outbox.get(timeout=0.2)
            except queue_module.Empty:
                if self._collector_stop.is_set():
                    return
                continue
            if kind == "verdict":
                self._emit(payload)
                continue
            with self._cond:
                if kind == "report":
                    self._reports[index] = payload
                    pending -= 1
                elif kind == "error":
                    self._errors.append((index, payload))
                    pending -= 1
                else:
                    self._acks[kind].append((index, payload))
                self._cond.notify_all()

    def _check_errors_locked(self) -> None:
        if self._errors:
            index, text = self._errors[0]
            raise RuntimeError(f"monitor shard {index} failed:\n{text}")

    def _wait(self, predicate, timeout_s: float = 120.0) -> None:
        with self._cond:
            done = self._cond.wait_for(
                lambda: bool(self._errors) or predicate(), timeout_s
            )
            self._check_errors_locked()
            if not done:
                raise RuntimeError(
                    "timed out waiting for monitor shard workers"
                )

    # -- feeding -------------------------------------------------------

    def feed_line(self, line: str) -> None:
        """Route one wire line to its session's shard."""
        index = self.router.route(line)
        if self.transport == "inline":
            self._monitors[index].feed_line(line)
            return
        buffer = self._buffers[index]
        buffer.append(line)
        if len(buffer) >= self.chunk_size:
            self._buffers[index] = []
            self._channels[index].send_lines(buffer)

    def feed_lines(self, lines: Iterable[str]) -> None:
        for line in lines:
            self.feed_line(line)

    def flush(self) -> None:
        """Ship partial chunks and have every shard run its rounds."""
        if self.transport == "inline":
            for monitor in self._monitors:
                monitor.flush()
            return
        for index, buffer in enumerate(self._buffers):
            if buffer:
                self._buffers[index] = []
                self._channels[index].send_lines(buffer)
        self._broadcast(("tick",))

    def _broadcast(self, message: tuple) -> None:
        for channel in self._channels:
            channel.send_control(message)

    def _sample_depths(self) -> None:
        if self.transport == "inline":
            return
        for index, channel in enumerate(self._channels):
            samples = self._depth_samples[index]
            if len(samples) < 10_000:
                samples.append(channel.depth() * self.chunk_size)

    # -- checkpoint / restore ------------------------------------------

    def checkpoint_to(self, directory: str) -> str:
        """Flush, then checkpoint every shard (one ``QSRC`` file each).

        Only after *all* shards ack does the round prune stale layout
        (a previous run's ``monitor.qsc`` or wider shard files) -- a
        crash mid-round leaves a restorable mixture, never an empty
        directory.
        """
        self.flush()
        if self.transport == "inline":
            for index, monitor in enumerate(self._monitors):
                monitor.flush()
                save_shard_checkpoint(monitor, directory, index, self.shards)
        else:
            with self._cond:
                self._acks["checkpointed"] = []
            self._broadcast(("checkpoint", directory))
            self._wait(lambda: len(self._acks["checkpointed"]) >= self.shards)
        self._prune_stale(directory)
        return directory

    def _prune_stale(self, directory: str) -> None:
        prune_shard_checkpoints(directory, keep=tuple(range(self.shards)))
        stale_single = checkpoint_path(directory)
        try:
            os.unlink(stale_single)
        except OSError:
            pass

    def restore_from(self, directory: str) -> dict:
        """Resume from ``directory``, whatever layout it holds.

        Merges the on-disk snapshots (N shard files, or a
        single-process ``monitor.qsc``) and re-partitions through the
        router, so restoring under a different shard count -- or from
        an unsharded run -- is the same code path as the exact-match
        case.  Returns a summary header.
        """
        snapshots: List[dict] = []
        headers: List[dict] = []
        single = checkpoint_path(directory)
        if os.path.exists(single):
            header, snapshot = load_checkpoint_payload(single)
            headers.append(header)
            snapshots.append(snapshot)
        for _index, path in list_shard_checkpoints(directory):
            header, snapshot = load_checkpoint_payload(path)
            headers.append(header)
            snapshots.append(snapshot)
        if not snapshots:
            raise ArtifactFormatError(
                f"no monitor checkpoint found under {directory}"
            )
        for header in headers:
            if header.get("property") not in (None, self._resolved_property):
                raise ArtifactFormatError(
                    f"checkpoint is for property {header.get('property')!r}, "
                    f"monitor checks {self._resolved_property!r}"
                )
        merged = merge_snapshots(snapshots)
        parts = split_snapshot(merged, self.router)
        base_header = {
            "format": "repro-monitor-checkpoint",
            "property": self._resolved_property,
        }
        if self.transport == "inline":
            for index, monitor in enumerate(self._monitors):
                restore_snapshot(monitor, parts[index], dict(base_header))
        else:
            with self._cond:
                self._acks["restored"] = []
            for index, channel in enumerate(self._channels):
                channel.send_control(
                    ("restore", dict(base_header), encode(parts[index]))
                )
            self._wait(lambda: len(self._acks["restored"]) >= self.shards)
        return {
            **base_header,
            "records_ingested": merged["counters"]["records_ingested"],
            "sessions_live": len(merged["entries"]),
            "shards": self.shards,
        }

    # -- finishing -----------------------------------------------------

    def suspend(
        self, checkpoint_dir: Optional[str] = None
    ) -> "ShardedMonitorReport":
        """Report without draining (checkpointing first when asked)."""
        return self._shutdown("suspend", checkpoint_dir)

    def finish(self) -> "ShardedMonitorReport":
        """Resolve/discard remaining sessions on every shard; merge."""
        return self._shutdown("finish", None)

    def _shutdown(
        self, kind: str, checkpoint_dir: Optional[str]
    ) -> "ShardedMonitorReport":
        if self._finished is not None:
            return self._finished
        if self.transport == "inline":
            reports = []
            for index, monitor in enumerate(self._monitors):
                if kind == "suspend":
                    if checkpoint_dir is not None:
                        monitor.flush()
                        save_shard_checkpoint(
                            monitor, checkpoint_dir, index, self.shards
                        )
                    reports.append(monitor.suspend())
                else:
                    reports.append(monitor.finish())
            if kind == "suspend" and checkpoint_dir is not None:
                self._prune_stale(checkpoint_dir)
            self._finished = self._merge_reports(
                [report.metrics for report in reports],
                [report.quarantine for report in reports],
            )
            return self._finished
        self.flush()
        if kind == "suspend":
            self._broadcast(("suspend", checkpoint_dir))
        else:
            self._broadcast(("finish",))
        self._wait(lambda: len(self._reports) >= self.shards)
        self._collector_stop.set()
        self._collector.join(timeout=10.0)
        for worker in self._workers:
            worker.join(timeout=10.0)
        if kind == "suspend" and checkpoint_dir is not None:
            self._prune_stale(checkpoint_dir)
        ordered = [self._reports[index] for index in sorted(self._reports)]
        self._finished = self._merge_reports(
            [metrics for metrics, _quarantine in ordered],
            [quarantine for _metrics, quarantine in ordered],
        )
        return self._finished

    def stop(self) -> None:
        """Hard-stop workers (error paths/tests); no report."""
        if self.transport == "inline":
            return
        self._collector_stop.set()
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)

    def _merge_reports(
        self,
        shard_metrics: List[MonitorMetrics],
        quarantines: List[list],
    ) -> "ShardedMonitorReport":
        merged = MonitorMetrics.merged(shard_metrics)
        merged.dropped_records += self._ingest_dropped + self.channel_dropped
        quarantine: List[Tuple[str, str]] = []
        for part in quarantines:
            for line, error in part:
                if len(quarantine) >= _QUARANTINE_SAMPLES:
                    break
                quarantine.append((line, error))
        return ShardedMonitorReport(
            metrics=merged,
            quarantine=quarantine,
            shard_metrics=shard_metrics,
            queue_depth_by_shard={
                index: list(samples)
                for index, samples in self._depth_samples.items()
            },
        )

    @property
    def channel_dropped(self) -> int:
        """Lines shed by ``drop``-policy dispatch channels."""
        if self.transport == "inline":
            return 0
        return sum(channel.dropped for channel in self._channels)

    # -- drivers -------------------------------------------------------

    def run_lines(self, lines: Iterable[str]) -> "ShardedMonitorReport":
        """Drive a finite stream to completion across the shards."""
        self.feed_lines(lines)
        return self.finish()

    def run_queue(
        self,
        queue: IngestQueue,
        *,
        heartbeat_s: Optional[float] = None,
        heartbeat_stream: Optional[IO[str]] = None,
        idle_wait_s: float = 0.5,
        checkpoint_dir: Optional[str] = None,
        checkpoint_period_s: float = 5.0,
    ) -> "ShardedMonitorReport":
        """Drain an :class:`IngestQueue` until its producers close it.

        The dispatcher loop mirrors :meth:`Monitor.run_queue`:
        heartbeats and periodic checkpoints on the same cadence, ticks
        so idle shards still sweep their TTLs, and the checkpointed EOF
        suspending instead of finishing.  The heartbeat line is
        dispatcher-side (routed counts and queue depth); per-shard
        metrics arrive with the final merged report.
        """
        dispatched = 0
        last_beat = time.monotonic()
        last_checkpoint = time.monotonic()
        while True:
            wait = idle_wait_s
            if heartbeat_s is not None:
                wait = min(wait, heartbeat_s)
            if checkpoint_dir is not None:
                wait = min(wait, checkpoint_period_s)
            batch = queue.get_batch(self.batch_size, timeout_s=wait)
            if batch is None:
                break
            if batch:
                dispatched += len(batch)
                for line in batch:
                    self.feed_line(line)
                self._sample_depths()
            # Tick even when idle: per-shard TTL sweeps must not wait
            # for traffic.
            self.flush()
            self._ingest_dropped = queue.dropped
            now = time.monotonic()
            if checkpoint_dir is not None:
                if now - last_checkpoint >= checkpoint_period_s:
                    last_checkpoint = now
                    self.checkpoint_to(checkpoint_dir)
            if heartbeat_s is not None and heartbeat_stream is not None:
                if now - last_beat >= heartbeat_s:
                    last_beat = now
                    print(
                        f"[monitor] shards={self.shards} "
                        f"dispatched={dispatched} "
                        f"queue={queue.depth()} "
                        f"shed={self.channel_dropped} "
                        f"dropped={queue.dropped}",
                        file=heartbeat_stream,
                        flush=True,
                    )
        self._ingest_dropped = queue.dropped
        if checkpoint_dir is not None:
            return self.suspend(checkpoint_dir)
        return self.finish()
