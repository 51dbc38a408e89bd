"""Monitor checkpoint/restore: crash-safe snapshots of the session table.

A long-running monitor accumulates state that is expensive to lose: the
residual formula of every live session (the whole point of online
checking -- a session observed for an hour cannot be re-observed), the
retired ring that distinguishes *late* records from *new* sessions, and
the run's metrics.  A checkpoint captures exactly that, in the artifact
container format (:mod:`repro.artifact.format`, ``QSRC`` magic) with
the artifact codec's re-interning payload encoding
(:mod:`repro.artifact.codec`) -- restored residuals land in the
process-wide hash-cons table, so a million structurally identical
restored sessions still intern to one node.

Discipline:

* **atomic**: :func:`save_checkpoint` writes tmp + fsync + rename, so a
  crash mid-write leaves the previous checkpoint intact, never a torn
  one;
* **quiescent**: a checkpoint is taken between processing rounds (the
  service flushes first), so there is no in-flight record to lose --
  the header's ``records_ingested`` is exact;
* **cumulative**: restored metrics are *baselines*, not resets -- a
  restored run's final report counts the whole logical stream, so
  ``kill -9`` + restore reports the same totals an uninterrupted run
  would;
* **rebased**: ``last_active`` clocks are rebased to the restoring
  process's clock (monotonic clocks do not survive a process), so the
  idle TTL measures observed idleness, not downtime.

The header is readable without decoding the payload
(:func:`read_checkpoint_header`), so an operator -- or the CI
kill-and-restore test -- can poll ``records_ingested`` to know exactly
how much of the stream a checkpoint covers.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional, Tuple

from ..artifact.codec import decode, encode
from ..artifact.errors import ArtifactFormatError
from ..artifact.format import CHECKPOINT_MAGIC, pack, sniff, unpack, write_atomic
from ..quickltl import Verdict
from .table import SessionEntry

__all__ = [
    "CHECKPOINT_FILENAME",
    "checkpoint_bytes",
    "checkpoint_path",
    "list_shard_checkpoints",
    "load_checkpoint_payload",
    "merge_snapshots",
    "prune_shard_checkpoints",
    "read_checkpoint_header",
    "restore_monitor",
    "restore_snapshot",
    "save_checkpoint",
    "save_shard_checkpoint",
    "shard_checkpoint_path",
    "snapshot_monitor",
]

#: The well-known filename inside a ``--checkpoint DIR``.
CHECKPOINT_FILENAME = "monitor.qsc"

#: Per-shard checkpoint files inside the same directory.
_SHARD_PATTERN = re.compile(r"^shard-(\d+)\.qsc$")

#: Counters that checkpoint and restore verbatim (the service-derived
#: ones -- intern/cache deltas and wall clock -- restore as *baselines*
#: instead, see :func:`restore_snapshot`).
_COUNTER_FIELDS = (
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
    "decode_hits",
    "decode_misses",
    "max_formula_size",
    "ticks",
)


def checkpoint_path(directory: str) -> str:
    """The checkpoint file inside ``directory``."""
    return os.path.join(directory, CHECKPOINT_FILENAME)


def shard_checkpoint_path(directory: str, index: int) -> str:
    """Shard ``index``'s checkpoint file inside ``directory``."""
    return os.path.join(directory, f"shard-{index:02d}.qsc")


def list_shard_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """``(shard_index, path)`` pairs present under ``directory``, sorted."""
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return found
    for name in names:
        match = _SHARD_PATTERN.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort()
    return found


def prune_shard_checkpoints(
    directory: str, keep: Tuple[int, ...] = ()
) -> None:
    """Delete shard checkpoint files not in ``keep``.

    Called only after a complete checkpoint round has been written:
    stale files from a previous (wider) shard layout -- or from a
    single-process run that later switched to sharded -- must not
    survive to poison a future restore.
    """
    for index, path in list_shard_checkpoints(directory):
        if index not in keep:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced by another pruner
                pass


def snapshot_monitor(monitor) -> dict:
    """The monitor's restorable state as a payload dict.

    The caller must have flushed: pending records are *not* captured
    (the service's drivers checkpoint only between rounds).
    """
    report = monitor.report()  # folds intern/cache deltas into metrics
    metrics = report.metrics
    return {
        "entries": [
            {
                "session_id": entry.session_id,
                "residual": entry.residual,
                "verdict": entry.verdict.name,
                "states_seen": entry.states_seen,
                "max_formula_size": entry.max_formula_size,
                "idle_s": max(0.0, monitor._clock() - entry.last_active),
            }
            for entry in monitor.table.live_sessions()
        ],
        "retired": list(monitor.table._retired.items()),
        "counters": {
            name: getattr(metrics, name) for name in _COUNTER_FIELDS
        },
        "verdicts": dict(metrics.verdicts),
        "queue_depth_samples": list(metrics.queue_depth_samples),
        "intern_hits": metrics.intern_hits,
        "intern_misses": metrics.intern_misses,
        "cache_evictions": metrics.cache_evictions,
        "cache_trims": metrics.cache_trims,
        "wall_s": metrics.wall_s,
        "quarantine": list(monitor._quarantine),
    }


def checkpoint_bytes(monitor, extra_header: Optional[dict] = None) -> bytes:
    """Serialize a flushed monitor to checkpoint container bytes."""
    snapshot = snapshot_monitor(monitor)
    header = {
        "format": "repro-monitor-checkpoint",
        "property": monitor.property_name,
        "records_ingested": snapshot["counters"]["records_ingested"],
        "sessions_live": len(snapshot["entries"]),
    }
    if extra_header:
        header.update(extra_header)
    return pack(header, encode(snapshot), magic=CHECKPOINT_MAGIC)


def save_checkpoint(monitor, directory: str) -> str:
    """Atomically write ``monitor``'s checkpoint under ``directory``.

    Returns the checkpoint path.  The directory is created on first
    use; the write is tmp + fsync + rename so readers (and crashes)
    only ever see a complete checkpoint.  Shard checkpoint files from a
    previous sharded run are pruned once the whole-monitor file is
    down: the single file now owns every session.
    """
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory)
    write_atomic(path, checkpoint_bytes(monitor))
    prune_shard_checkpoints(directory)
    return path


def save_shard_checkpoint(
    monitor, directory: str, index: int, shards: int
) -> str:
    """Atomically write one shard's checkpoint under ``directory``.

    The header carries ``{"shard": index, "shards": shards}`` so a
    restore can tell whether the on-disk layout matches the requested
    width (mismatches re-shard through the router instead).
    """
    os.makedirs(directory, exist_ok=True)
    path = shard_checkpoint_path(directory, index)
    write_atomic(
        path,
        checkpoint_bytes(monitor, {"shard": index, "shards": shards}),
    )
    return path


def read_checkpoint_header(path: str) -> dict:
    """The checkpoint's JSON header, without decoding the payload.

    This is the cheap liveness probe: ``records_ingested`` says exactly
    how much of the stream the checkpoint covers.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    from ..artifact.format import read_header

    _version, header, _offset = read_header(data, magic=CHECKPOINT_MAGIC)
    return header


def load_checkpoint_payload(path: str) -> Tuple[dict, dict]:
    """Read one checkpoint file: ``(header, decoded_snapshot)``.

    Raises on a missing, foreign or torn file, like
    :func:`restore_monitor` -- a restore must never silently start
    empty.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not sniff(data, magic=CHECKPOINT_MAGIC):
        raise ArtifactFormatError(f"{path} is not a monitor checkpoint")
    header, payload = unpack(data, magic=CHECKPOINT_MAGIC)
    return header, decode(payload)


def merge_snapshots(parts: List[dict]) -> dict:
    """Fold per-shard snapshots into one whole-monitor snapshot.

    Sessions are disjoint across shards (the router partitions by id),
    so entries and retired rings concatenate; counters and verdict
    tallies sum; ``wall_s`` and ``max_formula_size`` take the max;
    quarantine samples concatenate (the restoring monitor re-caps).
    """
    merged: dict = {
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
    for part in parts:
        merged["entries"].extend(part["entries"])
        merged["retired"].extend(part["retired"])
        for name, value in part["counters"].items():
            if name in ("max_formula_size",):
                if value > merged["counters"][name]:
                    merged["counters"][name] = value
            else:
                merged["counters"][name] = merged["counters"].get(name, 0) + value
        for label, count in part["verdicts"].items():
            merged["verdicts"][label] = merged["verdicts"].get(label, 0) + count
        merged["queue_depth_samples"].extend(part["queue_depth_samples"])
        for name in ("intern_hits", "intern_misses",
                     "cache_evictions", "cache_trims"):
            merged[name] += part[name]
        if part["wall_s"] > merged["wall_s"]:
            merged["wall_s"] = part["wall_s"]
        merged["quarantine"].extend(part["quarantine"])
    return merged


def restore_snapshot(monitor, snapshot: dict, header: dict) -> None:
    """Load a decoded snapshot into a freshly constructed monitor.

    The monitor must be new (same spec, empty table); restored state
    *replaces* its table and rebases its metrics:

    * live sessions re-enter the table with their residuals (already
      re-interned by the codec) and their observed idle time, measured
      against the restoring clock -- downtime does not count as idle;
    * counters restore verbatim; intern/cache deltas and wall clock
      restore as baselines the new process's deltas add to, so the
      final report covers the whole logical stream.
    """
    expected = monitor.property_name
    if header.get("property") not in (None, expected):
        raise ArtifactFormatError(
            f"checkpoint is for property {header.get('property')!r}, "
            f"monitor checks {expected!r}"
        )
    now = monitor._clock()
    for item in snapshot["entries"]:
        entry = SessionEntry(
            session_id=item["session_id"],
            residual=item["residual"],
            verdict=Verdict[item["verdict"]],
            states_seen=item["states_seen"],
            max_formula_size=item["max_formula_size"],
            last_active=now - item.get("idle_s", 0.0),
        )
        monitor.table._entries[entry.session_id] = entry
    for session_id, reason in snapshot["retired"]:
        monitor.table._remember(session_id, reason)
    metrics = monitor.metrics
    for name, value in snapshot["counters"].items():
        setattr(metrics, name, value)
    metrics.verdicts.update(snapshot["verdicts"])
    metrics.queue_depth_samples.extend(snapshot["queue_depth_samples"])
    metrics.sessions_live = len(monitor.table)
    # Deltas measured against process-wide tables restart at zero in a
    # new process; fold the checkpointed totals in as baselines.
    monitor._intern_base_hits = snapshot["intern_hits"]
    monitor._intern_base_misses = snapshot["intern_misses"]
    monitor._cache_base_evictions = snapshot["cache_evictions"]
    monitor._cache_base_trims = snapshot["cache_trims"]
    monitor._started = now - snapshot["wall_s"]
    # The batcher's counters are the metrics' source of truth for
    # states_applied/cohort_steps on the next round; seed them.
    monitor.batcher.session_steps = snapshot["counters"]["states_applied"]
    monitor.batcher.cohort_steps = snapshot["counters"]["cohort_steps"]
    from .service import _QUARANTINE_SAMPLES

    for line, error in snapshot["quarantine"]:
        if len(monitor._quarantine) >= _QUARANTINE_SAMPLES:
            break
        monitor._quarantine.append((line, error))


def restore_monitor(monitor, directory: str) -> dict:
    """Restore ``monitor`` from the checkpoint under ``directory``.

    Returns the checkpoint header.  Raises
    :class:`~repro.artifact.ArtifactFormatError` /
    :class:`~repro.artifact.ArtifactCorruptError` on a missing, foreign
    or torn file -- a restore must never silently start empty.

    When ``monitor.qsc`` is absent but per-shard files exist (the
    directory was last written by a sharded run), the shard snapshots
    merge into one whole-monitor restore -- switching between sharded
    and single-process across a restart is always legal.
    """
    path = checkpoint_path(directory)
    if not os.path.exists(path):
        shard_files = list_shard_checkpoints(directory)
        if shard_files:
            headers: List[dict] = []
            snapshots: List[dict] = []
            for _index, shard_path in shard_files:
                header, snapshot = load_checkpoint_payload(shard_path)
                headers.append(header)
                snapshots.append(snapshot)
            merged = merge_snapshots(snapshots)
            restore_snapshot(monitor, merged, headers[0])
            return {
                "format": "repro-monitor-checkpoint",
                "property": headers[0].get("property"),
                "records_ingested": merged["counters"]["records_ingested"],
                "sessions_live": len(merged["entries"]),
                "shards": len(shard_files),
            }
    with open(path, "rb") as handle:
        data = handle.read()
    if not sniff(data, magic=CHECKPOINT_MAGIC):
        raise ArtifactFormatError(f"{path} is not a monitor checkpoint")
    header, payload = unpack(data, magic=CHECKPOINT_MAGIC)
    restore_snapshot(monitor, decode(payload), header)
    return header
