"""The monitor service: residual-per-session progression over a stream.

:class:`Monitor` is the online twin of the offline
:class:`~repro.quickltl.FormulaChecker`: where the checker drives one
session to a verdict, the monitor multiplexes *many* concurrent
sessions through one shared :class:`~repro.checker.compiled.CompiledProperty`
-- same formula, same progression semantics, same forced-verdict
polarity rule, so replaying any recorded trace through the monitor
yields exactly the offline verdict (asserted by ``tests/monitor`` and
the fuzzer's fifth leg).

Processing is organised in *rounds*: each flush claims at most one
pending record per session (preserving per-session order across
rounds), hands the round to the :class:`~repro.monitor.batch.BatchProgressor`
(same-(residual, state) cohorts cost one progression step), applies the
outcomes, then sweeps the idle TTL.  Sessions resolve by:

* a **definitive** verdict mid-stream (``top``/``bottom`` residual),
* an **end record** (final presumptive verdict; a still-demanding
  residual is *forced* by the polarity rule, exactly like a finished
  test whose budget ran out),
* **eviction** (LRU capacity or idle TTL) -- an explicit
  ``inconclusive`` disposition, never silence,
* a **progression error** (e.g. a state missing a selector the formula
  reads) -- an ``error`` disposition quarantining that session only,
* **stream EOF** -- remaining sessions are ``inconclusive`` by default,
  or force-resolved with ``resolve_at_eof=True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, IO, Iterable, List, Optional, Tuple

from ..checker.compiled import CompiledProperty
from ..quickltl import ProgressionCaches, Verdict, force_verdict, intern_delta
from ..specstrom.module import CheckSpec
from .batch import BatchProgressor
from .ingest import IngestQueue
from .metrics import MonitorMetrics
from .records import MonitorRecord, RecordError, parse_record
from .table import SessionEntry, SessionTable

__all__ = ["SessionVerdict", "MonitorReport", "Monitor"]

#: How many quarantined lines are kept verbatim for the report.
_QUARANTINE_SAMPLES = 20


@dataclass(frozen=True)
class SessionVerdict:
    """The final disposition of one session."""

    session_id: str
    #: Verdict name (``Verdict.<name>``), or None for inconclusive/error.
    verdict: Optional[str]
    #: Was a demanding residual resolved by the polarity rule?
    forced: bool
    #: "definitive" | "ended" | "inconclusive" | "error"
    disposition: str
    #: Machine-readable detail: "", "evicted:lru", "evicted:idle", "eof",
    #: or the progression error text.
    reason: str
    #: States this session observed before resolving.
    states: int

    def to_dict(self) -> dict:
        return {
            "event": "verdict",
            "session": self.session_id,
            "verdict": self.verdict,
            "forced": self.forced,
            "disposition": self.disposition,
            "reason": self.reason,
            "states": self.states,
        }


@dataclass
class MonitorReport:
    """What a finished monitor run reports."""

    metrics: MonitorMetrics
    #: Up to ``_QUARANTINE_SAMPLES`` ``(line, error)`` pairs, verbatim.
    quarantine: List[Tuple[str, str]]

    @property
    def ok(self) -> bool:
        """No malformed input, no dropped input, no errored sessions."""
        return not (
            self.metrics.malformed_records
            or self.metrics.dropped_records
            or self.metrics.sessions_errored
        )

    def to_dict(self) -> dict:
        return {
            "event": "monitor_end",
            "ok": self.ok,
            "metrics": self.metrics.to_dict(),
            "quarantine": [
                {"line": line[:200], "error": error}
                for line, error in self.quarantine
            ],
        }


class Monitor:
    """Streams concurrent sessions through one compiled spec."""

    def __init__(
        self,
        check: CheckSpec,
        *,
        max_sessions: Optional[int] = None,
        idle_ttl_s: Optional[float] = None,
        batch: bool = True,
        batch_size: int = 4096,
        cache_entries: Optional[int] = None,
        resolve_at_eof: bool = False,
        on_verdict: Optional[Callable[[SessionVerdict], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        compiled: Optional[CompiledProperty] = None,
    ) -> None:
        if compiled is not None and cache_entries is None:
            # An artifact-shipped property: reuse its pre-seeded caches
            # instead of re-elaborating (the shard-worker path).
            self.compiled = compiled
        else:
            caches = (
                ProgressionCaches(max_entries=cache_entries)
                if cache_entries is not None
                else None
            )
            self.compiled = CompiledProperty(check, caches=caches)
        self.formula = check.formula
        self.property_name = check.name
        self.table = SessionTable(
            max_sessions=max_sessions, idle_ttl_s=idle_ttl_s
        )
        self.batcher = BatchProgressor(self.compiled.caches, enabled=batch)
        self.metrics = MonitorMetrics()
        self.batch_size = max(1, batch_size)
        self.resolve_at_eof = resolve_at_eof
        self.on_verdict = on_verdict
        self._clock = clock
        self._started = clock()
        self._pending: List[MonitorRecord] = []
        self._quarantine: List[Tuple[str, str]] = []
        self._intern = intern_delta()
        self._finished = False
        # Checkpoint-restore baselines: deltas measured against
        # process-wide tables (intern, caches) and the process clock
        # restart at zero after a restore; report() adds these so the
        # final report covers the whole logical stream.
        self._intern_base_hits = 0
        self._intern_base_misses = 0
        self._cache_base_evictions = 0
        self._cache_base_trims = 0

    # -- feeding -------------------------------------------------------

    def feed_line(self, line: str) -> None:
        """Ingest one wire line; malformed input is quarantined."""
        try:
            record = parse_record(line)
        except RecordError as error:
            self.metrics.malformed_records += 1
            if len(self._quarantine) < _QUARANTINE_SAMPLES:
                self._quarantine.append((line.strip(), str(error)))
            return
        if record is not None:
            if record.state is not None:
                if record.table_hit:
                    self.metrics.decode_hits += 1
                else:
                    self.metrics.decode_misses += 1
            self.feed_record(record)

    def feed_record(self, record: MonitorRecord) -> None:
        self.metrics.records_ingested += 1
        self._pending.append(record)
        if len(self._pending) >= self.batch_size:
            self.flush()

    # -- processing ----------------------------------------------------

    def flush(self) -> None:
        """Process every pending record in session-ordered rounds."""
        pending = self._pending
        self._pending = []
        while pending:
            self.metrics.ticks += 1
            round_records: List[MonitorRecord] = []
            leftovers: List[MonitorRecord] = []
            claimed = set()
            for record in pending:
                if record.session_id in claimed:
                    leftovers.append(record)
                else:
                    claimed.add(record.session_id)
                    round_records.append(record)
            self._apply_round(round_records)
            pending = leftovers
        self._sweep_idle()
        self.metrics.sessions_live = len(self.table)

    def _apply_round(self, records: List[MonitorRecord]) -> None:
        now = self._clock()
        work: List[Tuple[SessionEntry, object, str]] = []
        for record in records:
            entry = self.table.get(record.session_id)
            if entry is None:
                if self.table.retired_reason(record.session_id) is not None:
                    # Late: the session already resolved (or was evicted).
                    self.metrics.late_records += 1
                    continue
                entry = self._open_session(record.session_id, now)
            else:
                self.table.touch(entry, now)
            if record.end:
                self._resolve_end(entry, reason="")
            else:
                work.append((entry, record.state, record.state_key))
        if not work:
            return
        outcomes = self.batcher.run_round(work)
        self.metrics.states_applied = self.batcher.session_steps
        self.metrics.cohort_steps = self.batcher.cohort_steps
        for (entry, _state, _key), outcome in zip(work, outcomes):
            if self.table.get(entry.session_id) is not entry:
                # Evicted mid-round by a later arrival's LRU overflow;
                # its inconclusive disposition is already out.
                continue
            if outcome.error is not None:
                self._emit(SessionVerdict(
                    session_id=entry.session_id,
                    verdict=None,
                    forced=False,
                    disposition="error",
                    reason=outcome.error,
                    states=entry.states_seen,
                ))
                self.metrics.sessions_errored += 1
                self.metrics.record_verdict("error")
                self.table.retire(entry.session_id, "error")
                continue
            entry.states_seen += 1
            entry.verdict = outcome.verdict
            entry.residual = outcome.residual
            if outcome.size > entry.max_formula_size:
                entry.max_formula_size = outcome.size
            if outcome.size > self.metrics.max_formula_size:
                self.metrics.max_formula_size = outcome.size
            if outcome.verdict.is_definitive:
                self._emit(SessionVerdict(
                    session_id=entry.session_id,
                    verdict=outcome.verdict.name,
                    forced=False,
                    disposition="definitive",
                    reason="",
                    states=entry.states_seen,
                ))
                self.metrics.sessions_finished += 1
                self.metrics.record_verdict(outcome.verdict.name)
                self.table.retire(entry.session_id, "finished")

    def _open_session(self, session_id: str, now: float) -> SessionEntry:
        entry, evicted = self.table.open(session_id, self.formula, now)
        self.metrics.sessions_started += 1
        for victim in evicted:
            self._emit_eviction(victim, "evicted:lru")
            self.metrics.evicted_lru += 1
        return entry

    def _resolve_end(self, entry: SessionEntry, reason: str) -> None:
        verdict = entry.verdict
        forced = False
        if verdict is Verdict.DEMAND:
            # Exactly the offline checker's budget-exhausted resolution.
            verdict = force_verdict(entry.residual)
            forced = True
        self._emit(SessionVerdict(
            session_id=entry.session_id,
            verdict=verdict.name,
            forced=forced,
            disposition="ended",
            reason=reason,
            states=entry.states_seen,
        ))
        self.metrics.sessions_finished += 1
        self.metrics.record_verdict(verdict.name)
        self.table.retire(entry.session_id, "finished")

    def _sweep_idle(self) -> None:
        for victim in self.table.sweep_idle(self._clock()):
            self._emit_eviction(victim, "evicted:idle")
            self.metrics.evicted_idle += 1

    def _emit_eviction(self, entry: SessionEntry, reason: str) -> None:
        self._emit(SessionVerdict(
            session_id=entry.session_id,
            verdict=None,
            forced=False,
            disposition="inconclusive",
            reason=reason,
            states=entry.states_seen,
        ))
        self.metrics.sessions_evicted += 1
        self.metrics.record_verdict("inconclusive")

    def _emit(self, verdict: SessionVerdict) -> None:
        if self.on_verdict is not None:
            self.on_verdict(verdict)

    # -- checkpointing -------------------------------------------------

    def checkpoint_to(self, directory: str) -> str:
        """Flush, then atomically snapshot this monitor's state under
        ``directory`` (see :mod:`repro.monitor.checkpoint`).

        Returns the checkpoint path.  Safe to call on any cadence: the
        flush makes the snapshot quiescent, the write is atomic, and a
        crash mid-write leaves the previous checkpoint intact.
        """
        from .checkpoint import save_checkpoint

        self.flush()
        return save_checkpoint(self, directory)

    def restore_from(self, directory: str) -> dict:
        """Resume from the checkpoint under ``directory``.

        Must be called on a *fresh* monitor for the same property:
        live sessions re-enter the table with their residuals, the
        retired ring still recognises late records, and metrics resume
        cumulatively -- the eventual report counts the whole logical
        stream, as if the process had never died.  Returns the
        checkpoint header.
        """
        from .checkpoint import restore_monitor

        return restore_monitor(self, directory)

    # -- finishing -----------------------------------------------------

    def suspend(self, checkpoint_dir: Optional[str] = None) -> MonitorReport:
        """Report without draining: open sessions stay open.

        The checkpoint-enabled EOF path -- open sessions were just
        checkpointed, so resolving them ``inconclusive`` would be a
        lie; a later ``--restore`` run picks them up instead.  Passing
        ``checkpoint_dir`` saves a final checkpoint before reporting
        (the same shape :class:`~repro.monitor.shard.ShardedMonitor`
        exposes, so drivers treat both uniformly).
        """
        self.flush()
        if checkpoint_dir is not None:
            from .checkpoint import save_checkpoint

            save_checkpoint(self, checkpoint_dir)
        self.metrics.sessions_live = len(self.table)
        return self.report()

    def finish(self) -> MonitorReport:
        """Flush, resolve/discard remaining sessions, freeze metrics."""
        if self._finished:
            return self.report()
        self._finished = True
        self.flush()
        for entry in self.table.drain():
            if self.resolve_at_eof:
                self._resolve_end(entry, reason="eof")
            else:
                self._emit(SessionVerdict(
                    session_id=entry.session_id,
                    verdict=None,
                    forced=False,
                    disposition="inconclusive",
                    reason="eof",
                    states=entry.states_seen,
                ))
                self.metrics.record_verdict("inconclusive")
        self.metrics.sessions_live = 0
        return self.report()

    def report(self) -> MonitorReport:
        """The current report (finalised counters, live or finished)."""
        metrics = self.metrics
        metrics.wall_s = max(0.0, self._clock() - self._started)
        metrics.intern_hits = self._intern_base_hits + self._intern.hits
        metrics.intern_misses = (
            self._intern_base_misses + self._intern.misses
        )
        metrics.cache_evictions = (
            self._cache_base_evictions + self.compiled.caches.evicted_entries
        )
        metrics.cache_trims = (
            self._cache_base_trims + self.compiled.caches.trims
        )
        return MonitorReport(
            metrics=metrics, quarantine=list(self._quarantine)
        )

    # -- drivers -------------------------------------------------------

    def run_lines(self, lines: Iterable[str]) -> MonitorReport:
        """Drive a finite in-memory/file stream to completion."""
        for line in lines:
            self.feed_line(line)
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
    ) -> MonitorReport:
        """Drain an :class:`IngestQueue` until its producers close it.

        ``heartbeat_s`` emits :meth:`MonitorMetrics.heartbeat_line` to
        ``heartbeat_stream`` on that period; the idle wait bounds how
        long a quiet stream can defer TTL sweeps and heartbeats.

        ``checkpoint_dir`` snapshots the monitor there every
        ``checkpoint_period_s`` (between drains, so every checkpoint is
        quiescent) and once more at EOF -- and switches EOF from
        :meth:`finish` to :meth:`suspend`: open sessions live on in the
        final checkpoint instead of resolving ``inconclusive``, so a
        ``--restore`` run continues them seamlessly.
        """
        from .checkpoint import save_checkpoint

        last_beat = self._clock()
        last_checkpoint = self._clock()
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
                self.metrics.sample_queue_depth(queue.depth() + len(batch))
                for line in batch:
                    self.feed_line(line)
            # Flush even when idle: TTL evictions must not wait for
            # traffic.
            self.flush()
            self.metrics.dropped_records = queue.dropped
            if checkpoint_dir is not None:
                now = self._clock()
                if now - last_checkpoint >= checkpoint_period_s:
                    last_checkpoint = now
                    save_checkpoint(self, checkpoint_dir)
            if heartbeat_s is not None and heartbeat_stream is not None:
                now = self._clock()
                if now - last_beat >= heartbeat_s:
                    last_beat = now
                    print(
                        self.report().metrics.heartbeat_line(queue.depth()),
                        file=heartbeat_stream,
                        flush=True,
                    )
        self.metrics.dropped_records = queue.dropped
        if checkpoint_dir is not None:
            return self.suspend(checkpoint_dir)
        return self.finish()
