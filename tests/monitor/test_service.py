"""Monitor end-to-end: lifecycles, eviction, EOF, quarantine, errors."""

import pytest

from repro.monitor import records
from repro.monitor.records import trace_records
from repro.monitor.replay import interleave_sessions, monitor_verdicts
from repro.monitor.service import Monitor
from repro.monitor.synth import _countdown, synth_traces
from repro.quickltl import Always, Atom
from repro.specs import spec_path
from repro.specstrom import load_module_file
from repro.specstrom.module import CheckSpec


@pytest.fixture(scope="module")
def safety():
    return load_module_file(spec_path("eggtimer.strom")).check_named("safety")


def collect(check, **kwargs):
    """A monitor plus the list its verdicts land in."""
    verdicts = []
    monitor = Monitor(check, on_verdict=verdicts.append, **kwargs)
    return monitor, verdicts


def atom_check(formula):
    """Wrap a bare formula as a minimal CheckSpec."""
    return CheckSpec(
        name="synthetic", formula=formula, actions=[], events=[],
        dependencies=frozenset(),
    )


class TestLifecycles:
    def test_definitive_mid_stream_then_late_records(self, safety):
        monitor, verdicts = collect(safety)
        faulty = _countdown(3, fault_at=2)
        for line in trace_records("f", faulty, end=False):
            monitor.feed_line(line)
        monitor.flush()
        assert [v.disposition for v in verdicts] == ["definitive"]
        assert verdicts[0].verdict == "DEFINITELY_FALSE"
        assert not verdicts[0].forced
        # Anything after the resolution is late: counted, never applied.
        for line in trace_records("f", _countdown(3), end=True):
            monitor.feed_line(line)
        report = monitor.finish()
        assert len(verdicts) == 1
        assert report.metrics.late_records == len(_countdown(3)) + 1
        assert report.metrics.verdicts == {"DEFINITELY_FALSE": 1}

    def test_end_record_forces_demanding_residual(self, safety):
        monitor, verdicts = collect(safety)
        monitor.run_lines(trace_records("h", _countdown(3), end=True))
        (verdict,) = verdicts
        assert verdict.disposition == "ended"
        assert verdict.verdict == "PROBABLY_TRUE"
        assert verdict.forced
        assert verdict.states == len(_countdown(3))

    def test_batched_and_unbatched_verdicts_agree(self, safety):
        traces, _ = synth_traces(seed=3, sessions=12, fault_rate=0.3)
        batched = monitor_verdicts(safety, traces, batch=True)
        naive = monitor_verdicts(safety, traces, batch=False)
        def as_pairs(vs):
            return {
                sid: (v.verdict, v.forced, v.disposition)
                for sid, v in vs.items()
            }

        assert as_pairs(batched) == as_pairs(naive)

    def test_interleaving_does_not_change_verdicts(self, safety):
        traces, _ = synth_traces(seed=5, sessions=9, fault_rate=0.4)
        encoded = {
            sid: trace_records(sid, trace) for sid, trace in traces.items()
        }
        interleaved = monitor_verdicts(safety, traces)
        monitor, verdicts = collect(safety)
        # Sequential schedule: each session completes before the next.
        monitor.run_lines(
            line for lines in encoded.values() for line in lines
        )
        sequential = {v.session_id: v for v in verdicts}
        assert {s: v.verdict for s, v in sequential.items()} == {
            s: v.verdict for s, v in interleaved.items()
        }


class TestEviction:
    def test_lru_cap_bounds_live_sessions(self, safety):
        cap = 8
        monitor, verdicts = collect(
            safety, max_sessions=cap, batch_size=1
        )
        traces, _ = synth_traces(seed=0, sessions=50, fault_rate=0.0)
        encoded = {
            sid: trace_records(sid, trace, end=False)
            for sid, trace in traces.items()
        }
        for line in interleave_sessions(encoded):
            monitor.feed_line(line)
            assert len(monitor.table) <= cap
        report = monitor.finish()
        metrics = report.metrics
        assert metrics.sessions_started == 50
        assert metrics.evicted_lru == 42
        assert metrics.sessions_live == 0
        # Every session gets an explicit disposition, never silence.
        assert len(verdicts) == 50
        assert metrics.verdicts == {"inconclusive": 50}
        evicted = [v for v in verdicts if v.reason == "evicted:lru"]
        assert len(evicted) == 42
        assert all(v.disposition == "inconclusive" for v in evicted)

    def test_idle_ttl_evicts_with_injected_clock(self, safety):
        now = [0.0]
        monitor, verdicts = collect(
            safety, idle_ttl_s=30.0, clock=lambda: now[0]
        )
        quiet, chatty = _countdown(3), _countdown(4, pause_after=2)
        monitor.feed_line(trace_records("quiet", quiet[:2], end=False)[0])
        monitor.flush()
        now[0] = 20.0
        monitor.feed_line(trace_records("chatty", chatty[:2], end=False)[0])
        monitor.flush()
        assert verdicts == []
        now[0] = 35.0  # quiet idle for 35s, chatty for 15s
        monitor.flush()
        assert [v.session_id for v in verdicts] == ["quiet"]
        assert verdicts[0].disposition == "inconclusive"
        assert verdicts[0].reason == "evicted:idle"
        assert monitor.metrics.evicted_idle == 1
        assert "chatty" in monitor.table


class TestEof:
    def test_eof_defaults_to_inconclusive(self, safety):
        monitor, verdicts = collect(safety)
        report = monitor.run_lines(
            trace_records("h", _countdown(3), end=False)
        )
        (verdict,) = verdicts
        assert verdict.disposition == "inconclusive"
        assert verdict.reason == "eof"
        assert verdict.verdict is None
        assert report.metrics.verdicts == {"inconclusive": 1}

    def test_resolve_at_eof_forces_like_an_end_record(self, safety):
        monitor, verdicts = collect(safety, resolve_at_eof=True)
        monitor.run_lines(trace_records("h", _countdown(3), end=False))
        (verdict,) = verdicts
        assert verdict.disposition == "ended"
        assert verdict.reason == "eof"
        assert verdict.verdict == "PROBABLY_TRUE"
        assert verdict.forced

    def test_finish_is_idempotent(self, safety):
        monitor, verdicts = collect(safety)
        monitor.run_lines(trace_records("h", _countdown(2), end=True))
        monitor.finish()
        assert len(verdicts) == 1

    def test_late_record_after_eof_is_attributed_to_eof(self, safety):
        # An EOF-inconclusive session was never "finished"; the retired
        # ring must say "eof" so a record trickling in afterwards is a
        # late record of an EOF-drained session, not of a completed one.
        monitor, verdicts = collect(safety)
        monitor.run_lines(trace_records("h", _countdown(3), end=False))
        assert verdicts[0].disposition == "inconclusive"
        assert monitor.table.retired_reason("h") == "eof"
        late = trace_records("h", _countdown(1), end=False)[0]
        monitor.feed_line(late)
        monitor.flush()
        assert monitor.metrics.late_records == 1
        assert len(verdicts) == 1  # late record resurrects nothing


class TestQuarantine:
    def test_malformed_lines_quarantine_and_fail_ok(self, safety):
        monitor, verdicts = collect(safety)
        lines = list(trace_records("h", _countdown(2), end=True))
        lines.insert(1, "{torn json")
        lines.insert(3, '{"state": {}}')
        report = monitor.run_lines(lines)
        assert not report.ok
        assert report.metrics.malformed_records == 2
        assert [line for line, _err in report.quarantine] == [
            "{torn json", '{"state": {}}'
        ]
        # The well-formed frames around the garbage still progress.
        assert [v.verdict for v in verdicts] == ["PROBABLY_TRUE"]

    def test_hostile_nesting_is_quarantined_not_fatal(self, safety):
        """Regression: a line nested deeper than ``json.loads`` can
        recurse used to escape ``feed_line`` as a RecursionError and
        take every live session down with it."""
        monitor, verdicts = collect(safety)
        lines = list(trace_records("h", _countdown(2), end=True))
        lines.insert(1, "[" * 100_000)
        lines.insert(2, '{"session": "h", "state": ' + "[" * 100_000)
        report = monitor.run_lines(lines)
        assert report.metrics.malformed_records == 2
        assert all("invalid JSON" in error
                   for _line, error in report.quarantine)
        assert [v.verdict for v in verdicts] == ["PROBABLY_TRUE"]

    def test_quarantine_samples_are_capped(self, safety):
        monitor, _ = collect(safety)
        report = monitor.run_lines("garbage" for _ in range(30))
        assert report.metrics.malformed_records == 30
        assert len(report.quarantine) == 20


class TestErrors:
    def test_progression_error_quarantines_only_that_session(self):
        def reads_x(state):
            return state.queries["#x"][0].text == "on"

        check = atom_check(Always(5, Atom("reads-x", reads_x)))
        monitor, verdicts = collect(check)
        from repro.monitor.synth import timer_state
        from repro.specstrom.state import ElementSnapshot, StateSnapshot
        with_x = StateSnapshot(
            queries={"#x": (ElementSnapshot(tag="i", text="on"),)},
        )
        without_x = timer_state(3, False, ("loaded?",))  # no "#x" selector
        lines = list(interleave_sessions({
            "good": trace_records("good", [with_x, with_x]),
            "bad": trace_records("bad", [without_x]),
        }))
        report = monitor.run_lines(lines)
        by_session = {v.session_id: v for v in verdicts}
        assert by_session["bad"].disposition == "error"
        assert "KeyError" in by_session["bad"].reason
        assert by_session["good"].disposition == "ended"
        assert by_session["good"].verdict == "PROBABLY_TRUE"
        assert report.metrics.sessions_errored == 1
        assert not report.ok


class TestBoundedCaches:
    def test_long_stream_stays_within_cache_bound(self, safety):
        """Satellite regression: a tiny cache cap over a long stream must
        trim (counted) without changing any verdict."""
        traces, faulty = synth_traces(seed=11, sessions=120, fault_rate=0.25)
        monitor, verdicts = collect(safety, cache_entries=32)
        encoded = {
            sid: trace_records(sid, trace) for sid, trace in traces.items()
        }
        report = monitor.run_lines(interleave_sessions(encoded))
        assert report.metrics.cache_trims > 0
        assert report.metrics.cache_evictions > 0
        bounded = {v.session_id: v for v in verdicts}
        unbounded = monitor_verdicts(safety, traces)
        assert {s: v.verdict for s, v in bounded.items()} == {
            s: v.verdict for s, v in unbounded.items()
        }
        for session, is_faulty in faulty.items():
            expected = "DEFINITELY_FALSE" if is_faulty else "PROBABLY_TRUE"
            assert bounded[session].verdict == expected


class TestReport:
    def test_report_surfaces_sharing_and_intern_deltas(self, safety):
        traces, _ = synth_traces(seed=2, sessions=30, fault_rate=0.0)
        monitor, _ = collect(safety)
        encoded = {
            sid: trace_records(sid, trace) for sid, trace in traces.items()
        }
        report = monitor.run_lines(interleave_sessions(encoded))
        metrics = report.metrics
        assert report.ok
        assert metrics.sessions_finished == 30
        # 30 sessions over a 3-trajectory palette: heavy cohort sharing.
        assert metrics.sharing_ratio > 0.8
        assert metrics.cohort_steps < metrics.states_applied
        payload = report.to_dict()
        assert payload["event"] == "monitor_end"
        assert payload["metrics"]["verdicts"] == {"PROBABLY_TRUE": 30}

    def test_decode_counters_cover_every_state_record(
        self, safety, monkeypatch
    ):
        # Start from an empty decoded-state table, so that neither
        # earlier tests nor a clear mid-run can move the cold/warm split.
        monkeypatch.setattr(records, "_decoded", {})
        monkeypatch.setattr(records, "_decoded_chars", 0)
        traces, _ = synth_traces(seed=2, sessions=30, fault_rate=0.0)
        lines = list(interleave_sessions({
            sid: trace_records(sid, trace) for sid, trace in traces.items()
        }))
        states = sum(len(trace) for trace in traces.values())
        cold = Monitor(safety).run_lines(lines).metrics
        assert cold.decode_hits + cold.decode_misses == states
        assert cold.decode_misses == len(records._decoded)
        # The table is process-wide: the same states again are all hits.
        warm = Monitor(safety).run_lines(lines).metrics
        assert (warm.decode_hits, warm.decode_misses) == (states, 0)
        payload = warm.to_dict()
        assert payload["decode_hits"] == states
        assert payload["decode_misses"] == 0
        assert f"decode_hits={states} decode_misses=0" in warm.heartbeat_line()

    def test_heartbeat_reports_live_decode_counters(self, safety):
        import io
        import re

        from repro.monitor.ingest import IngestQueue

        states = _countdown(3)
        queue = IngestQueue()
        for line in trace_records("h", states, end=True):
            queue.put(line)
        queue.close()
        stream = io.StringIO()
        Monitor(safety).run_queue(queue, heartbeat_s=0.0,
                                  heartbeat_stream=stream)
        beat = stream.getvalue().splitlines()[-1]
        hits, misses = map(int, re.search(
            r"decode_hits=(\d+) decode_misses=(\d+)", beat).groups())
        assert hits + misses == len(states)
