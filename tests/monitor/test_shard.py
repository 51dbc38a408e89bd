"""The sharded monitor: routing, equivalence, merge, checkpoint layouts."""

import collections
import json
import multiprocessing
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.artifact.resolver import SpecResolver
from repro.monitor.checkpoint import (
    checkpoint_path,
    list_shard_checkpoints,
    merge_snapshots,
    prune_shard_checkpoints,
    shard_checkpoint_path,
)
from repro.monitor.records import RecordError, parse_record
from repro.monitor.replay import monitor_verdicts
from repro.monitor.service import Monitor
from repro.monitor.shard import (
    ShardChannel,
    ShardRouter,
    ShardedMonitor,
    peek_session_id,
    split_snapshot,
)
from repro.monitor.synth import synth_lines, synth_traces
from repro.specs import spec_path
from tests.strategies import examples


@pytest.fixture(scope="module")
def bundle():
    return SpecResolver().load(spec_path("eggtimer.strom"))


@pytest.fixture(scope="module")
def safety(bundle):
    return bundle.check_named("safety")


def verdict_multiset(verdicts):
    return collections.Counter(
        (v.verdict, v.forced, v.disposition, v.reason) for v in verdicts
    )


def run_single(check, lines):
    verdicts = []
    monitor = Monitor(check, on_verdict=verdicts.append)
    report = monitor.run_lines(lines)
    return verdicts, report


def run_sharded(spec, lines, shards, transport, **kwargs):
    verdicts = []
    monitor = ShardedMonitor(
        spec, shards=shards, property_name="safety", transport=transport,
        on_verdict=verdicts.append, **kwargs
    )
    report = monitor.run_lines(lines)
    return verdicts, report


_SPACE = st.sampled_from(["", " ", "\n", "\t "])
_SESSION_KEYS = st.sampled_from(
    ['"session"', '"\\u0073ession"', '"sessio\\u006e"', '"Session"']
)
_IDS = st.one_of(
    st.text(alphabet='ab"\\{}[]:, \u00e9', max_size=4),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([True, 1.5, None, [], {}]),
)
_NESTED = st.sampled_from([
    '{"queries":{}}',
    '{"queries":{"#x":[{"tag":"session"}]}}',
    '{"session":"nested"}',
    '{"queries":{"session":[]},"happened":["session"]}',
    '{"queries":{"#y":[{"tag":"i","text":"{[\\"session\\":"}]}}',
])


@st.composite
def _session_lines(draw):
    """Wire lines with duplicate, escaped and nested session keys, every
    id type and arbitrary spacing -- most of them still accepted."""
    members = []
    for key in draw(st.lists(_SESSION_KEYS, min_size=1, max_size=3)):
        members.append((key, json.dumps(draw(_IDS),
                                         ensure_ascii=draw(st.booleans()))))
    if draw(st.booleans()):
        members.append(('"end"', "true"))
    else:
        members.append(('"state"', draw(_NESTED)))
    members = draw(st.permutations(members))

    def space():
        return draw(_SPACE)

    body = ",".join(
        f"{space()}{key}{space()}:{space()}{value}{space()}"
        for key, value in members
    )
    return space() + "{" + body + "}" + space()


class TestPeek:
    def test_top_level_session_key(self):
        assert peek_session_id('{"session":"abc","state":{}}') == "abc"
        assert peek_session_id('{"end":true,"session":"z"}') == "z"

    def test_integer_ids_canonicalise_like_parse_record(self):
        assert peek_session_id('{"session": 42, "end": true}') == "42"
        assert peek_session_id('{"session": -0}') == "0"

    def test_nested_session_key_never_matches(self):
        line = '{"state":{"queries":{"session":"fake"}},"session":"real"}'
        assert peek_session_id(line) == "real"
        assert peek_session_id('{"state": {"session": "only"}}') is None

    def test_escapes_survive_the_peek(self):
        assert peek_session_id('{"session": "a\\"b"}') == 'a"b'

    def test_last_duplicate_key_wins_like_json_loads(self):
        line = '{"session":"a","end":true,"session":"b"}'
        assert peek_session_id(line) == parse_record(line).session_id == "b"

    def test_escaped_key_names_decode_like_json_loads(self):
        line = '{"\\u0073ession":"x","end":true}'
        assert peek_session_id(line) == parse_record(line).session_id == "x"

    def test_hostile_lines_never_raise(self):
        for line in ("[" * 100_000, '{"session": ' + "1" * 5000 + "}",
                     '{"a": "\\"' + "{" * 100_000):
            assert peek_session_id(line) is None

    @given(line=st.text(max_size=60))
    @examples(200)
    def test_arbitrary_text_never_raises(self, line):
        peek_session_id(line)

    @given(line=st.data())
    @examples(300)
    def test_peek_agrees_with_parse_record(self, line):
        """For every line the decoder accepts, the router sees the same
        session id -- otherwise one session could split across shards."""
        text = line.draw(_session_lines())
        try:
            record = parse_record(text)
        except RecordError:
            return
        if record is not None:
            assert peek_session_id(text) == record.session_id

    def test_garbage_peeks_to_none(self):
        for line in ("", "   ", "not json", "[1,2]", '{"session": 1.5}',
                     '{"session": true}', '{"session": ""}', '{"session"',
                     '{"other": 1}'):
            assert peek_session_id(line) is None, line


class TestRouter:
    def test_routing_is_deterministic_and_in_range(self):
        router = ShardRouter(4)
        for index in range(100):
            shard = router.shard_of(f"session-{index}")
            assert 0 <= shard < 4
            assert shard == router.shard_of(f"session-{index}")

    def test_unpeekable_lines_route_to_shard_zero(self):
        router = ShardRouter(4)
        assert router.route("not json at all") == 0
        assert router.route('{"no_session": 1}') == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestInlineEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_multiset_equals_single_process(
        self, bundle, safety, shards
    ):
        lines = list(synth_lines(seed=0, sessions=60, fault_rate=0.2))
        single, single_report = run_single(safety, lines)
        sharded, report = run_sharded(bundle, lines, shards, "inline")
        assert verdict_multiset(sharded) == verdict_multiset(single)
        merged = report.metrics
        assert merged.sessions_started == single_report.metrics.sessions_started
        assert merged.records_ingested == single_report.metrics.records_ingested
        assert merged.verdicts == single_report.metrics.verdicts

    def test_malformed_lines_quarantine_on_shard_zero(self, bundle, safety):
        lines = list(synth_lines(seed=3, sessions=12, fault_rate=0.0))
        lines.insert(3, "{torn")
        lines.insert(9, '{"state": {}}')
        single, single_report = run_single(safety, lines)
        sharded, report = run_sharded(bundle, lines, 4, "inline")
        assert verdict_multiset(sharded) == verdict_multiset(single)
        assert report.metrics.malformed_records == 2
        assert len(report.quarantine) == 2
        assert report.shard_metrics[0].malformed_records == 2
        assert all(m.malformed_records == 0
                   for m in report.shard_metrics[1:])

    def test_replay_helper_agrees_with_offline(self, safety):
        traces, _ = synth_traces(seed=5, sessions=10, fault_rate=0.3)
        unsharded = monitor_verdicts(safety, traces)
        sharded = monitor_verdicts(safety, traces, shards=3)
        assert set(sharded) == set(unsharded)
        for session, verdict in unsharded.items():
            assert sharded[session].verdict == verdict.verdict
            assert sharded[session].forced == verdict.forced

    def test_interleaving_cannot_split_a_session(self, bundle, safety):
        # Reverse the stream's session interleaving: per-session order
        # is preserved, so the multiset must not move.
        lines = list(synth_lines(seed=7, sessions=30, fault_rate=0.2))
        by_session = collections.defaultdict(list)
        for line in lines:
            by_session[peek_session_id(line)].append(line)
        rotated = []
        for session in reversed(sorted(by_session)):
            rotated.extend(by_session[session])
        single, _ = run_single(safety, lines)
        sharded, _ = run_sharded(bundle, rotated, 4, "inline")
        assert verdict_multiset(sharded) == verdict_multiset(single)


class TestProcessTransport:
    def test_two_shards_match_single_process(self, bundle, safety):
        lines = list(synth_lines(seed=0, sessions=60, fault_rate=0.2))
        single, single_report = run_single(safety, lines)
        sharded, report = run_sharded(bundle, lines, 2, "process")
        assert verdict_multiset(sharded) == verdict_multiset(single)
        merged = report.metrics
        assert merged.records_ingested == single_report.metrics.records_ingested
        assert merged.sessions_started == 60
        assert merged.verdicts == single_report.metrics.verdicts
        # The merge really is a sum of the per-shard parts.
        assert len(report.shard_metrics) == 2
        assert sum(m.sessions_started for m in report.shard_metrics) == 60
        assert sum(m.records_ingested for m in report.shard_metrics) == (
            merged.records_ingested
        )
        data = report.to_dict()
        assert data["shards"] == 2
        assert len(data["shard_metrics"]) == 2

    def test_hostile_lines_quarantine_in_the_workers(self, bundle, safety):
        """Regression: a line too deeply nested to decode is one
        malformed record on its shard, never a dead worker."""
        lines = list(synth_lines(seed=0, sessions=20, fault_rate=0.2))
        lines.insert(5, "[" * 100_000)
        lines.insert(9, lines[8][: len(lines[8]) // 2])
        single, single_report = run_single(safety, lines)
        for transport in ("inline", "process"):
            sharded, report = run_sharded(bundle, lines, 2, transport)
            assert verdict_multiset(sharded) == verdict_multiset(single)
            assert report.metrics.malformed_records == 2
            assert report.metrics.verdicts == single_report.metrics.verdicts

    @pytest.mark.parametrize("transport", ["inline", "process"])
    def test_decode_counters_sum_over_shards(self, bundle, transport):
        # Inline shards share one process and so one decoded-state
        # table; each must still count only the lines it parsed.
        lines = list(synth_lines(seed=4, sessions=24, fault_rate=0.0))
        states = sum('"state"' in line for line in lines)
        _, report = run_sharded(bundle, lines, 2, transport)
        parts = report.shard_metrics
        merged = report.metrics
        assert merged.decode_hits == sum(m.decode_hits for m in parts)
        assert merged.decode_misses == sum(m.decode_misses for m in parts)
        assert merged.decode_hits + merged.decode_misses == states

    def test_process_transport_requires_a_bundle(self, safety):
        with pytest.raises(TypeError, match="artifact bytes"):
            ShardedMonitor(safety, shards=2, transport="process")

    def test_finish_is_idempotent(self, bundle):
        lines = list(synth_lines(seed=2, sessions=8, fault_rate=0.0))
        monitor = ShardedMonitor(bundle, shards=2, property_name="safety")
        monitor.feed_lines(lines)
        first = monitor.finish()
        assert monitor.finish() is first


class TestChannels:
    def test_drop_policy_sheds_and_counts_whole_chunks(self):
        ctx = multiprocessing.get_context("fork")
        channel = ShardChannel(ctx, capacity=1, policy="drop")
        channel.send_lines(["a", "b"])
        # The first chunk may still be in the feeder pipe; saturate
        # until drops begin, then verify counting is per line.
        while channel.dropped == 0:
            channel.send_lines(["c", "d", "e"])
        assert channel.dropped % 3 == 0
        channel.queue.cancel_join_thread()

    def test_invalid_policy_rejected(self):
        ctx = multiprocessing.get_context("fork")
        with pytest.raises(ValueError):
            ShardChannel(ctx, capacity=1, policy="spill")


class TestSplitSnapshot:
    def test_entries_and_retired_route_by_session_id(self):
        router = ShardRouter(3)
        snapshot = {
            "entries": [{"session_id": f"s{i}"} for i in range(9)],
            "retired": [(f"r{i}", "finished") for i in range(9)],
            "counters": {"records_ingested": 90, "states_applied": 81,
                         "max_formula_size": 7},
            "verdicts": {"PROBABLY_TRUE": 9},
            "queue_depth_samples": [1, 2],
            "intern_hits": 5, "intern_misses": 2,
            "cache_evictions": 0, "cache_trims": 0,
            "wall_s": 3.5,
            "quarantine": [("bad", "err")],
        }
        parts = split_snapshot(snapshot, router)
        assert len(parts) == 3
        for index, part in enumerate(parts):
            for item in part["entries"]:
                assert router.shard_of(item["session_id"]) == index
            for session_id, _reason in part["retired"]:
                assert router.shard_of(session_id) == index
        assert sum(len(p["entries"]) for p in parts) == 9
        assert sum(len(p["retired"]) for p in parts) == 9
        # Aggregates ride on shard 0; the merged totals are preserved.
        remerged = merge_snapshots(parts)
        assert remerged["counters"]["records_ingested"] == 90
        assert remerged["counters"]["max_formula_size"] == 7
        assert remerged["verdicts"] == {"PROBABLY_TRUE": 9}
        assert remerged["wall_s"] == 3.5
        assert remerged["quarantine"] == [("bad", "err")]


class TestShardedCheckpoint:
    def _split(self, seed=11, sessions=24):
        lines = list(synth_lines(seed=seed, sessions=sessions, fault_rate=0.2))
        return lines, len(lines) // 2

    def test_suspend_writes_one_file_per_shard(self, bundle, tmp_path):
        lines, cut = self._split()
        monitor = ShardedMonitor(bundle, shards=3, property_name="safety",
                                 transport="inline")
        monitor.feed_lines(lines[:cut])
        monitor.suspend(str(tmp_path))
        files = list_shard_checkpoints(str(tmp_path))
        assert [index for index, _path in files] == [0, 1, 2]
        assert not os.path.exists(checkpoint_path(str(tmp_path)))

    def test_restore_with_same_shard_count(self, bundle, safety, tmp_path):
        lines, cut = self._split()
        single, _ = run_single(safety, lines)
        first = []
        monitor = ShardedMonitor(bundle, shards=2, property_name="safety",
                                 transport="process", on_verdict=first.append)
        monitor.feed_lines(lines[:cut])
        monitor.suspend(str(tmp_path))
        second = []
        resumed = ShardedMonitor(bundle, shards=2, property_name="safety",
                                 transport="process",
                                 on_verdict=second.append)
        header = resumed.restore_from(str(tmp_path))
        assert header["shards"] == 2
        resumed.feed_lines(lines[cut:])
        report = resumed.finish()
        assert verdict_multiset(first + second) == verdict_multiset(single)
        assert report.metrics.records_ingested == len(lines)

    def test_restore_reshards_to_a_different_count(
        self, bundle, safety, tmp_path
    ):
        lines, cut = self._split(seed=13)
        single, _ = run_single(safety, lines)
        first = []
        monitor = ShardedMonitor(bundle, shards=4, property_name="safety",
                                 transport="inline", on_verdict=first.append)
        monitor.feed_lines(lines[:cut])
        monitor.suspend(str(tmp_path))
        second = []
        resumed = ShardedMonitor(bundle, shards=2, property_name="safety",
                                 transport="inline", on_verdict=second.append)
        resumed.restore_from(str(tmp_path))
        resumed.feed_lines(lines[cut:])
        report = resumed.finish()
        assert verdict_multiset(first + second) == verdict_multiset(single)
        assert report.metrics.records_ingested == len(lines)
        # The narrower layout replaced the wider one on the next round.
        resumed2 = ShardedMonitor(bundle, shards=2, property_name="safety",
                                  transport="inline")
        resumed2.restore_from(str(tmp_path))
        resumed2.checkpoint_to(str(tmp_path))
        assert [i for i, _p in list_shard_checkpoints(str(tmp_path))] == [0, 1]

    def test_single_process_restores_a_sharded_directory(
        self, bundle, safety, tmp_path
    ):
        lines, cut = self._split(seed=17)
        single, _ = run_single(safety, lines)
        first = []
        monitor = ShardedMonitor(bundle, shards=3, property_name="safety",
                                 transport="inline", on_verdict=first.append)
        monitor.feed_lines(lines[:cut])
        monitor.suspend(str(tmp_path))
        second = []
        resumed = Monitor(safety, on_verdict=second.append)
        header = resumed.restore_from(str(tmp_path))
        assert header["shards"] == 3
        for line in lines[cut:]:
            resumed.feed_line(line)
        report = resumed.finish()
        assert verdict_multiset(first + second) == verdict_multiset(single)
        assert report.metrics.records_ingested == len(lines)
        # A later single-process checkpoint owns the directory again.
        resumed.checkpoint_to(str(tmp_path))
        assert os.path.exists(checkpoint_path(str(tmp_path)))
        assert list_shard_checkpoints(str(tmp_path)) == []

    def test_sharded_restores_a_single_process_checkpoint(
        self, bundle, safety, tmp_path
    ):
        lines, cut = self._split(seed=19)
        single, _ = run_single(safety, lines)
        first = []
        monitor = Monitor(safety, on_verdict=first.append)
        for line in lines[:cut]:
            monitor.feed_line(line)
        monitor.suspend(str(tmp_path))
        second = []
        resumed = ShardedMonitor(bundle, shards=2, property_name="safety",
                                 transport="inline", on_verdict=second.append)
        resumed.restore_from(str(tmp_path))
        resumed.feed_lines(lines[cut:])
        report = resumed.finish()
        assert verdict_multiset(first + second) == verdict_multiset(single)
        assert report.metrics.records_ingested == len(lines)

    def test_wrong_property_is_rejected(self, bundle, tmp_path):
        from repro.artifact.errors import ArtifactFormatError

        lines, cut = self._split(seed=23)
        monitor = ShardedMonitor(bundle, shards=2, property_name="safety",
                                 transport="inline")
        monitor.feed_lines(lines[:cut])
        monitor.suspend(str(tmp_path))
        other = ShardedMonitor(bundle, shards=2, property_name="liveness",
                               transport="inline")
        with pytest.raises(ArtifactFormatError, match="property"):
            other.restore_from(str(tmp_path))

    def test_empty_directory_is_rejected(self, bundle, tmp_path):
        from repro.artifact.errors import ArtifactFormatError

        monitor = ShardedMonitor(bundle, shards=2, property_name="safety",
                                 transport="inline")
        with pytest.raises(ArtifactFormatError, match="no monitor checkpoint"):
            monitor.restore_from(str(tmp_path))

    def test_prune_helpers(self, tmp_path):
        for index in range(4):
            path = shard_checkpoint_path(str(tmp_path), index)
            with open(path, "wb") as handle:
                handle.write(b"QSRC....")
        prune_shard_checkpoints(str(tmp_path), keep=(0, 1))
        assert [i for i, _p in list_shard_checkpoints(str(tmp_path))] == [0, 1]
        prune_shard_checkpoints(str(tmp_path))
        assert list_shard_checkpoints(str(tmp_path)) == []
