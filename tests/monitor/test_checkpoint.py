"""Checkpoint/restore: kill the monitor anywhere, resume losslessly.

The acceptance property: for any split point, (run to the split,
checkpoint, die, restore, run the rest) emits the same verdict stream
and reports the same cumulative totals as one uninterrupted run.
"""

import os

import pytest

from repro.artifact import ArtifactCorruptError, ArtifactFormatError
from repro.monitor import Monitor, read_checkpoint_header, checkpoint_path
from repro.monitor.checkpoint import CHECKPOINT_FILENAME
from repro.monitor.synth import synth_lines
from repro.specs import load_eggtimer_spec

#: Metrics keys that legitimately differ across a process restart
#: (cache and decoded-state table warmth, round counts, wall clock).
_RESTART_SENSITIVE = {
    "cohort_steps", "sharing_ratio", "intern_hits", "intern_misses",
    "intern_hit_ratio", "decode_hits", "decode_misses",
    "cache_evictions", "cache_trims", "ticks",
    "wall_s", "states_per_s", "max_queue_depth",
}


@pytest.fixture(scope="module")
def check():
    return load_eggtimer_spec().check_named("safety")


@pytest.fixture(scope="module")
def lines():
    return list(synth_lines(sessions=16, seed=11))


def _run(check, stream, restore_dir=None, on_verdict=None):
    monitor = Monitor(check, on_verdict=on_verdict)
    if restore_dir is not None:
        monitor.restore_from(restore_dir)
    report = monitor.run_lines(stream)
    return monitor, report


class TestResumeEquivalence:
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_any_split_point_resumes_to_identical_verdicts(
        self, check, lines, tmp_path, fraction
    ):
        full_verdicts = []
        _, full = _run(check, lines, on_verdict=full_verdicts.append)

        cut = int(len(lines) * fraction)
        directory = str(tmp_path / f"ckpt-{fraction}")
        before = []
        first = Monitor(check, on_verdict=before.append)
        for line in lines[:cut]:
            first.feed_line(line)
        first.checkpoint_to(directory)
        del first  # the "kill"

        after = []
        _, resumed = _run(check, lines[cut:], restore_dir=directory,
                          on_verdict=after.append)

        assert ([v.to_dict() for v in before + after]
                == [v.to_dict() for v in full_verdicts])
        full_d, resumed_d = full.metrics.to_dict(), resumed.metrics.to_dict()
        for key, value in full_d.items():
            if key not in _RESTART_SENSITIVE:
                assert resumed_d[key] == value, key

    def test_restored_sessions_keep_their_residual_progress(
        self, check, lines, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        first = Monitor(check)
        for line in lines[: len(lines) // 2]:
            first.feed_line(line)
        first.checkpoint_to(directory)
        residuals = {
            e.session_id: e.residual
            for e in first.table.live_sessions()
        }
        assert residuals  # the split leaves sessions open

        second = Monitor(check)
        second.restore_from(directory)
        restored = {
            e.session_id: e.residual
            for e in second.table.live_sessions()
        }
        assert set(restored) == set(residuals)
        # Defers re-intern by closure identity, so a restored residual
        # is a fresh node with the same spine (the verdict-equivalence
        # test above pins the semantics)...
        for session_id, residual in residuals.items():
            assert repr(restored[session_id]) == repr(residual)
        # ...but sharing survives: sessions that shared one interned
        # residual before the checkpoint still share one node after.
        shared_before = {}
        for session_id, residual in residuals.items():
            shared_before.setdefault(id(residual), []).append(session_id)
        for group in shared_before.values():
            ids_after = {id(restored[session_id]) for session_id in group}
            assert len(ids_after) == 1

    def test_decode_counters_stay_cumulative_across_restore(
        self, check, lines, tmp_path
    ):
        # How hits and misses split depends on how warm the
        # process-wide decoded-state table is; their sum does not.
        states = sum('"state"' in line for line in lines)
        _, full = _run(check, lines)
        assert full.metrics.decode_hits + full.metrics.decode_misses == states

        directory = str(tmp_path / "ckpt")
        first = Monitor(check)
        for line in lines[: len(lines) // 2]:
            first.feed_line(line)
        first.checkpoint_to(directory)
        _, resumed = _run(check, lines[len(lines) // 2:],
                          restore_dir=directory)
        decoded = resumed.metrics.decode_hits + resumed.metrics.decode_misses
        assert decoded == states

    def test_late_records_stay_late_across_restore(self, check, tmp_path):
        lines = list(synth_lines(sessions=3, seed=5))
        directory = str(tmp_path / "ckpt")
        first = Monitor(check)
        first.run_lines(lines)  # everything resolves
        first.checkpoint_to(directory)

        second = Monitor(check)
        second.restore_from(directory)
        # Replay one already-resolved session's record: the restored
        # retired ring must classify it late, not open a new session.
        second.feed_line(lines[0])
        second.flush()
        assert second.metrics.late_records == 1
        assert second.metrics.sessions_started == first.metrics.sessions_started


class TestCheckpointContainer:
    def test_header_reads_without_payload_decode(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for line in lines[:20]:
            monitor.feed_line(line)
        path = monitor.checkpoint_to(directory)
        assert os.path.basename(path) == CHECKPOINT_FILENAME
        header = read_checkpoint_header(path)
        assert header["records_ingested"] == 20
        assert header["property"] == "safety"
        assert header["sessions_live"] == len(monitor.table)

    def test_checkpoint_overwrites_atomically(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for index, line in enumerate(lines):
            monitor.feed_line(line)
            if index in (5, 15):
                monitor.checkpoint_to(directory)
        header = read_checkpoint_header(checkpoint_path(directory))
        assert header["records_ingested"] == 16  # the latest snapshot
        assert os.listdir(directory) == [CHECKPOINT_FILENAME]  # no tmp junk

    def test_torn_checkpoint_is_a_typed_error(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for line in lines[:10]:
            monitor.feed_line(line)
        path = monitor.checkpoint_to(directory)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ArtifactCorruptError):
            Monitor(check).restore_from(directory)

    def test_foreign_file_is_a_format_error(self, check, tmp_path):
        directory = str(tmp_path / "ckpt")
        os.makedirs(directory)
        with open(checkpoint_path(directory), "wb") as handle:
            handle.write(b"definitely not a checkpoint")
        with pytest.raises(ArtifactFormatError):
            Monitor(check).restore_from(directory)

    def test_wrong_property_is_rejected(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for line in lines[:10]:
            monitor.feed_line(line)
        monitor.checkpoint_to(directory)
        other = load_eggtimer_spec().check_named("liveness")
        with pytest.raises(ArtifactFormatError):
            Monitor(other).restore_from(directory)


class TestSuspend:
    def test_suspend_leaves_sessions_open(self, check, lines):
        monitor = Monitor(check)
        cut = len(lines) // 2
        for line in lines[:cut]:
            monitor.feed_line(line)
        report = monitor.suspend()
        assert len(monitor.table) > 0
        assert report.metrics.sessions_live == len(monitor.table)
        assert "inconclusive" not in report.metrics.verdicts

    def test_finish_after_suspend_still_resolves(self, check, lines):
        monitor = Monitor(check)
        for line in lines[: len(lines) // 2]:
            monitor.feed_line(line)
        monitor.suspend()
        report = monitor.finish()
        assert report.metrics.sessions_live == 0
