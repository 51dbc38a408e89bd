"""The async executor protocol: adapter, latency injection, coercion.

``AsyncExecutor`` is the awaitable mirror of ``Executor``; these tests
pin the two shipped wrappers:

* ``SyncExecutorAdapter`` -- every protocol call delegates inline to
  the wrapped synchronous executor, with identical arguments and return
  values, and never yields to the event loop;
* ``LatencyExecutor`` -- injects *deterministic wall-clock* round-trip
  delay around a synchronous executor while leaving virtual time, the
  trace, and the test's RNG untouched; ``latency_ms=0`` draws no delay
  but still yields once per wire call.
"""

import asyncio
import time

import pytest

from repro.apps.eggtimer import egg_timer_app
from repro.executors import (
    AsyncExecutor,
    DomExecutor,
    LatencyExecutor,
    SyncExecutorAdapter,
    ensure_async_executor,
)
from repro.protocol.messages import Start


class RecordingSync:
    """A synchronous executor stub that logs every call."""

    def __init__(self):
        self.calls = []
        self.version = 3
        self.now_ms = 120.0

    def start(self, start):
        self.calls.append(("start", start))

    def drain(self):
        self.calls.append(("drain",))
        return ["m1", "m2"]

    def act(self, act):
        self.calls.append(("act", act))
        return True

    def pass_time(self, delta_ms):
        self.calls.append(("pass_time", delta_ms))

    def await_events(self, timeout_ms):
        self.calls.append(("await_events", timeout_ms))

    def stop(self):
        self.calls.append(("stop",))

    def reset(self, reset):
        self.calls.append(("reset", reset))
        return True


def drive(coro):
    return asyncio.run(coro)


class TestSyncExecutorAdapter:
    def test_delegates_every_protocol_call(self):
        inner = RecordingSync()
        adapter = SyncExecutorAdapter(inner)
        start = Start(dependencies=frozenset(), events=())

        async def session():
            await adapter.start(start)
            assert await adapter.drain() == ["m1", "m2"]
            assert await adapter.act("the-act") is True
            await adapter.pass_time(50.0)
            await adapter.await_events(100.0)
            assert await adapter.reset("the-reset") is True
            await adapter.stop()

        drive(session())
        assert [name for name, *_ in inner.calls] == [
            "start", "drain", "act", "pass_time", "await_events",
            "reset", "stop",
        ]
        assert adapter.version == 3
        assert adapter.now_ms == 120.0

    def test_missing_reset_declines(self):
        class Bare:
            version = 0
            now_ms = 0.0

            def stop(self):
                pass

        adapter = SyncExecutorAdapter(Bare())

        async def session():
            assert await adapter.reset(None) is False

        drive(session())

    def test_recorder_reads_through(self):
        inner = RecordingSync()
        inner.recorder = object()
        assert SyncExecutorAdapter(inner).recorder is inner.recorder

        class NoRecorder:
            version = 0
            now_ms = 0.0

        assert SyncExecutorAdapter(NoRecorder()).recorder is None


class TestLatencyExecutor:
    def test_delay_sequence_is_seed_deterministic(self):
        first = LatencyExecutor(RecordingSync(), latency_ms=5, seed="s")
        second = LatencyExecutor(RecordingSync(), latency_ms=5, seed="s")
        other = LatencyExecutor(RecordingSync(), latency_ms=5, seed="t")
        a = [first.next_delay_ms() for _ in range(16)]
        b = [second.next_delay_ms() for _ in range(16)]
        c = [other.next_delay_ms() for _ in range(16)]
        assert a == b
        assert a != c
        spread = 5 * 0.5
        assert all(5 - spread <= d <= 5 + spread for d in a)

    def test_zero_latency_never_sleeps(self):
        inner = RecordingSync()
        wrapped = LatencyExecutor(inner, latency_ms=0, seed=1)
        assert wrapped.next_delay_ms() == 0.0

        async def session():
            await wrapped.start(Start(dependencies=frozenset(), events=()))
            await wrapped.drain()
            await wrapped.act("a")
            await wrapped.await_events(10.0)

        started = time.perf_counter()
        drive(session())
        assert time.perf_counter() - started < 0.5
        assert [name for name, *_ in inner.calls] == [
            "start", "drain", "act", "await_events",
        ]

    def test_injected_delay_is_wall_clock_only(self):
        inner = RecordingSync()
        wrapped = LatencyExecutor(inner, latency_ms=20, jitter=0.0, seed=1)

        async def session():
            await wrapped.drain()
            await wrapped.drain()

        started = time.perf_counter()
        drive(session())
        elapsed = time.perf_counter() - started
        assert elapsed >= 0.04  # two ~20 ms round-trips actually slept
        # Virtual time is the session's clock, never the wrapper's.
        assert wrapped.now_ms == inner.now_ms == 120.0

    def test_pass_time_and_stop_are_not_wire_calls(self):
        # Virtual-time bookkeeping and teardown draw no delay: the RNG
        # position (the observable) only moves on round-trips.
        wrapped = LatencyExecutor(RecordingSync(), latency_ms=5, seed="x")
        probe = LatencyExecutor(RecordingSync(), latency_ms=5, seed="x")

        async def session():
            await wrapped.pass_time(10.0)
            await wrapped.stop()

        drive(session())
        assert wrapped.next_delay_ms() == probe.next_delay_ms()

    def test_wraps_synchronous_executors_only(self):
        with pytest.raises(TypeError):
            LatencyExecutor(SyncExecutorAdapter(RecordingSync()))

    def test_zero_latency_yields_once_per_wire_call(self):
        """The pass-through still hands the loop over at every
        round-trip (so sessions sharing a loop interleave), and only
        there: ``pass_time``/``stop`` are not wire calls."""
        wrapped = LatencyExecutor(RecordingSync(), latency_ms=0)
        calls = (
            wrapped.start(Start(dependencies=frozenset(), events=())),
            wrapped.drain(),
            wrapped.act("a"),
            wrapped.await_events(10.0),
            wrapped.reset("r"),
        )
        for call in calls:
            assert call.send(None) is None  # suspended exactly once
            with pytest.raises(StopIteration):
                call.send(None)
        for call in (wrapped.pass_time(5.0), wrapped.stop()):
            with pytest.raises(StopIteration):
                call.send(None)

    def test_adapter_never_yields(self):
        adapter = SyncExecutorAdapter(RecordingSync())
        with pytest.raises(StopIteration) as done:
            adapter.drain().send(None)
        assert done.value.value == ["m1", "m2"]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LatencyExecutor(RecordingSync(), latency_ms=-1)
        with pytest.raises(ValueError):
            LatencyExecutor(RecordingSync(), jitter=1.5)

    def test_drives_a_real_session(self):
        executor = LatencyExecutor(
            DomExecutor(egg_timer_app()), latency_ms=2, jitter=0.5, seed=9
        )

        async def session():
            await executor.start(Start(dependencies=frozenset(), events=()))
            messages = await executor.drain()
            assert messages  # the initial loaded? event came through
            await executor.stop()

        drive(session())


class TestEnsureAsyncExecutor:
    def test_async_executors_pass_through(self):
        adapter = SyncExecutorAdapter(RecordingSync())
        assert ensure_async_executor(adapter) is adapter
        wrapped = LatencyExecutor(RecordingSync(), latency_ms=0)
        assert ensure_async_executor(wrapped) is wrapped

    def test_sync_executors_are_adapted(self):
        inner = RecordingSync()
        adapted = ensure_async_executor(inner)
        assert isinstance(adapted, SyncExecutorAdapter)
        assert adapted.inner is inner

    def test_protocol_marker(self):
        assert isinstance(SyncExecutorAdapter(RecordingSync()), AsyncExecutor)
        assert not isinstance(RecordingSync(), AsyncExecutor)
