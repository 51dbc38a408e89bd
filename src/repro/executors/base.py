"""The abstract executor interface.

The paper stresses that nothing about the checker is WebDriver-specific
(Section 3.4): paired with a different executor, the same checker can
test any reactive system.  This interface is that seam.  Two executors
ship with the reproduction: the simulated-browser executor
(:mod:`repro.executors.domexec`) and the CCS process-calculus executor
(:mod:`repro.executors.ccsexec`).

Message flow and time: gestures themselves are instantaneous; virtual
time advances only through :meth:`Executor.pass_time` (which the runner
calls to model decision/settle latency) and :meth:`Executor.await_events`
(event waits and ``timeout`` handling).  Asynchronous application
activity during those advances produces ``Event`` messages, which is how
the staleness scenario of Figure 10 arises.

Executors are synchronous: factories build an :class:`Executor`, and
warm reuse (:mod:`repro.api.lease`) parks and resets exactly what they
build.  The runner's one session loop is written against
:class:`AsyncExecutor`, the awaitable mirror; at checkout each session
gets an async *view* of its executor -- :class:`SyncExecutorAdapter`,
which calls through inline and never yields, or a caller's wrapper such
as :class:`LatencyExecutor`, which yields to the event loop once per
wire call so sessions sharing a loop interleave.
"""

from __future__ import annotations

import asyncio
import random
from abc import ABC, abstractmethod
from typing import List

from ..protocol.messages import Act, Reset, Start

__all__ = [
    "ActionFailed",
    "AsyncExecutor",
    "Executor",
    "LatencyExecutor",
    "SyncExecutorAdapter",
    "ensure_async_executor",
]


class ActionFailed(RuntimeError):
    """A resolved action could not be performed (e.g. target vanished
    between selection and execution).

    Raised by every executor backend -- the checker catches it during
    replay without knowing which backend is in use.
    """


class Executor(ABC):
    """One test session against a system under test."""

    @abstractmethod
    def start(self, start: Start) -> None:
        """Load the system and begin observing.  Must enqueue the initial
        ``loaded?`` Event."""

    @abstractmethod
    def drain(self) -> List[object]:
        """Return (and clear) the pending executor->checker messages."""

    @abstractmethod
    def act(self, act: Act) -> bool:
        """Perform the action unless the request is stale (Figure 10).

        Returns True when the action was performed (an ``Acted`` message
        is enqueued), False when the request was ignored as stale.
        """

    @abstractmethod
    def pass_time(self, delta_ms: float) -> None:
        """Advance virtual time; asynchronous application activity may
        enqueue ``Event`` messages."""

    @abstractmethod
    def await_events(self, timeout_ms: float) -> None:
        """Advance time until an event batch occurs or ``timeout_ms``
        elapses; enqueues ``Event``s or a single ``Timeout``."""

    @property
    @abstractmethod
    def version(self) -> int:
        """Current trace length (number of states reported)."""

    @property
    @abstractmethod
    def now_ms(self) -> float:
        """Current virtual time, for running-time accounting."""

    def stop(self) -> None:
        """Tear the session down (default: nothing to do)."""

    def reset(self, reset: Reset) -> bool:
        """Begin a fresh session on this warm executor, if the backend
        can restore its initial state *exactly* (same initial state,
        virtual time back at zero, empty trace).

        Returns True when the reset happened (the initial ``loaded?``
        event is enqueued, as after :meth:`start`); False when the
        backend cannot reset -- the caller (an
        :class:`~repro.api.lease.ExecutorLease`) then falls back to
        :meth:`stop` plus a freshly constructed executor, so warm reuse
        is always an optimisation, never a semantics change.
        """
        return False


# ----------------------------------------------------------------------
# The async protocol
# ----------------------------------------------------------------------


class AsyncExecutor(ABC):
    """One test session as the runner's session loop sees it.

    The awaitable mirror of :class:`Executor`: same messages, same
    contracts, but every protocol call is a coroutine, so one event
    loop can keep many latency-bound sessions in flight -- the shape
    real WebDriver (or network-service) backends need, where each
    round-trip is wire latency rather than CPU.  Virtual time remains
    the *session's* clock: wall-clock waits introduced by a backend
    (see :class:`LatencyExecutor`) never advance ``now_ms``, so async
    verdicts are byte-identical to synchronous ones.

    ``version`` / ``now_ms`` stay plain properties -- they read local
    bookkeeping, never the wire.
    """

    @abstractmethod
    async def start(self, start: Start) -> None:
        """Load the system and begin observing (see
        :meth:`Executor.start`)."""

    @abstractmethod
    async def drain(self) -> List[object]:
        """Return (and clear) the pending executor->checker messages."""

    @abstractmethod
    async def act(self, act: Act) -> bool:
        """Perform the action unless the request is stale (Figure 10)."""

    @abstractmethod
    async def pass_time(self, delta_ms: float) -> None:
        """Advance *virtual* time (see :meth:`Executor.pass_time`)."""

    @abstractmethod
    async def await_events(self, timeout_ms: float) -> None:
        """Advance time until an event batch occurs or ``timeout_ms``
        (virtual) elapses."""

    @property
    @abstractmethod
    def version(self) -> int:
        """Current trace length (number of states reported)."""

    @property
    @abstractmethod
    def now_ms(self) -> float:
        """Current virtual time, for running-time accounting."""

    async def stop(self) -> None:
        """Tear the session down (default: nothing to do)."""

    async def reset(self, reset: Reset) -> bool:
        """Begin a fresh session on this warm executor (see
        :meth:`Executor.reset`); the default declines."""
        return False


class SyncExecutorAdapter(AsyncExecutor):
    """Presents a synchronous executor through the async protocol,
    inline.

    Every coroutine method calls the wrapped :class:`Executor` directly
    and completes without yielding, so a session driven through this
    adapter never suspends: the synchronous entry point
    (:meth:`Runner.run_single_test
    <repro.checker.runner.Runner.run_single_test>`) resolves the whole
    async driver in a single ``send``.  The simulated Dom/CCS backends
    are CPU-bound, so there is nothing to overlap; sessions that should
    interleave on a loop use a :class:`LatencyExecutor` view instead.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: Executor) -> None:
        self.inner = inner

    async def start(self, start: Start) -> None:
        self.inner.start(start)

    async def drain(self) -> List[object]:
        return self.inner.drain()

    async def act(self, act: Act) -> bool:
        return self.inner.act(act)

    async def pass_time(self, delta_ms: float) -> None:
        self.inner.pass_time(delta_ms)

    async def await_events(self, timeout_ms: float) -> None:
        self.inner.await_events(timeout_ms)

    async def stop(self) -> None:
        self.inner.stop()

    async def reset(self, reset: Reset) -> bool:
        fn = getattr(self.inner, "reset", None)
        if fn is None:
            return False
        return fn(reset)

    @property
    def version(self) -> int:
        return self.inner.version

    @property
    def now_ms(self) -> float:
        return self.inner.now_ms

    @property
    def recorder(self):
        """The inner executor's recorder, if any (stale-rejection
        accounting reads it through the adapter)."""
        return getattr(self.inner, "recorder", None)


class LatencyExecutor(SyncExecutorAdapter):
    """Deterministic wall-clock latency injection around a synchronous
    executor.

    Models WebDriver round-trips for the simulated backends: every
    *wire* call (``start``/``drain``/``act``/``await_events``/
    ``reset``) first sleeps a pseudo-random real-time delay
    drawn from a private seeded RNG -- uniform in ``latency_ms * [1 -
    jitter, 1 + jitter]`` -- then calls the inner executor inline.  The
    delay is **wall-clock only**: virtual time (``now_ms``), the trace,
    and the test's own RNG are never touched, so latency-injected
    verdicts are identical to plain runs by construction -- which is
    what lets benchmarks hard-assert verdict identity before timing the
    concurrency curve.

    ``latency_ms=0`` draws no delays but still yields to the event loop
    once per wire call (``asyncio.sleep(0)``), so sessions sharing a
    loop interleave at protocol-call granularity -- what differential
    legs that only want the async schedule exercised rely on.
    """

    __slots__ = ("latency_ms", "jitter", "_rng")

    def __init__(
        self,
        inner: Executor,
        latency_ms: float = 5.0,
        jitter: float = 0.5,
        seed: object = 0,
    ) -> None:
        if isinstance(inner, AsyncExecutor):
            raise TypeError(
                "LatencyExecutor wraps synchronous executors only"
            )
        if latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, got {latency_ms}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {jitter}")
        super().__init__(inner)
        self.latency_ms = latency_ms
        self.jitter = jitter
        self._rng = random.Random(f"latency/{seed}")

    def next_delay_ms(self) -> float:
        """The next injected delay (milliseconds); 0 when disabled.
        Drawing advances the private RNG, exactly as a wire call
        would."""
        if self.latency_ms <= 0:
            return 0.0
        spread = self.latency_ms * self.jitter
        return self._rng.uniform(
            self.latency_ms - spread, self.latency_ms + spread
        )

    async def _round_trip(self) -> None:
        await asyncio.sleep(self.next_delay_ms() / 1000.0)

    async def start(self, start: Start) -> None:
        await self._round_trip()
        self.inner.start(start)

    async def drain(self) -> List[object]:
        await self._round_trip()
        return self.inner.drain()

    async def act(self, act: Act) -> bool:
        await self._round_trip()
        return self.inner.act(act)

    async def await_events(self, timeout_ms: float) -> None:
        await self._round_trip()
        self.inner.await_events(timeout_ms)

    async def reset(self, reset: Reset) -> bool:
        fn = getattr(self.inner, "reset", None)
        if fn is None:
            return False
        await self._round_trip()
        return fn(reset)


def ensure_async_executor(executor) -> AsyncExecutor:
    """Adapt ``executor`` for the async driver: :class:`AsyncExecutor`
    instances pass through, synchronous executors are wrapped in a
    :class:`SyncExecutorAdapter`."""
    if isinstance(executor, AsyncExecutor):
        return executor
    return SyncExecutorAdapter(executor)
