"""Executor lifecycle management: warm reuse across tests and campaigns.

Every generated test used to pay full executor construction plus a
``Start`` warm-up -- the per-session overhead that dominates parallel
PBT runtimes once campaigns get small (QuickerCheck's observation, and
exactly the shape of the paper's 43-implementation audit and of
``check_all``'s many-properties x one-app batches).  This module
amortises it:

* :class:`ExecutorCache` holds at most one *warm* executor per target
  identity.  One cache is created (empty) per batch, **before** the
  worker pool forks: each forked worker then owns a private
  copy-on-write instance, so warm executors never cross process
  boundaries, while the thread fallback and the serial loop share a
  single locked instance.  Remote ``repro worker`` processes (the TCP
  transport) are not forked from the coordinator at all -- each builds
  its *own* per-process cache from the task's remote descriptor and
  reports warm-hit/cold-start deltas back inside result frames, so the
  batch metrics still add up.
* :class:`ExecutorLease` is one test's claim on an executor.
  ``checkout`` prefers a warm executor from the cache and asks it to
  :meth:`~repro.executors.base.Executor.reset` (the new ``Reset``
  protocol message); a backend that declines -- or a cache miss -- falls
  back to the classic construct + ``Start`` path, so reuse is always an
  optimisation, never a semantics change.  ``checkin`` parks the
  executor for the next test instead of stopping it.

There is one lease for every driving mode.  The cache parks exactly
what factories build -- synchronous executors -- and
``Start``/``Reset``/``stop`` run synchronously inside the lease.
Async sessions add their per-session view (the inline
:class:`~repro.executors.base.SyncExecutorAdapter`, or a caller's
``wrap`` such as a seeded :class:`~repro.executors.base.LatencyExecutor`)
at checkout, in the runner, so a warm executor parked by a synchronous
test serves the next async one and vice versa, and a wrapper's state
(its latency RNG) never outlives the session that made it.

Determinism is non-negotiable: ``reset`` contracts an observationally
identical session (same initial state, virtual time origin and trace
versioning), so warm-reuse verdicts, counterexamples and reporter event
streams are bit-for-bit equal to cold-start runs for the same seeds
(asserted in ``tests/api/test_warm_reuse.py``).

Warm hits and cold starts are counted through shared counters (a
``multiprocessing.Value`` when a fork pool is involved) and surface in
:class:`~repro.api.pool.PoolMetrics`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Optional

from ..executors.base import AsyncExecutor
from ..protocol.messages import Reset, Start
from .transport.base import ThreadCounter

__all__ = ["ExecutorCache", "ExecutorLease"]


def _bump(counter) -> None:
    with counter.get_lock():
        counter.value += 1


class ExecutorCache:
    """A per-worker pool of warm executors, keyed by target identity.

    The key is the executor *factory object* itself: every test of a
    campaign shares its runner's factory, and ``check_all`` /
    session-app ``check_many`` batches share one factory across
    campaigns, so warm reuse spans exactly the tasks that test the same
    application.  Distinct targets have distinct factories and can never
    receive each other's executors.

    ``enabled=False`` turns the cache into a pass-through (every
    checkout is a cold start, every checkin a stop) -- the cold baseline
    the warm path is benchmarked and equivalence-tested against.

    ``warm_hits`` / ``cold_starts`` may be shared counters created with
    :meth:`~repro.api.pool.WorkerPool.make_counter` so forked workers
    aggregate into one number; they default to in-process counters.

    ``max_entries`` bounds how many warm executors the cache may hold
    at once (across all keys); checking in past the bound stops and
    evicts the least-recently-used entry.  The pooled scheduler sets it
    so a forked worker that serves many targets over a long audit never
    accumulates one live session per target ever seen.

    ``depth`` bounds how many warm executors one *key* may hold.  The
    default (1) is right for strictly sequential reuse; a shared cache
    serving concurrent leases of the same target (the thread-fallback
    pool, a worker interleaving two targets' tasks under dynamic
    dispatch, or sessions interleaving on one event loop) wants
    ``depth >= jobs`` -- with depth 1, two overlapping leases of one key
    evict each other's executor at every checkin and warm reuse
    silently degrades to cold starts.
    """

    def __init__(
        self,
        enabled: bool = True,
        warm_hits=None,
        cold_starts=None,
        max_entries: Optional[int] = None,
        depth: int = 1,
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        self.enabled = enabled
        self.max_entries = max_entries
        self.depth = depth
        self.warm_hits = (
            warm_hits if warm_hits is not None else ThreadCounter(0)
        )
        self.cold_starts = (
            cold_starts if cold_starts is not None else ThreadCounter(0)
        )
        #: key -> parked executors, oldest first; key order is recency.
        self._entries: Dict[Hashable, List[object]] = {}
        self._lock = threading.Lock()

    def lease(self, factory: Callable[[], object]) -> "ExecutorLease":
        """A lease for one test against ``factory``'s target."""
        return ExecutorLease(self, factory)

    def checkout(self, key: Hashable) -> Optional[object]:
        """Claim a warm executor for ``key``, or None on a miss.  The
        entry is *removed*: an executor is only ever owned by one task.
        The most recently parked executor is claimed first (LIFO), so
        sequential reuse keeps touching the same warm session."""
        with self._lock:
            stack = self._entries.get(key)
            if not stack:
                return None
            executor = stack.pop()
            if not stack:
                del self._entries[key]
            return executor

    def checkin(self, key: Hashable, executor: object) -> None:
        """Park a still-warm executor for the next test of ``key``,
        stopping whatever the depth/size bounds evict."""
        evicted: List[object] = []
        with self._lock:
            stack = self._entries.pop(key, None)
            if stack is None:
                stack = []
            if any(parked is executor for parked in stack):
                # Cannot happen under the checkout-removes discipline,
                # but a double checkin must not double-park a session.
                self._entries[key] = stack
                return
            stack.append(executor)
            while len(stack) > self.depth:
                evicted.append(stack.pop(0))
            # Key insertion order doubles as recency: checkout/checkin
            # re-append, so the front key is least recently used.
            self._entries[key] = stack
            while (
                self.max_entries is not None
                and sum(len(s) for s in self._entries.values())
                > self.max_entries
            ):
                oldest_key = next(iter(self._entries))
                oldest = self._entries[oldest_key]
                evicted.append(oldest.pop(0))
                if not oldest:
                    del self._entries[oldest_key]
        for stale in evicted:
            stale.stop()

    def release(self, key: Hashable) -> None:
        """Stop and drop every warm executor for ``key``.

        The in-process schedulers (serial loop, thread fallback) call
        this when a target's *last* campaign finishes, so a long batch
        holds at most the executors of targets still in play instead of
        one per target ever seen (dozens of concurrent browser
        sessions, for a real WebDriver backend).  Forked workers
        instead close their whole private cache on worker exit (the
        pool's ``worker_exit`` hook), bounding held executors by the
        worker's lifetime."""
        with self._lock:
            stack = self._entries.pop(key, [])
        for executor in stack:
            executor.stop()

    def close(self) -> None:
        """Stop and drop every warm executor (end of batch)."""
        with self._lock:
            entries = [
                executor
                for stack in self._entries.values()
                for executor in stack
            ]
            self._entries.clear()
        for executor in entries:
            executor.stop()

    def __len__(self) -> int:
        """Number of parked warm executors (across all keys)."""
        with self._lock:
            return sum(len(stack) for stack in self._entries.values())


class ExecutorLease:
    """One test's claim on a (possibly warm) executor.

    The runner calls :meth:`checkout` with its ``Start`` message in
    place of ``factory() + start()``, and :meth:`checkin` in place of
    ``stop()``; everything between is unchanged.  ``warm`` records
    which path the checkout took (benchmarks, tests and the remote
    worker's per-task counters read it).
    """

    __slots__ = ("cache", "factory", "warm")

    def __init__(
        self, cache: ExecutorCache, factory: Callable[[], object]
    ) -> None:
        self.cache = cache
        self.factory = factory
        self.warm = False

    def checkout(self, start: Start) -> object:
        """A started executor for one test: warm-reset when possible,
        freshly constructed otherwise."""
        executor = (
            self.cache.checkout(self.factory) if self.cache.enabled else None
        )
        if executor is not None:
            reset = getattr(executor, "reset", None)
            try:
                was_reset = reset is not None and reset(
                    Reset(start.dependencies, start.events)
                )
            except Exception:
                # A reset blowing up (e.g. the warm session died) must
                # not fail the test: reuse is an optimisation, never a
                # semantics change.  Retire the executor and go cold.
                was_reset = False
            if was_reset:
                self.warm = True
                _bump(self.cache.warm_hits)
                return executor
            # The backend cannot reset: retire it and start cold.
            try:
                executor.stop()
            except Exception:
                pass  # a dead session may refuse even to stop
        self.warm = False
        _bump(self.cache.cold_starts)
        executor = self.factory()
        if isinstance(executor, AsyncExecutor):
            raise TypeError(
                "executor factory produced an AsyncExecutor; factories "
                "build synchronous executors and the runner adds the "
                "async view per session (pass wrap= to "
                "run_single_test_async)"
            )
        executor.start(start)
        return executor

    def checkin(self, executor: object) -> None:
        """Return the executor after the test: parked warm for the next
        lease of the same target, or stopped when reuse is disabled."""
        if self.cache.enabled:
            self.cache.checkin(self.factory, executor)
        else:
            executor.stop()
