"""Campaign engines: strategies for running the generated-test loop.

The checker's per-test seeding (``Random(f"{seed}/{index}")``) makes the
``tests`` loop embarrassingly parallel: no state flows between tests, so
any schedule that runs every index with its own seed and merges results
*in index order* is observationally identical to the serial loop.  This
module provides that seam:

* :class:`SerialEngine` -- the classic loop, bit-for-bit what
  ``Runner.run()`` always did (and still does, by delegating here);
* :class:`ParallelEngine` -- fans the loop out over the shared
  :class:`~repro.api.pool.WorkerPool` transport (``fork`` start method;
  thread fallback where ``fork`` is unavailable) and merges results by
  index, so the *first failing index* -- not the first failure to
  arrive -- wins ``stop_on_failure`` and shrinking.  Verdicts,
  counterexamples and per-test results are identical to the serial
  engine for the same seed;
* :class:`AsyncEngine` -- interleaves the campaign's sessions on one
  event loop through :meth:`Runner.run_single_test_async
  <repro.checker.runner.Runner.run_single_test_async>`, each session
  leasing a synchronous executor and driving it through its async view
  (``wrap``), merged by index the same way.

Every engine runs a test through the same session path: a lease from
the (optional) :class:`~repro.api.lease.ExecutorCache`, then the
runner's one session loop.

Cross-campaign fan-out (many properties / many targets on one pool)
lives one layer up, in :mod:`repro.api.scheduler`, on the same
transport and the same merge discipline.

Reporters (see :mod:`repro.api.reporters`) are only ever invoked from
the merging side, in index order, so their output is deterministic even
under parallel execution.
"""

from __future__ import annotations

import asyncio
import random
import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from ..checker.result import CampaignResult, Counterexample, TestResult
from ..checker.runner import Runner
from .lease import ExecutorCache
from .pool import (
    SKIPPED,
    PoolMetrics,
    PoolTask,
    TaskFailure,
    WorkerCrashed,
    WorkerPool,
    resolve_jobs,
)
from .reporters import Reporter

__all__ = [
    "AsyncEngine",
    "CampaignEngine",
    "SerialEngine",
    "ParallelEngine",
    "CampaignMerge",
]


def _test_seed(seed: object, index: int) -> str:
    """The campaign's per-test RNG seed (kept verbatim from the classic
    loop: changing this string would change every generated trace)."""
    return f"{seed}/{index}"


def _run_test(runner: Runner, rng: random.Random, cache) -> TestResult:
    """One test, leased from ``cache`` when warm reuse is on.

    The no-cache call deliberately omits the ``lease`` keyword: tests
    drive the engines with duck-typed runner stand-ins whose
    ``run_single_test(rng)`` predates it.
    """
    if cache is None:
        return runner.run_single_test(rng)
    return runner.run_single_test(
        rng, lease=cache.lease(runner.executor_factory)
    )


def campaign_tasks(
    runner: Runner,
    pool: WorkerPool,
    label: object = None,
    cache: Optional[ExecutorCache] = None,
) -> List[PoolTask]:
    """The campaign's tests as pool tasks, shared by both schedulers.

    Task ids are ``(label, index)`` when ``label`` is given (the
    cross-campaign scheduler names the campaign) and plain ``index``
    otherwise, so crash reports always say exactly what died.  A shared
    first-failure counter implements the ``stop_on_failure`` horizon:
    workers skip indices past the earliest failure seen so far -- those
    indices are unreachable in the serial loop, so skipping them never
    changes the outcome, it only saves work.

    ``cache`` (an :class:`~repro.api.lease.ExecutorCache`, created
    before the pool forks) lets consecutive tasks on the same worker
    reuse a warm executor for the campaign's target instead of paying
    construction + ``Start`` per test.

    Each task carries both halves of the transport seam: the ``thunk``
    local workers run, and -- when the runner has a ``remote``
    descriptor -- a JSON-able ``payload`` remote workers rebuild the
    test from, plus the ``record`` hook the coordinator uses to fold a
    remote result into the shared first-failure counter (the thunk does
    this in-process; a remote worker cannot).
    """
    config = runner.config
    first_fail = pool.make_counter(config.tests)
    # Evaluate the watched events now, in the parent: the forked workers
    # inherit the runner's cache instead of each re-evaluating the spec.
    # (getattr: duck-typed runner stand-ins need not implement it.)
    warm_watched = getattr(runner, "watched_events", None)
    if warm_watched is not None:
        warm_watched()
    # Likewise warm the compiled property (shared progression caches)
    # before the fork, so every worker inherits it
    # copy-on-write instead of rebuilding per process.  A runner that
    # came through the artifact pipeline adopted the artifact's
    # pre-seeded bundle at construction, so this warms *from the
    # artifact* -- a no-op returning the loaded caches.
    warm_compiled = getattr(runner, "compiled_spec", None)
    if warm_compiled is not None:
        warm_compiled()
    remote_descriptor = getattr(runner, "remote", None)
    reuse = cache is not None and cache.enabled

    def make_task(index: int) -> PoolTask:
        def record(result: object) -> None:
            if getattr(result, "failed", False):
                with first_fail.get_lock():
                    if index < first_fail.value:
                        first_fail.value = index

        def thunk() -> TestResult:
            result = _run_test(
                runner, random.Random(_test_seed(config.seed, index)), cache
            )
            record(result)
            return result

        def past_first_failure() -> bool:
            return index > first_fail.value

        task_id = index if label is None else (label, index)
        skip = past_first_failure if config.stop_on_failure else None
        payload = None
        if remote_descriptor is not None:
            payload = {
                "index": index,
                "reuse": reuse,
                "runner": remote_descriptor,
            }
        return PoolTask(task_id, thunk, skip=skip, payload=payload,
                        record=record)

    return [make_task(index) for index in range(config.tests)]


class CampaignEngine(ABC):
    """Strategy for running one property's campaign of generated tests."""

    @abstractmethod
    def run(
        self,
        runner: Runner,
        reporters: Sequence[Reporter] = (),
        cache: Optional[ExecutorCache] = None,
    ) -> CampaignResult:
        """Run the campaign described by ``runner.config``.

        ``cache`` enables warm executor reuse across the campaign's
        tests (see :mod:`repro.api.lease`); verdicts are identical with
        or without it.
        """


class SerialEngine(CampaignEngine):
    """The classic strictly-ordered test loop."""

    def run(
        self,
        runner: Runner,
        reporters: Sequence[Reporter] = (),
        cache: Optional[ExecutorCache] = None,
    ) -> CampaignResult:
        config = runner.config
        for reporter in reporters:
            reporter.on_campaign_start(runner.spec.name, config.tests)

        def produce():
            for index in range(config.tests):
                seed = _test_seed(config.seed, index)
                for reporter in reporters:
                    reporter.on_test_start(runner.spec.name, index, seed)
                yield index, _run_test(runner, random.Random(seed), cache)

        return _consume_campaign(runner, produce(), reporters)


class ParallelEngine(CampaignEngine):
    """Runs test indices on a pool of workers, merging by index.

    ``jobs`` bounds the worker count (default: the CPU count).  Indices
    flow through the :class:`~repro.api.pool.WorkerPool` task queue and
    workers publish ``(index, result)`` pairs; the merge replays the
    serial loop over the index-ordered results, so failure handling,
    shrinking and reporter output are exactly the serial engine's.

    A worker that dies mid-test (segfault, ``os._exit``, interrupt)
    is reported with the campaign *and* test index it was running.
    """

    def __init__(
        self, jobs: Optional[int] = None, transport: object = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.transport = transport

    def run(
        self,
        runner: Runner,
        reporters: Sequence[Reporter] = (),
        cache: Optional[ExecutorCache] = None,
    ) -> CampaignResult:
        tests = runner.config.tests
        workers = min(self.jobs, tests)
        # Remote transports own their capacity; only fall back to the
        # serial loop when the work genuinely stays on this host.
        remote = bool(getattr(self.transport, "remote", False))
        if workers <= 1 and not remote:
            return SerialEngine().run(runner, reporters, cache=cache)
        for reporter in reporters:
            reporter.on_campaign_start(runner.spec.name, tests)
        pool = WorkerPool(workers, transport=self.transport)
        tasks = campaign_tasks(runner, pool, cache=cache)
        try:
            outcomes = pool.run(tasks)
        except WorkerCrashed as crash:
            raise WorkerCrashed(
                f"parallel campaign for property {runner.spec.name!r}: "
                f"{crash}",
                in_flight=crash.in_flight,
                unreported=crash.unreported,
            ) from crash
        return self._merge(runner, outcomes, reporters)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def _merge(
        self,
        runner: Runner,
        outcomes: Dict[int, object],
        reporters: Sequence[Reporter],
    ) -> CampaignResult:
        return _merge_outcomes(runner, outcomes, reporters)


class AsyncEngine(CampaignEngine):
    """Runs test indices as concurrent sessions on one asyncio loop.

    Where :class:`ParallelEngine` buys throughput with *processes* --
    right when the work is CPU-bound -- this engine multiplexes up to
    ``concurrency`` sessions on a single loop, which is what I/O-bound
    executors need: while one session awaits a (real or injected)
    wire round-trip, the loop drives the others, so wall-clock tracks
    the *longest* session instead of the summed latency.  Results merge
    by index through the same :class:`CampaignMerge`, so verdicts,
    counterexamples and reporter streams are identical to the serial
    engine for the same seed.

    ``wrap`` optionally builds each session's async view of its
    checked-out executor (e.g. ``lambda ex: LatencyExecutor(ex,
    latency_ms=5)``); without it sessions run through the inline
    :class:`~repro.executors.base.SyncExecutorAdapter`, which never
    yields, so they run one after another.  ``metrics`` (a
    :class:`~repro.api.pool.PoolMetrics`) receives the in-flight gauges
    (``inflight_sessions``, ``mean_concurrency``, ``await_ratio``).
    """

    def __init__(
        self,
        concurrency: int = 8,
        wrap=None,
        metrics: Optional[PoolMetrics] = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError(
                f"concurrency must be at least 1, got {concurrency}"
            )
        self.concurrency = concurrency
        self.wrap = wrap
        self.metrics = metrics

    def run(
        self,
        runner: Runner,
        reporters: Sequence[Reporter] = (),
        cache: Optional[ExecutorCache] = None,
    ) -> CampaignResult:
        return asyncio.run(self.run_async(runner, reporters, cache=cache))

    async def run_async(
        self,
        runner: Runner,
        reporters: Sequence[Reporter] = (),
        cache: Optional[ExecutorCache] = None,
    ) -> CampaignResult:
        """:meth:`run` for callers that already own a loop."""
        for reporter in reporters:
            reporter.on_campaign_start(runner.spec.name, runner.config.tests)
        outcomes = await self._gather(runner, cache)
        return _merge_outcomes(runner, outcomes, reporters)

    async def _gather(
        self, runner: Runner, cache: Optional[ExecutorCache]
    ) -> Dict[int, object]:
        config = runner.config
        metrics = self.metrics
        wrap = self.wrap
        # Warm the shared spec state once, before sessions interleave
        # (same reason the pooled schedulers warm before forking).
        warm_watched = getattr(runner, "watched_events", None)
        if warm_watched is not None:
            warm_watched()
        warm_compiled = getattr(runner, "compiled_spec", None)
        if warm_compiled is not None:
            warm_compiled()

        semaphore = asyncio.Semaphore(self.concurrency)
        first_fail = [config.tests]
        inflight = [0]

        async def run_index(index: int):
            async with semaphore:
                if config.stop_on_failure and index > first_fail[0]:
                    # Unreachable in the serial loop; the merge stops at
                    # the failing index and never consumes this outcome.
                    return index, SKIPPED
                inflight[0] += 1
                if metrics is not None:
                    metrics.sample_inflight(inflight[0])
                try:
                    rng = random.Random(_test_seed(config.seed, index))
                    lease = (
                        None if cache is None
                        else cache.lease(runner.executor_factory)
                    )
                    try:
                        result = await runner.run_single_test_async(
                            rng, lease=lease, wrap=wrap
                        )
                    except Exception as err:
                        return index, TaskFailure(err)
                    if result.failed:
                        first_fail[0] = min(first_fail[0], index)
                    return index, result
                finally:
                    inflight[0] -= 1
                    if metrics is not None:
                        metrics.sample_inflight(inflight[0])

        active0 = time.perf_counter()
        cpu0 = time.process_time()
        pairs = await asyncio.gather(
            *(run_index(index) for index in range(config.tests))
        )
        if metrics is not None:
            metrics.session_active_s += time.perf_counter() - active0
            metrics.session_cpu_s += time.process_time() - cpu0
        return dict(pairs)


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _merge_outcomes(
    runner: Runner,
    outcomes: Dict[int, object],
    reporters: Sequence[Reporter],
) -> CampaignResult:
    """Replay the serial loop over index-keyed pool outcomes (shared by
    the parallel and async engines)."""
    config = runner.config
    merge = CampaignMerge(runner, reporters)
    for index in range(config.tests):
        if merge.complete:
            break
        seed = _test_seed(config.seed, index)
        for reporter in reporters:
            reporter.on_test_start(runner.spec.name, index, seed)
        merge.step_outcome(outcomes[index])
    return merge.finish()


class CampaignMerge:
    """THE campaign loop, as an incremental state machine.

    Every schedule -- the serial loop, the parallel engine's
    index-ordered replay, the cross-campaign scheduler's cursor --
    funnels its ``TestResult`` stream through one of these, in index
    order, so failure recording, shrinking, ``stop_on_failure`` and the
    ``on_test_end`` / ``on_counterexample`` / ``on_campaign_end``
    reporter sequence exist in exactly one place.  That single body is
    what makes "pooled ≡ serial verdicts" a structural property rather
    than a discipline.

    ``emit_lifecycle=True`` (the scheduler) additionally fires
    ``on_campaign_start`` (with the ``label`` as the target) and
    ``on_test_start`` from inside :meth:`step`; engines leave it off
    because their producers fire those events themselves -- the serial
    engine genuinely knows when a test *begins*.
    """

    def __init__(
        self,
        runner: Runner,
        reporters: Sequence[Reporter],
        label: Optional[str] = None,
        emit_lifecycle: bool = False,
    ) -> None:
        self.runner = runner
        self.reporters = reporters
        self.label = label
        self.emit_lifecycle = emit_lifecycle
        self.next_index = 0
        self.results: List[TestResult] = []
        self.counterexample: Optional[Counterexample] = None
        self.shrunk: Optional[Counterexample] = None
        self._stopped = False
        self._started = False
        self._finished: Optional[CampaignResult] = None
        #: Wall-clock bracket (first consumed result -> finish), for
        #: PoolMetrics.campaign_wall_s.  Campaigns overlap under
        #: pooling, so this measures merge-side latency, not CPU time.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self._stopped or self.next_index >= self.runner.config.tests

    @property
    def wall_s(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.started_at = time.perf_counter()
        if self.emit_lifecycle:
            for reporter in self.reporters:
                reporter.on_campaign_start(
                    self.runner.spec.name,
                    self.runner.config.tests,
                    target=self.label,
                )

    def step_outcome(self, outcome: object) -> None:
        """Consume a *pool* outcome (result, SKIPPED or TaskFailure)
        for ``next_index``."""
        if outcome == SKIPPED:
            # Only indices past the first failure are skipped; the merge
            # stops at that failure and never reaches one.
            where = f"campaign {self.label!r} " if self.label else ""
            raise AssertionError(
                f"{where}test {self.next_index} was skipped but the "
                "merge reached it"
            )
        if isinstance(outcome, TaskFailure):
            raise outcome.error
        self.step(outcome)

    def step(self, result: TestResult) -> None:
        """Consume the :class:`TestResult` for ``next_index``."""
        self.start()
        name = self.runner.spec.name
        index = self.next_index
        if self.emit_lifecycle:
            seed = _test_seed(self.runner.config.seed, index)
            for reporter in self.reporters:
                reporter.on_test_start(name, index, seed)
        self.results.append(result)
        for reporter in self.reporters:
            reporter.on_test_end(name, index, result)
        if result.failed:
            self.counterexample, self.shrunk = _record_failure(
                self.runner, result, self.reporters
            )
            if self.runner.config.stop_on_failure:
                self._stopped = True
        self.next_index += 1

    def finish(self) -> CampaignResult:
        if self._finished is None:
            self.start()  # zero-test edge: events still bracket properly
            self.finished_at = time.perf_counter()
            self._finished = CampaignResult(
                property_name=self.runner.spec.name,
                results=self.results,
                counterexample=self.counterexample,
                shrunk_counterexample=self.shrunk,
            )
            for reporter in self.reporters:
                reporter.on_campaign_end(self._finished)
        return self._finished


def _consume_campaign(
    runner: Runner, outcomes, reporters: Sequence[Reporter]
) -> CampaignResult:
    """Pull-driven wrapper over :class:`CampaignMerge` for the engines.

    ``outcomes`` is a lazy stream of ``(index, TestResult)`` pairs in
    index order; the producer fires ``on_test_start`` (it knows when a
    test actually begins).  Consuming lazily means a ``stop_on_failure``
    break also stops the serial producer from generating further tests.
    """
    merge = CampaignMerge(runner, reporters)
    for _index, result in outcomes:
        merge.step(result)
        if merge.complete:
            break
    return merge.finish()


def _record_failure(
    runner: Runner, result: TestResult, reporters: Sequence[Reporter]
) -> Tuple[Counterexample, Optional[Counterexample]]:
    """Build (and optionally shrink) the counterexample for a failing
    test; shared between engines so both report identically."""
    counterexample = Counterexample(
        actions=list(result.actions),
        trace=list(result.trace),
        verdict=result.verdict,
    )
    shrunk: Optional[Counterexample] = None
    if runner.config.shrink:
        from ..checker.shrink import shrink_counterexample

        shrunk = shrink_counterexample(runner, counterexample)
    for reporter in reporters:
        reporter.on_counterexample(runner.spec.name, counterexample, shrunk)
    return counterexample, shrunk
