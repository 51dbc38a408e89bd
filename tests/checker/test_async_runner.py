"""The async/sync seam: one session loop, two faces.

``Runner.run_single_test`` is ``run_single_test_async`` driven to
completion inline -- the session view is a never-yielding
``SyncExecutorAdapter``.  Identity is therefore by construction, but
these tests pin it observationally anyway: hypothesis-generated fuzz
machines (the same generator the differential fuzzer uses) must produce
byte-identical :class:`TestResult`\\ s through both entry points, with
and without latency injection.  Both entry points lease from the same
synchronous :class:`ExecutorCache`, so warmth carries across them.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engines import _test_seed
from repro.api.lease import ExecutorCache
from repro.api.session import _coerce_executor_factory
from repro.apps.eggtimer import egg_timer_app
from repro.checker import Runner, RunnerConfig
from repro.checker.runner import _drive_inline
from repro.executors import (
    DomExecutor,
    LatencyExecutor,
    SyncExecutorAdapter,
)
from repro.fuzz import generate_campaign, machine_app
from repro.specs import load_eggtimer_spec


def _fuzz_runner(campaign, fault):
    factory = _coerce_executor_factory(machine_app(campaign.machine, fault))
    return Runner(campaign.check_spec(), factory, campaign.config())


def _comparable(result):
    """A TestResult with the intern counters zeroed.

    The hash-cons table is process-global, so whichever drive runs
    second inherits a warmer table; hits/misses are telemetry, never
    semantics (see ``TestResult``'s docstring), and are excluded the
    same way the fuzz oracles exclude them.
    """
    result.intern_hits = result.intern_misses = 0
    return result


class TestAsyncSyncEquivalence:
    """The seam identity, hypothesis-driven over fuzz machines."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 3))
    def test_async_drive_equals_sync_drive(self, seed, index):
        campaign = generate_campaign(seed, 0)
        targets = campaign.targets()
        _, fault = targets[index % len(targets)]
        runner = _fuzz_runner(campaign, fault)
        test_seed = _test_seed(campaign.config().seed, index)

        sync_result = runner.run_single_test(random.Random(test_seed))
        async_result = asyncio.run(
            runner.run_single_test_async(random.Random(test_seed))
        )
        assert _comparable(sync_result) == _comparable(async_result)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_latency_wrapping_changes_nothing_but_wall_clock(self, seed):
        # A LatencyExecutor between the driver and the app must be
        # invisible to the verdict, the trace and the virtual clock.
        campaign = generate_campaign(seed, 0)
        _, fault = campaign.targets()[-1]
        runner = _fuzz_runner(campaign, fault)
        test_seed = _test_seed(campaign.config().seed, 0)

        plain = runner.run_single_test(random.Random(test_seed))
        wrapped = asyncio.run(
            runner.run_single_test_async(
                random.Random(test_seed),
                wrap=lambda executor: LatencyExecutor(
                    executor, latency_ms=0, seed=seed
                ),
            )
        )
        assert _comparable(plain) == _comparable(wrapped)

    def test_real_latency_still_agrees_on_the_eggtimer(self):
        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=1, scheduled_actions=8,
                              demand_allowance=6, seed=3, shrink=False)
        runner = Runner(spec, lambda: DomExecutor(egg_timer_app()), config)
        sync_result = runner.run_single_test(random.Random("egg/0"))
        async_result = asyncio.run(
            runner.run_single_test_async(
                random.Random("egg/0"),
                wrap=lambda executor: LatencyExecutor(
                    executor, latency_ms=2, seed=1
                ),
            )
        )
        assert _comparable(sync_result) == _comparable(async_result)

    def test_leased_async_drive_agrees_and_runs_warm(self):
        campaign = generate_campaign(77, 0)
        runner = _fuzz_runner(campaign, None)
        test_seed = _test_seed(campaign.config().seed, 0)
        baseline = runner.run_single_test(random.Random(test_seed))

        async def leased_pair():
            cache = ExecutorCache(enabled=True, depth=2)
            lease = cache.lease(runner.executor_factory)
            first = await runner.run_single_test_async(
                random.Random(test_seed), lease=lease
            )
            cold_warm = lease.warm
            lease = cache.lease(runner.executor_factory)
            second = await runner.run_single_test_async(
                random.Random(test_seed), lease=lease
            )
            cache.close()
            return first, second, cold_warm, lease.warm

        first, second, first_warm, second_warm = asyncio.run(leased_pair())
        assert _comparable(first) == _comparable(baseline)
        assert _comparable(second) == _comparable(baseline)
        assert first_warm is False  # cold start
        assert second_warm is True  # reused the parked session


class TestSharedLease:
    """One synchronous lease serves both entry points: warmth parked by
    one is reused by the other, and a session's async view never
    outlives the session."""

    def test_sync_checkin_warms_the_async_entry_point(self):
        campaign = generate_campaign(77, 0)
        runner = _fuzz_runner(campaign, None)
        test_seed = _test_seed(campaign.config().seed, 1)
        cold = runner.run_single_test(random.Random(test_seed))

        cache = ExecutorCache(enabled=True)
        try:
            first = cache.lease(runner.executor_factory)
            runner.run_single_test(
                random.Random(_test_seed(campaign.config().seed, 0)),
                lease=first,
            )
            second = cache.lease(runner.executor_factory)
            warm = asyncio.run(runner.run_single_test_async(
                random.Random(test_seed), lease=second
            ))
        finally:
            cache.close()
        assert first.warm is False
        assert second.warm is True
        assert _comparable(warm) == _comparable(cold)

    def test_warm_latency_worker_session_draws_the_cold_delays(
        self, monkeypatch
    ):
        """A worker session's LatencyExecutor view is seeded by its own
        test index and built per session, so a warm session injects
        exactly the delays a cold one does."""
        from repro.api.transport.worker import _run_one
        from repro.executors.base import LatencyExecutor as Latency

        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=2, scheduled_actions=4,
                              demand_allowance=2, seed=5, shrink=False)
        runner = Runner(spec, lambda: DomExecutor(egg_timer_app()), config)

        class Runners:
            def runner_for(self, descriptor):
                return runner

        draws = []
        original = Latency.next_delay_ms

        def recording(self):
            delay = original(self)
            draws.append(delay)
            return delay

        monkeypatch.setattr(Latency, "next_delay_ms", recording)

        def session(cache, index):
            frames = []
            draws.clear()
            asyncio.run(_run_one(
                {"id": index, "epoch": 1,
                 "body": {"runner": {}, "index": index}},
                Runners(), cache, frames.append, 0.2,
            ))
            (frame,) = frames
            assert frame["type"] == "result", frame
            return frame, list(draws)

        shared = ExecutorCache(enabled=True)
        cold_first, _ = session(shared, 0)
        warm, warm_draws = session(shared, 1)
        cold, cold_draws = session(ExecutorCache(enabled=True), 1)
        shared.close()
        assert cold_first["cold_starts"] == 1
        assert warm["warm_hits"] == 1
        assert cold["cold_starts"] == 1
        assert warm_draws and warm_draws == cold_draws


class TestSeamGuards:
    """Misuse fails loudly rather than deadlocking or diverging."""

    @pytest.mark.parametrize("entry", ["sync", "async"])
    def test_entry_points_reject_async_factories(self, entry):
        spec = load_eggtimer_spec().check_named("safety")
        runner = Runner(
            spec,
            lambda: SyncExecutorAdapter(DomExecutor(egg_timer_app())),
            RunnerConfig(tests=1, scheduled_actions=4,
                         demand_allowance=4, seed=0, shrink=False),
        )
        with pytest.raises(TypeError, match="AsyncExecutor"):
            if entry == "sync":
                runner.run_single_test(random.Random(0))
            else:
                asyncio.run(runner.run_single_test_async(random.Random(0)))

    def test_sync_lease_rejects_async_factories(self):
        from repro.protocol.messages import Start

        cache = ExecutorCache(enabled=True)
        lease = cache.lease(
            lambda: SyncExecutorAdapter(DomExecutor(egg_timer_app()))
        )
        with pytest.raises(TypeError):
            lease.checkout(Start(frozenset(), ()))

    def test_drive_inline_raises_on_a_yielding_executor(self):
        async def actually_blocks():
            await asyncio.sleep(0)

        with pytest.raises(RuntimeError, match="suspended"):
            _drive_inline(actually_blocks())
