"""The CCS executor behind the standard executor interface."""

import pytest

from repro.executors import CCSExecutor, parse_definitions
from repro.executors.domexec import ActionFailed
from repro.protocol.messages import Acted, Act, Event, Start, Timeout
from repro.specstrom.actions import ResolvedAction


@pytest.fixture()
def vending():
    defs, initial = parse_definitions(
        """
        Idle = coin.Choose
        Choose = tea.Idle + coffee.Idle
        Idle
        """
    )
    executor = CCSExecutor(initial, defs, tau_period_ms=0)
    executor.start(Start(frozenset({"coin", "tea", "coffee"})))
    return executor


def ccs_act(label, version):
    return Act(ResolvedAction("ccs", label, 0, ()), f"{label}!", version)


class TestBasicDriving:
    def test_loaded_event_shows_enabled_labels(self, vending):
        (loaded,) = vending.drain()
        assert isinstance(loaded, Event)
        assert loaded.state.queries["coin"]  # enabled
        assert not loaded.state.queries["tea"]  # not yet

    def test_act_moves_the_process(self, vending):
        vending.drain()
        assert vending.act(ccs_act("coin", 1)) is True
        (acted,) = vending.drain()
        assert isinstance(acted, Acted)
        assert acted.state.queries["tea"] and acted.state.queries["coffee"]
        assert not acted.state.queries["coin"]

    def test_disabled_label_fails(self, vending):
        vending.drain()
        with pytest.raises(ActionFailed):
            vending.act(ccs_act("tea", 1))

    def test_non_ccs_primitive_rejected(self, vending):
        vending.drain()
        with pytest.raises(ActionFailed):
            vending.act(Act(ResolvedAction("click", "#x", 0, ()), "x!", 1))

    def test_stale_version_ignored(self, vending):
        vending.drain()
        vending.act(ccs_act("coin", 1))
        assert vending.act(ccs_act("tea", 1)) is False  # version now 2
        assert vending.recorder.stale_rejections == 1

    def test_await_events_times_out_quietly(self, vending):
        vending.drain()
        vending.await_events(300.0)
        (timeout,) = vending.drain()
        assert isinstance(timeout, Timeout)

    def test_restart_captures_its_dependency_set(self, vending):
        vending.drain()
        vending.start(Start(frozenset({"coin", "tea"})))
        (loaded,) = vending.drain()
        assert set(loaded.state.queries) == {"coin", "tea"}


class TestTauActivity:
    @pytest.fixture()
    def flaky(self):
        defs, initial = parse_definitions(
            """
            Idle = coin.Busy
            Busy = tau.Idle
            Idle
            """
        )
        executor = CCSExecutor(initial, defs, tau_period_ms=200.0)
        executor.start(Start(frozenset({"coin"})))
        return executor

    def test_tau_fires_on_period_and_reports_event(self, flaky):
        flaky.drain()
        flaky.act(ccs_act("coin", 1))
        flaky.drain()
        flaky.pass_time(250.0)
        messages = flaky.drain()
        assert any(isinstance(m, Event) and m.name == "tau?" for m in messages)
        # Back to Idle: coin is enabled again.
        assert messages[-1].state.queries["coin"]

    def test_tau_makes_requests_stale(self, flaky):
        flaky.drain()
        flaky.act(ccs_act("coin", 1))
        flaky.drain()
        flaky.pass_time(250.0)  # tau fired -> version 3
        assert flaky.act(ccs_act("coin", 2)) is False

    def test_await_events_stops_at_tau(self, flaky):
        flaky.drain()
        flaky.act(ccs_act("coin", 1))
        flaky.drain()
        flaky.await_events(10_000.0)
        messages = flaky.drain()
        assert len(messages) == 1
        assert isinstance(messages[0], Event)
        assert flaky.now_ms == 200.0
