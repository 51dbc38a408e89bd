"""Runner configuration."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunnerConfig"]


@dataclass
class RunnerConfig:
    """Tuning knobs for a checking campaign.

    ``scheduled_actions`` is the nominal trace length per test; the
    paper's Figure 13 equates it with the temporal-operator subscript.
    When the formula still *demands* more states at the scheduled end
    (required-next obligations pending), the runner keeps acting for up
    to ``demand_allowance`` extra actions before forcing a verdict via
    the polarity rule -- this is what eliminates the spurious
    counterexamples of Section 2.1 while keeping runs finite.

    The latency fields are virtual milliseconds: the paper observes that
    testing time is dominated by waiting, so simulated time is the
    meaningful cost model (and is what the benchmarks report).

    ``shrink`` minimises a failing test's counterexample by replay, and
    ``stop_on_failure`` ends the campaign at the first failing test.
    Every state the executor reports captures the spec's whole
    dependency set (the selectors of the session's ``Start``), so
    traces are complete whatever the formula still reads.
    """

    tests: int = 20
    scheduled_actions: int = 100
    demand_allowance: int = 50
    seed: int = 0
    decision_latency_ms: float = 100.0
    settle_ms: float = 300.0
    idle_wait_ms: float = 1000.0
    max_states: int = 5000
    shrink: bool = True
    stop_on_failure: bool = True

    def __post_init__(self) -> None:
        """Fail fast on misconfigured campaigns (e.g. zero tests would
        otherwise "pass" vacuously)."""
        if self.tests < 1:
            raise ValueError(f"tests must be at least 1, got {self.tests}")
        for name in ("scheduled_actions", "demand_allowance", "max_states"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        for name in ("decision_latency_ms", "settle_ms", "idle_wait_ms"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
