"""Differential oracles: two independent answers, one allowed outcome.

Three cross-checks, in increasing scope, plus the recorder they share:

* **Trace oracle** (:func:`direct_oracle_mismatch`): the end-to-end
  verdict of one test must be reproducible from its recorded trace by
  the *independent* reference semantics, :func:`repro.quickltl.direct_eval`,
  evaluated over growing prefixes exactly the way the incremental
  checker consumes states (progression ≡ direct on every prefix is the
  QuickLTL correctness theorem, property-tested in
  ``tests/quickltl/test_progression_vs_direct.py``; this oracle extends
  it end-to-end: through the executor, the runner loop, staleness,
  budget exhaustion and the forced-verdict polarity rule).  Every
  recorded state captures the spec's whole dependency set, so the
  reference semantics can read any query it evaluates.
* **Path oracle** (:func:`compare_campaigns`): the same campaign run on
  different schedules (serial, pooled, warm-reuse, async) must produce
  identical verdicts, per-test results, counterexamples and reporter
  event streams.
* **Monitor oracle** (:func:`monitor_oracle_mismatch`): the recorded
  traces of a campaign, re-encoded onto the monitor wire format and
  streamed through :class:`~repro.monitor.service.Monitor` as
  interleaved concurrent sessions, must resolve to exactly the offline
  per-test verdicts (including the forced flag).  This exercises the
  whole online path -- codec, session table, batch progression,
  end-record forcing -- against the runner's ground truth.
* **Event-stream recording** (:class:`RecordingReporter`): a reporter
  that reduces every hook invocation to a comparable tuple, so "the
  reporter event streams are identical" is a list equality.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..checker.result import CampaignResult, TestResult
from ..monitor.replay import monitor_verdicts
from ..quickltl import FormulaChecker, Verdict, direct_eval
from ..specstrom.module import CheckSpec
from ..api.reporters import Reporter

__all__ = [
    "RecordingReporter",
    "expected_outcome",
    "direct_oracle_mismatch",
    "monitor_oracle_mismatch",
    "compare_campaigns",
]


def expected_outcome(
    spec: CheckSpec, trace_states: Sequence[object]
) -> Tuple[Verdict, bool]:
    """What the end-to-end run *must* have concluded from these states.

    Replays the runner's observation discipline against the reference
    evaluator: states are consumed in order, checking stops at the first
    definitive prefix verdict; if the trace runs out while the formula
    still demands states, the forced verdict is computed from a fresh
    progression checker's residual (the polarity rule needs the stepped
    formula, which the direct semantics deliberately does not build).

    Returns ``(verdict, forced)``.
    """
    if not trace_states:
        raise ValueError("a test trace always contains the loaded? state")
    verdict = Verdict.DEMAND
    for length in range(1, len(trace_states) + 1):
        verdict = direct_eval(spec.formula, trace_states[:length])
        if verdict.is_definitive:
            return verdict, False
    if verdict is not Verdict.DEMAND:
        return verdict, False
    checker = FormulaChecker(spec.formula)
    for state in trace_states:
        checker.observe(state)
    return checker.force(), True


def direct_oracle_mismatch(
    spec: CheckSpec, result: TestResult
) -> Optional[str]:
    """Check one test result against the reference semantics.

    Returns ``None`` when the verdicts agree, else a human-readable
    description of the disagreement.
    """
    states = [entry.state for entry in result.trace]
    if not states:
        return "test recorded an empty trace"
    expected, expected_forced = expected_outcome(spec, states)
    if result.verdict is not expected or result.forced != expected_forced:
        return (
            f"end-to-end verdict {result.verdict.name}"
            f"{' (forced)' if result.forced else ''} but the direct "
            f"reference semantics gives {expected.name}"
            f"{' (forced)' if expected_forced else ''} over the same "
            f"{len(states)}-state trace"
        )
    return None


def monitor_oracle_mismatch(
    spec: CheckSpec, results: Sequence[TestResult]
) -> Optional[str]:
    """Replay recorded test traces through the online monitor.

    Each test becomes one monitor session (its trace re-encoded onto
    the wire format, closed with an end record); the sessions stream
    interleaved, so the monitor juggles them concurrently the way live
    traffic would.  Returns ``None`` when every session's verdict (and
    forced flag) equals the offline test's, else the first disagreement.

    The same sessions replay a second time through a 2-way inline
    :class:`~repro.monitor.shard.ShardedMonitor` -- the sharded(N) ≡
    single-process invariant checked on every generated campaign, not
    just the curated test streams.
    """
    sessions = {
        f"test{index:04d}": [entry.state for entry in result.trace]
        for index, result in enumerate(results)
    }
    for shards, flavour in ((None, "monitor"), (2, "2-shard monitor")):
        verdicts = monitor_verdicts(spec, sessions, shards=shards)
        for index, result in enumerate(results):
            session = verdicts.get(f"test{index:04d}")
            if session is None:
                return f"test {index}: the {flavour} emitted no verdict"
            if (
                session.verdict != result.verdict.name
                or session.forced != result.forced
            ):
                return (
                    f"test {index}: offline verdict {result.verdict.name}"
                    f"{' (forced)' if result.forced else ''} but the "
                    f"{flavour} resolved the replayed session to "
                    f"{session.verdict}"
                    f"{' (forced)' if session.forced else ''} "
                    f"[{session.disposition}] over the same "
                    f"{len(result.trace)}-state trace"
                )
    return None


# ----------------------------------------------------------------------
# Path differencing
# ----------------------------------------------------------------------


class RecordingReporter(Reporter):
    """Reduces the reporter lifecycle to comparable event tuples.

    Results and counterexamples are projected to value-comparable parts
    (verdict names, action lists) so two runs can be compared with plain
    list equality across process boundaries.
    """

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def on_session_start(self, campaigns: int) -> None:
        self.events.append(("session_start", campaigns))

    def on_campaign_start(self, property_name, tests, target=None) -> None:
        self.events.append(("campaign_start", property_name, tests, target))

    def on_test_start(self, property_name, index, seed) -> None:
        self.events.append(("test_start", property_name, index, seed))

    def on_test_end(self, property_name, index, result: TestResult) -> None:
        self.events.append(
            (
                "test_end",
                property_name,
                index,
                result.verdict.name,
                result.forced,
                result.actions_taken,
                result.states_observed,
            )
        )

    def on_counterexample(self, property_name, counterexample, shrunk) -> None:
        self.events.append(
            (
                "counterexample",
                property_name,
                _action_signature(counterexample.actions),
                None if shrunk is None else _action_signature(shrunk.actions),
            )
        )

    def on_campaign_end(self, result: CampaignResult) -> None:
        self.events.append(
            ("campaign_end", result.property_name, result.tests_run,
             result.passed)
        )

    def on_session_end(self, outcomes, metrics=None) -> None:
        # Pool metrics legitimately differ between schedules; only the
        # outcome projection takes part in the differential comparison.
        self.events.append(
            ("session_end",
             tuple((target, result.passed) for target, result in outcomes))
        )


def _action_signature(actions) -> tuple:
    return tuple((name, resolved.describe()) for name, resolved in actions)


def _campaign_signature(result: CampaignResult) -> tuple:
    return (
        result.property_name,
        result.passed,
        tuple(
            (r.verdict.name, r.forced, r.actions_taken, r.states_observed,
             _action_signature(r.actions))
            for r in result.results
        ),
        None
        if result.counterexample is None
        else _action_signature(result.counterexample.actions),
        None
        if result.shrunk_counterexample is None
        else _action_signature(result.shrunk_counterexample.actions),
    )


def compare_campaigns(
    label: str,
    baseline: CampaignResult,
    candidate: CampaignResult,
) -> Optional[str]:
    """Compare two runs of the same campaign on different schedules.

    Returns ``None`` when observationally identical, else a description
    of the first difference found.
    """
    left, right = _campaign_signature(baseline), _campaign_signature(candidate)
    if left == right:
        return None
    if left[1] != right[1]:
        return (
            f"{label}: pass/fail disagrees (baseline "
            f"{'passed' if left[1] else 'failed'}, candidate "
            f"{'passed' if right[1] else 'failed'})"
        )
    if left[2] != right[2]:
        return f"{label}: per-test results disagree"
    if left[3] != right[3]:
        return f"{label}: counterexamples disagree"
    if left[4] != right[4]:
        return f"{label}: shrunk counterexamples disagree"
    return f"{label}: campaign results disagree"
