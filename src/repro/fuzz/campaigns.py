"""The fuzz driver: generated campaigns, differential paths, scoreboard.

One *fuzz campaign* is a generated machine, a generated specification
and a family of twins -- the correct app plus up to a few faulty
mutants.  :func:`run_campaign` runs the family as one batch on four
legs:

* ``serial``  -- ``jobs=1``, cold executors (the reference schedule),
* ``pooled``  -- the :class:`~repro.api.scheduler.PooledScheduler` on a
  forked worker pool, cold executors,
* ``warm``    -- the pooled schedule with warm executor reuse
  (the ``Reset`` protocol path),
* ``async``   -- every target through the
  :class:`~repro.api.engines.AsyncEngine`, each session driven by the
  awaitable protocol through a zero-latency
  :class:`~repro.executors.base.LatencyExecutor` view, which yields to
  the loop once per wire call so four sessions interleave.

All four must agree -- verdicts, per-test results, counterexamples,
and (for the batch-shaped serial/pooled/warm legs) reporter event
streams.  The serial leg's recorded traces then feed two oracles:
every test must agree with the direct-semantics trace oracle
(:func:`~repro.fuzz.oracles.direct_oracle_mismatch`), and replayed
through the *online monitor* as interleaved concurrent sessions
(:func:`~repro.fuzz.oracles.monitor_oracle_mismatch`) the per-session
verdicts must equal the offline per-test verdicts.  Model-spec
campaigns additionally feed the fault-detection scoreboard (the
generated analogue of the paper's Table 2): the correct twin must
pass, and a failing faulty twin counts as a detection whose minimized
counterexample is persisted to the corpus.

Any disagreement is *shrunk* (fewer tests, shorter action budget, while
it still reproduces) and persisted as a replayable JSONL corpus entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..api.config import SessionConfig
from ..api.scheduler import CampaignSetResult, CheckTarget
from ..api.session import CheckSession
from ..checker.config import RunnerConfig
from ..specstrom.module import CheckSpec, load_module
from .corpus import CorpusEntry, append_entry
from .machine import (
    MachineFault,
    MachineSpec,
    fault_candidates,
    generate_machine,
    machine_app,
)
from .oracles import (
    RecordingReporter,
    compare_campaigns,
    direct_oracle_mismatch,
    monitor_oracle_mismatch,
)
from .specgen import model_spec_source, random_spec_source

__all__ = [
    "FuzzCampaign",
    "Divergence",
    "FuzzReport",
    "generate_campaign",
    "generate_campaigns",
    "run_campaign",
    "run_fuzz",
    "replay_divergence",
]

#: Extra actions granted past the schedule while the formula demands
#: states; small, so the forced-verdict path is exercised often.
DEMAND_ALLOWANCE = 6


@dataclass(frozen=True)
class FuzzCampaign:
    """One generated scenario, fully determined by ``(seed, index)``."""

    seed: int
    index: int
    machine: MachineSpec
    faults: Tuple[MachineFault, ...]
    spec_kind: str  # "model" | "random"
    spec_source: str
    tests: int
    scheduled_actions: int
    default_subscript: int

    def config(self) -> RunnerConfig:
        return RunnerConfig(
            tests=self.tests,
            scheduled_actions=self.scheduled_actions,
            demand_allowance=DEMAND_ALLOWANCE,
            seed=f"fuzz/{self.seed}/{self.index}",
            shrink=True,
        )

    def check_spec(self) -> CheckSpec:
        module = load_module(
            self.spec_source, default_subscript=self.default_subscript
        )
        return module.checks[0]

    def targets(self) -> List[Tuple[str, Optional[MachineFault]]]:
        named = [("correct", None)]
        named.extend(
            (f"fault{i}:{fault.kind}", fault)
            for i, fault in enumerate(self.faults)
        )
        return named


def generate_campaign(seed: int, index: int) -> FuzzCampaign:
    """Draw campaign ``index`` of master seed ``seed`` (deterministic)."""
    rng = random.Random(f"fuzz-campaign/{seed}/{index}")
    machine = generate_machine(rng.randrange(2**31))
    spec_kind = "model" if rng.random() < 0.65 else "random"
    if spec_kind == "model":
        spec_source = model_spec_source(machine)
        candidates = fault_candidates(machine)
        twins = min(len(candidates), rng.randint(1, 2))
        faults = tuple(rng.sample(candidates, twins)) if twins else ()
    else:
        spec_source = random_spec_source(machine, rng.randrange(2**31))
        candidates = fault_candidates(machine)
        faults = (rng.choice(candidates),) if candidates else ()
    scheduled_actions = rng.randint(6, 10)
    return FuzzCampaign(
        seed=seed,
        index=index,
        machine=machine,
        faults=faults,
        spec_kind=spec_kind,
        spec_source=spec_source,
        tests=rng.randint(2, 3),
        scheduled_actions=scheduled_actions,
        default_subscript=scheduled_actions,
    )


def generate_campaigns(seed: int, count: int) -> List[FuzzCampaign]:
    return [generate_campaign(seed, index) for index in range(count)]


# ----------------------------------------------------------------------
# Running one campaign
# ----------------------------------------------------------------------


@dataclass
class Divergence:
    """One differential-oracle failure, tied to a single target."""

    campaign_index: int
    target: str
    kind: str  # "path" | "oracle" | "false_positive" | "event_stream"
    detail: str
    entry: CorpusEntry


@dataclass
class CampaignOutcomeSummary:
    """What one fuzz campaign contributed."""

    campaign: FuzzCampaign
    divergences: List[Divergence]
    detections: List[Tuple[MachineFault, bool]]  # model-spec twins only
    counterexamples: List[CorpusEntry]
    tests_run: int
    #: Detections whose minimized counterexample did not reproduce under
    #: replay (stale rejections make the dispatched-action sequence
    #: timing-sensitive).  Not corpus material, but never silent either.
    nonreplayable: int = 0


class _AsyncOutcome:
    """Target/result pair shaped like a ``CampaignSet`` outcome, so the
    async leg zips against the serial batch like every other path."""

    __slots__ = ("target", "result")

    def __init__(self, target: str, result) -> None:
        self.target = target
        self.result = result


def async_leg_engine(metrics=None):
    """The async leg's engine: four sessions in flight on one loop,
    each seen through a zero-latency
    :class:`~repro.executors.base.LatencyExecutor`.  No delay is drawn,
    but every wire call yields to the loop, so sessions genuinely
    interleave at protocol-call granularity (``metrics``, a
    :class:`~repro.api.pool.PoolMetrics`, records how many were in
    flight at once)."""
    from ..api.engines import AsyncEngine
    from ..executors import LatencyExecutor

    return AsyncEngine(
        concurrency=4,
        wrap=lambda executor: LatencyExecutor(executor, latency_ms=0),
        metrics=metrics,
    )


def _async_leg(
    machine: MachineSpec,
    named_faults,
    check: CheckSpec,
    config: RunnerConfig,
) -> Tuple[List[_AsyncOutcome], None]:
    """The async leg: every target's campaign on
    :func:`async_leg_engine`, so any verdict drift the async driver or
    interleaved sessions could introduce shows up as a campaign-result
    difference against serial.  The reporter stream is engine-shaped
    rather than batch-shaped, so only results are compared (the stream
    oracle already runs on the pooled/warm legs).
    """
    from ..api.session import _coerce_executor_factory
    from ..checker.runner import Runner

    engine = async_leg_engine()
    outcomes = []
    for name, fault in named_faults:
        factory = _coerce_executor_factory(machine_app(machine, fault))
        runner = Runner(check, factory, config)
        outcomes.append(_AsyncOutcome(name, engine.run(runner)))
    return outcomes, None


def _run_paths(
    machine: MachineSpec,
    named_faults,
    check: CheckSpec,
    config: RunnerConfig,
    jobs: int,
) -> Dict[str, Tuple[CampaignSetResult, RecordingReporter]]:
    """The same batch on the legs under comparison."""
    runs: Dict[str, Tuple[CampaignSetResult, RecordingReporter]] = {}
    for path, path_jobs, reuse in (
        ("serial", 1, False),
        ("pooled", jobs, False),
        ("warm", jobs, True),
    ):
        recorder = RecordingReporter()
        session = CheckSession(reporters=[recorder])
        targets = [
            CheckTarget(name, machine_app(machine, fault))
            for name, fault in named_faults
        ]
        batch = session.check_many(
            targets,
            spec=check,
            config=config,
            session=SessionConfig(jobs=path_jobs, reuse_executors=reuse),
        )
        runs[path] = (batch, recorder)
    runs["async"] = _async_leg(machine, named_faults, check, config)
    return runs


def _campaign_divergences(
    campaign: FuzzCampaign,
    named_faults,
    check: CheckSpec,
    runs,
    jobs: int,
) -> List[Divergence]:
    """Path and trace-oracle disagreements of one batch run."""
    divergences: List[Divergence] = []
    serial_batch, serial_recorder = runs["serial"]
    fault_by_target = dict(named_faults)

    def record(target: str, kind: str, detail: str) -> None:
        divergences.append(
            Divergence(
                campaign_index=campaign.index,
                target=target,
                kind=kind,
                detail=detail,
                entry=_divergence_entry(
                    campaign, fault_by_target.get(target), kind, detail, jobs
                ),
            )
        )

    for path in ("pooled", "warm"):
        batch, recorder = runs[path]
        for baseline, candidate in zip(serial_batch, batch):
            difference = compare_campaigns(
                f"{path} vs serial on {baseline.target!r}",
                baseline.result,
                candidate.result,
            )
            if difference is not None:
                record(baseline.target, "path", difference)
        if recorder.events != serial_recorder.events:
            record(
                "correct",
                "event_stream",
                f"{path} reporter event stream differs from serial",
            )
    # The trace oracle and the monitor leg read the serial leg's
    # traces: the reference semantics, then the online monitor with the
    # traces replayed as interleaved concurrent sessions.
    for outcome in serial_batch:
        for test_index, result in enumerate(outcome.result.results):
            mismatch = direct_oracle_mismatch(check, result)
            if mismatch is not None:
                record(
                    outcome.target,
                    "oracle",
                    f"test {test_index}: {mismatch}",
                )
        mismatch = monitor_oracle_mismatch(check, outcome.result.results)
        if mismatch is not None:
            record(outcome.target, "monitor", mismatch)
    # The async session engine must reproduce the serial schedule
    # exactly (verdicts, per-test results, counterexamples).
    async_batch, _ = runs["async"]
    for baseline, candidate in zip(serial_batch, async_batch):
        difference = compare_campaigns(
            f"async vs serial on {baseline.target!r}",
            baseline.result,
            candidate.result,
        )
        if difference is not None:
            record(baseline.target, "async", difference)
    return divergences


def _divergence_entry(
    campaign: FuzzCampaign,
    fault: Optional[MachineFault],
    kind: str,
    detail: str,
    jobs: int,
) -> CorpusEntry:
    config = campaign.config()
    return CorpusEntry(
        kind="divergence",
        detail=f"[{kind}] {detail}",
        machine=campaign.machine,
        fault=fault,
        spec_source=campaign.spec_source,
        spec_kind=campaign.spec_kind,
        config={
            "tests": config.tests,
            "scheduled_actions": config.scheduled_actions,
            "demand_allowance": config.demand_allowance,
            "seed": config.seed,
            "shrink": config.shrink,
        },
        default_subscript=campaign.default_subscript,
        campaign_seed=campaign.seed,
        extra={
            "campaign_index": campaign.index,
            "divergence_kind": kind,
            # Replay fidelity: a pooled/event-stream divergence can
            # depend on the whole batch shape and the pool width, so the
            # entry records every twin of the original batch and the
            # jobs it ran with -- the replay rebuilds that batch, not a
            # one-target approximation of it.
            "jobs": jobs,
            "twins": [f.to_dict() for f in campaign.faults],
        },
    )


def _entry_batch(entry: CorpusEntry) -> List[Tuple[str, Optional[MachineFault]]]:
    """The original batch's (label, fault) twins, as recorded."""
    twins = entry.extra.get("twins")
    if twins is None:
        # Entries from before the batch shape was recorded: fall back
        # to the single target the divergence was attributed to.
        return [("target", entry.fault)]
    named = [("correct", None)]
    named.extend(
        (f"fault{i}:{fault['kind']}", MachineFault.from_dict(fault))
        for i, fault in enumerate(twins)
    )
    return named


def _target_diverges(entry: CorpusEntry, jobs: Optional[int] = None) -> bool:
    """Re-run one corpus entry's batch through all oracles.  Used by
    divergence shrinking and by corpus replay."""
    if jobs is None:
        jobs = int(entry.extra.get("jobs", 2))
    check = entry.check_spec()
    config = entry.runner_config()
    named = _entry_batch(entry)
    runs = _run_paths(entry.machine, named, check, config, jobs)
    serial_batch, serial_recorder = runs["serial"]
    for path in ("pooled", "warm", "async"):
        batch, recorder = runs[path]
        for baseline, candidate in zip(serial_batch, batch):
            if compare_campaigns("replay", baseline.result,
                                 candidate.result) is not None:
                return True
        if recorder is not None and recorder.events != serial_recorder.events:
            return True
    for outcome in serial_batch:
        for result in outcome.result.results:
            if direct_oracle_mismatch(check, result) is not None:
                return True
        if monitor_oracle_mismatch(check, outcome.result.results) is not None:
            return True
    # A false positive is the model spec failing its correct twin.
    if (
        entry.extra.get("divergence_kind") == "false_positive"
        and not serial_batch[0].result.passed
    ):
        return True
    return False


def _shrink_divergence(entry: CorpusEntry, jobs: int) -> CorpusEntry:
    """Greedy campaign-level shrink: fewest tests, then the shortest
    action budget, that still reproduce the divergence."""
    best = entry
    for tests in (1, 2):
        if tests >= best.config["tests"]:
            break
        candidate = _with_config(best, tests=tests)
        if _target_diverges(candidate, jobs):
            best = candidate
            break
    budget = best.config["scheduled_actions"]
    while budget > 1:
        candidate = _with_config(best, scheduled_actions=budget // 2)
        if not _target_diverges(candidate, jobs):
            break
        best = candidate
        budget //= 2
    return best


def _with_config(entry: CorpusEntry, **overrides) -> CorpusEntry:
    config = dict(entry.config)
    config.update(overrides)
    return CorpusEntry(
        kind=entry.kind,
        detail=entry.detail,
        machine=entry.machine,
        fault=entry.fault,
        spec_source=entry.spec_source,
        spec_kind=entry.spec_kind,
        config=config,
        default_subscript=entry.default_subscript,
        campaign_seed=entry.campaign_seed,
        extra=entry.extra,
    )


def replay_divergence(entry: CorpusEntry) -> Optional[str]:
    """Corpus replay hook: ``None`` when the divergence still
    reproduces, else a description (it was fixed).  The batch shape and
    pool width recorded in the entry are reused verbatim."""
    if _target_diverges(entry):
        return None
    return "the recorded divergence no longer reproduces"


def run_campaign(
    campaign: FuzzCampaign,
    jobs: int = 2,
    shrink_divergences: bool = True,
) -> CampaignOutcomeSummary:
    """Run one fuzz campaign through every oracle."""
    check = campaign.check_spec()
    config = campaign.config()
    named_faults = [
        (name, fault)
        for name, fault in campaign.targets()
    ]
    runs = _run_paths(campaign.machine, named_faults, check, config, jobs)
    divergences = _campaign_divergences(campaign, named_faults, check, runs,
                                        jobs)

    serial_batch, _ = runs["serial"]
    detections: List[Tuple[MachineFault, bool]] = []
    counterexamples: List[CorpusEntry] = []
    nonreplayable = 0
    tests_run = sum(o.result.tests_run for o in serial_batch)
    if campaign.spec_kind == "model":
        by_target = {o.target: o.result for o in serial_batch}
        correct = by_target["correct"]
        if not correct.passed:
            detail = (
                "the generated model specification failed its own correct "
                f"twin: {correct.summary()}"
            )
            divergences.append(
                Divergence(
                    campaign_index=campaign.index,
                    target="correct",
                    kind="false_positive",
                    detail=detail,
                    entry=_divergence_entry(campaign, None,
                                            "false_positive", detail, jobs),
                )
            )
        for name, fault in named_faults:
            if fault is None:
                continue
            result = by_target[name]
            detected = not result.passed
            detections.append((fault, detected))
            if detected:
                best = result.shrunk_counterexample or result.counterexample
                entry = CorpusEntry(
                    kind="counterexample",
                    detail=(
                        f"fault {fault.describe()} detected on machine "
                        f"#{campaign.machine.seed}"
                    ),
                    machine=campaign.machine,
                    fault=fault,
                    spec_source=campaign.spec_source,
                    spec_kind=campaign.spec_kind,
                    config={
                        "tests": config.tests,
                        "scheduled_actions": config.scheduled_actions,
                        "demand_allowance": config.demand_allowance,
                        "seed": config.seed,
                        "shrink": config.shrink,
                    },
                    default_subscript=campaign.default_subscript,
                    actions=list(best.actions),
                    verdict=best.verdict.name,
                    campaign_seed=campaign.seed,
                    extra={"campaign_index": campaign.index},
                )
                # A corpus record must replay deterministically.  The
                # live trace can differ from its own replay when stale
                # rejections consumed extra virtual time (the replayed
                # sequence only carries *dispatched* actions), so the
                # entry is validated -- and its verdict re-recorded --
                # through the same path `repro fuzz --replay` will use.
                replayed = entry.runner().replay(list(best.actions))
                if replayed is not None and replayed.failed:
                    entry.verdict = replayed.verdict.name
                    counterexamples.append(entry)
                else:
                    # Not corpus material, but counted and reported:
                    # the detection stands (the live run failed), only
                    # its action sequence is timing-sensitive.
                    nonreplayable += 1
    if shrink_divergences:
        for divergence in divergences:
            divergence.entry = _shrink_divergence(divergence.entry, jobs)
    return CampaignOutcomeSummary(
        campaign=campaign,
        divergences=divergences,
        detections=detections,
        counterexamples=counterexamples,
        tests_run=tests_run,
        nonreplayable=nonreplayable,
    )


# ----------------------------------------------------------------------
# The batch driver
# ----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run (what the CLI prints)."""

    seed: int
    campaigns: int
    tests_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: fault kind -> [detected flags], the generated Table 2.
    scoreboard: Dict[str, List[bool]] = field(default_factory=dict)
    counterexamples: int = 0
    #: Detections whose minimized counterexample was timing-sensitive
    #: under replay and therefore not persisted (see run_campaign).
    nonreplayable_counterexamples: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def scoreboard_rows(self) -> List[Tuple[str, int, int]]:
        """``(fault kind, detected, injected)`` rows, sorted by kind."""
        return [
            (kind, sum(flags), len(flags))
            for kind, flags in sorted(self.scoreboard.items())
        ]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "campaigns": self.campaigns,
            "tests_run": self.tests_run,
            "divergences": [
                {
                    "campaign": d.campaign_index,
                    "target": d.target,
                    "kind": d.kind,
                    "detail": d.detail,
                }
                for d in self.divergences
            ],
            "scoreboard": {
                kind: {"detected": sum(flags), "injected": len(flags)}
                for kind, flags in sorted(self.scoreboard.items())
            },
            "counterexamples": self.counterexamples,
            "nonreplayable_counterexamples": (
                self.nonreplayable_counterexamples
            ),
        }

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        detected = sum(r[1] for r in self.scoreboard_rows())
        injected = sum(r[2] for r in self.scoreboard_rows())
        note = (
            f" ({self.nonreplayable_counterexamples} counterexample(s) "
            "timing-sensitive, not persisted)"
            if self.nonreplayable_counterexamples
            else ""
        )
        return (
            f"fuzz seed {self.seed}: {self.campaigns} campaign(s), "
            f"{self.tests_run} test(s), faults detected {detected}/{injected}, "
            f"{status}{note}"
        )


def run_fuzz(
    seed: int,
    campaigns: int,
    jobs: int = 2,
    corpus_path: Optional[str] = None,
    on_campaign: Optional[Callable[[int, CampaignOutcomeSummary], None]] = None,
) -> FuzzReport:
    """Run ``campaigns`` generated campaigns and aggregate the report.

    Divergences (shrunk) and detected-fault counterexamples are appended
    to ``corpus_path`` when given.  ``on_campaign`` observes progress.
    """
    report = FuzzReport(seed=seed, campaigns=campaigns)
    for index in range(campaigns):
        campaign = generate_campaign(seed, index)
        # Shrinking a divergence re-runs the three-schedule batch per
        # candidate; that effort only pays off when the shrunk entry is
        # persisted for later replay.
        outcome = run_campaign(campaign, jobs=jobs,
                               shrink_divergences=corpus_path is not None)
        report.tests_run += outcome.tests_run
        report.divergences.extend(outcome.divergences)
        for fault, detected in outcome.detections:
            report.scoreboard.setdefault(fault.kind, []).append(detected)
        report.counterexamples += len(outcome.counterexamples)
        report.nonreplayable_counterexamples += outcome.nonreplayable
        if corpus_path is not None:
            for divergence in outcome.divergences:
                append_entry(corpus_path, divergence.entry)
            for entry in outcome.counterexamples:
                append_entry(corpus_path, entry)
        if on_campaign is not None:
            on_campaign(index, outcome)
    return report
