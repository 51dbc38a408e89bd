"""One benchmark workload in a fresh interpreter.

``run.py`` starts this script once per measurement.  The script sets
the library up (imports, spec load and elaboration, session or monitor
construction), prints ``READY`` -- the parent times set-up from process
start to that line -- and then, unless ``--setup-only``, builds one set
of inputs from ``--seed`` and runs it ``--rounds`` times.  After every
round (outside its timed section) the verdicts are checked against
references the library did not compute.  The last stdout line is
``RESULT <json>`` with the raw measurements of every round.

Workloads:

* ``audit-serial``    -- the 43 TodoMVC implementations against the
  ``safety`` property, one ``CheckSession.check`` each, subscript 30,
  shrinking off (as ``repro audit --subscript 30``);
* ``audit-pooled``    -- the same implementations as one ``check_many``
  batch on 2 forked workers, shrinking and stop-on-failure off;
* ``monitor-shared``  -- the ``repro.monitor.synth`` stream (2,500
  egg-timer sessions, fault rate 0.1) fed line by line to a ``Monitor``;
* ``monitor-diverse`` -- 200 egg-timer sessions with seeded countdown
  lengths and pauses, so that almost no two sessions share a state.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional

import layers
import reference
from spans import Tracer

#: Shorter tests than the paper's 100 actions, so that a round is short
#: enough to repeat many times in a run (see ``run.py``).
SUBSCRIPT = 30
DEMAND_ALLOWANCE = 20
#: Tests per implementation in one round.
SERIAL_TESTS = 2
POOLED_TESTS = 1
POOL_JOBS = 2
SHARED_SESSIONS = 2_500
SHARED_FAULT_RATE = 0.1
DIVERSE_SESSIONS = 200
DIVERSE_FAULT_RATE = 0.1
DIVERSE_LENGTHS = (2, 600)
#: Monitored sessions re-checked offline, one state at a time.
OFFLINE_SAMPLE = 32
#: Lines per timed unit of a monitor round.  Short units are often timed
#: whole inside a quiet moment of the host, so their fastest time across
#: rounds is steady.
CHUNK_LINES = 128

clock = time.perf_counter


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------------
# Offline audits
# ----------------------------------------------------------------------


def clock_steps(ticks: List[float]) -> bool:
    """Timestamp every state a test observes (one
    ``FormulaChecker.observe`` call each) into ``ticks``, so a serial
    audit is timed in steps of a few milliseconds.  False when the
    library has no such method."""
    try:
        from repro.quickltl.progression import FormulaChecker

        original = FormulaChecker.observe
    except (ImportError, AttributeError):
        return False
    append = ticks.append

    @functools.wraps(original)
    def observe(*args, **kwargs):
        append(clock())
        return original(*args, **kwargs)

    FormulaChecker.observe = observe
    return True


def make_test_reporter(worker_spans: Optional[Tracer]):
    """A Reporter that times tests (start -> verdict) and campaigns,
    counts attempts and collects each result's engine statistics."""
    from repro.api import Reporter

    class TestReporter(Reporter):
        api_version = 2

        def __init__(self) -> None:
            self.started = 0.0
            self.test_ms: List[float] = []
            self.campaign_ends: List[float] = []
            self.attempted = 0
            self.states = 0
            self.intern_hits = 0
            self.intern_misses = 0
            self.query_width_sum = 0

        def on_test_start(self, property_name, index, seed) -> None:
            self.attempted += 1
            self.started = clock()

        def on_test_end(self, property_name, index, result) -> None:
            self.test_ms.append((clock() - self.started) * 1000.0)
            self.states += result.states_observed
            self.intern_hits += result.intern_hits
            self.intern_misses += result.intern_misses
            self.query_width_sum += result.query_width_sum
            if worker_spans is not None:
                layers.absorb_shipped(worker_spans, result)

        def on_campaign_end(self, result) -> None:
            self.campaign_ends.append(clock())

        def on_session_end(self, outcomes, metrics=None) -> None:
            pass

    return TestReporter()


def load_todomvc_safety():
    from repro.specs import load_todomvc_spec

    return load_todomvc_spec(default_subscript=SUBSCRIPT).check_named("safety")


def check_population(names: List[str]) -> List[str]:
    expected = reference.TABLE1_FAILING | reference.TABLE1_PASSING
    if set(names) != expected or len(names) != len(expected):
        return ["the library's TodoMVC population differs from Table 1: "
                f"{sorted(set(names) ^ expected)}"]
    return []


def table1_problems(results: Dict[str, object]) -> List[str]:
    return [
        f"{name}: passes in Table 1 but was reported failing"
        for name, result in results.items()
        if name in reference.TABLE1_PASSING and not result.passed
    ]


class Audit:
    """State shared by both audit workloads."""

    pooled = False

    def __init__(self, seed: int, worker_spans: Optional[Tracer]) -> None:
        from repro.apps.todomvc import all_implementations

        self.seed = seed
        self.spec = load_todomvc_safety()
        self.implementations = all_implementations()
        # Each implementation gets its own test seed, drawn from the run's
        # seed: with one seed shared by all 43, how early the faults
        # showed moved together, and so did the round's work.
        self.test_seeds = {
            impl.name: random.Random(f"audit/{seed}/{impl.name}").getrandbits(32)
            for impl in self.implementations
        }
        self.reporter = make_test_reporter(worker_spans)
        self.faulty = self.found = self.errors = 0
        self.pool_metrics: List[object] = []

    def prepare(self) -> None:
        """Inputs are the seed alone; nothing to build."""

    def tally(self, outcome: dict) -> None:
        """Count Table-1-failing campaigns and the faults found; results
        are dropped so held traces do not inflate peak RSS."""
        self.errors += len(outcome.pop("errors"))
        for name, result in outcome.pop("results").items():
            if name in reference.TABLE1_FAILING:
                self.faulty += 1
                self.found += 0 if result.passed else 1

    def summary(self) -> dict:
        reporter = self.reporter
        return {
            "tests": len(reporter.test_ms),
            "attempted": reporter.attempted + self.errors,
            "failed": reporter.attempted - len(reporter.test_ms) + self.errors,
            "faulty_campaigns": self.faulty,
            "faults_found": self.found,
            "states": reporter.states,
            "intern_hits": reporter.intern_hits,
            "intern_misses": reporter.intern_misses,
            "query_width_sum": reporter.query_width_sum,
        }


class AuditSerial(Audit):
    def __init__(self, seed: int, worker_spans: Optional[Tracer]) -> None:
        from repro.api import CheckSession

        super().__init__(seed, worker_spans)
        self.sessions = [
            (impl.name, CheckSession(impl.app_factory(),
                                     reporters=[self.reporter]))
            for impl in self.implementations
        ]
        self.ticks: List[float] = []
        # Traced runs keep one unit per implementation.
        self.stepped = worker_spans is None and clock_steps(self.ticks)
        # Counterexamples already replayed: every round repeats them.
        self.replayed: Dict[str, list] = {}

    def config(self, name: str):
        from repro.checker import RunnerConfig

        return RunnerConfig(
            tests=SERIAL_TESTS, scheduled_actions=SUBSCRIPT,
            demand_allowance=DEMAND_ALLOWANCE, seed=self.test_seeds[name],
            shrink=False,
        )

    def run_round(self, index: int, tracer: Optional[Tracer]) -> dict:
        configs = {name: self.config(name) for name, _ in self.sessions}
        results: Dict[str, object] = {}
        errors: List[str] = []
        unit_s: List[float] = []
        wall = 0.0
        tests_before = len(self.reporter.test_ms)
        states_before = self.reporter.states
        self.ticks.clear()
        for name, session in self.sessions:
            first = len(self.ticks)
            begun = clock()
            try:
                results[name] = session.check(self.spec,
                                              config=configs[name])
            except Exception as error:  # noqa: BLE001 - counted as failed
                traceback.print_exc()
                errors.append(f"{name}: {type(error).__name__}: {error}")
            ended = clock()
            # One unit per observed state, or per implementation's check
            # when states are not timed; the same seed gives the same
            # states in every round.
            marks = ([begun] + (self.ticks[first:] if self.stepped else [])
                     + [ended])
            unit_s += [later - earlier
                       for earlier, later in zip(marks, marks[1:])]
            wall += ended - begun
        return {
            "wall_s": wall,
            "unit_s": unit_s,
            # A user of a serial audit waits on one test at a time.
            "latency_ms": self.reporter.test_ms[tests_before:],
            "states": self.reporter.states - states_before,
            "results": results,
            "errors": errors,
        }

    def verify(self, outcome: dict) -> List[str]:
        """Table 1 agreement, and every counterexample must still fail
        when replayed on a fresh runner."""
        problems = check_population([name for name, _ in self.sessions])
        problems += table1_problems(outcome["results"])
        sessions = dict(self.sessions)
        for name, result in outcome["results"].items():
            if result.passed:
                continue
            if result.counterexample is None:
                problems.append(f"{name}: failed without a counterexample")
                continue
            actions = result.counterexample.actions
            if self.replayed.get(name) == actions:
                continue
            runner = sessions[name].runner(self.spec,
                                           config=self.config(name))
            replayed = runner.replay(actions)
            if replayed is None or not replayed.failed:
                problems.append(f"{name}: counterexample does not fail "
                                "on replay")
            self.replayed[name] = actions
        return problems


class AuditPooled(Audit):
    pooled = True

    def __init__(self, seed: int, worker_spans: Optional[Tracer]) -> None:
        from repro.api import CheckSession, CheckTarget
        from repro.checker import RunnerConfig

        super().__init__(seed, worker_spans)
        self.session = CheckSession(reporters=[self.reporter])
        self.targets = [
            CheckTarget(impl.name, impl.app_factory(), config=RunnerConfig(
                tests=POOLED_TESTS, scheduled_actions=SUBSCRIPT,
                demand_allowance=DEMAND_ALLOWANCE,
                seed=self.test_seeds[impl.name], shrink=False,
                stop_on_failure=False,
            ))
            for impl in self.implementations
        ]

    def run_round(self, index: int, tracer: Optional[Tracer]) -> dict:
        from repro.api import SessionConfig

        errors: List[str] = []
        results: Dict[str, object] = {}
        reporter = self.reporter
        ends_before = len(reporter.campaign_ends)
        states_before = reporter.states
        started = clock()
        try:
            batch = self.session.check_many(
                self.targets, spec=self.spec,
                session=SessionConfig(jobs=POOL_JOBS, transport="fork"),
            )
        except Exception as error:  # noqa: BLE001 - counted as failed
            traceback.print_exc()
            errors.append(f"batch: {type(error).__name__}: {error}")
        else:
            results = {outcome.target: outcome.result for outcome in batch}
            self.pool_metrics.append(batch.metrics)
        wall = clock() - started
        return {
            "wall_s": wall,
            # Verdicts arrive in bursts that differ from round to round,
            # so the batch is one unit.
            "unit_s": [wall],
            # A pooled audit streams each implementation's verdict as
            # its campaign completes; the user waits from submission.
            "latency_ms": [(end - started) * 1000.0
                           for end in reporter.campaign_ends[ends_before:]],
            "states": reporter.states - states_before,
            "results": results,
            "errors": errors,
        }

    def verify(self, outcome: dict) -> List[str]:
        return (check_population([t.name for t in self.targets])
                + table1_problems(outcome["results"]))


# ----------------------------------------------------------------------
# Online monitor
# ----------------------------------------------------------------------


class Stream:
    """An interleaved wire stream plus what the benchmark knows about it:
    each session's line indices (its state records, then its end
    record) and its expected verdict."""

    def __init__(self, traces: Dict[str, list],
                 faulty: Dict[str, bool]) -> None:
        from repro.monitor.records import trace_records
        from repro.monitor.replay import interleave_sessions

        tagged = {
            session: [
                (line, session)
                for line in trace_records(session, trace, end=True)
            ]
            for session, trace in traces.items()
        }
        self.lines: List[str] = []
        self.session_lines: Dict[str, List[int]] = {s: [] for s in traces}
        for index, (line, session) in enumerate(interleave_sessions(tagged)):
            self.lines.append(line)
            self.session_lines[session].append(index)
        self.expected = {
            session: (reference.FAULTY_SESSION_VERDICT if is_faulty
                      else reference.HEALTHY_SESSION_VERDICT)
            for session, is_faulty in faulty.items()
        }
        numbers = {session: n for n, session in enumerate(traces)}
        self.session_number = [0] * len(self.lines)
        for session, indices in self.session_lines.items():
            for index in indices:
                self.session_number[index] = numbers[session]

    def renamed(self, prefix: str) -> List[str]:
        """The stream with every session id prefixed."""
        return [line.replace('"session":"', '"session":"' + prefix, 1)
                for line in self.lines]


def diverse_traces(rng: random.Random):
    """Low-sharing egg-timer sessions built from the public state helper:
    seeded countdown length, a seeded pause, and for a seeded tenth of
    the sessions a tick that fails to decrement."""
    from repro.monitor.synth import timer_state

    traces: Dict[str, list] = {}
    faulty: Dict[str, bool] = {}
    for index in range(DIVERSE_SESSIONS):
        length = rng.randint(*DIVERSE_LENGTHS)
        pause_after = rng.randint(1, length - 1)
        fault_at = (rng.randint(1, length)
                    if rng.random() < DIVERSE_FAULT_RATE else 0)
        states = [timer_state(length, False, ("loaded?",)),
                  timer_state(length, True, ("start!",))]
        remaining = length
        for tick in range(1, length + 1):
            if tick == fault_at:
                states.append(timer_state(remaining, True, ("tick?",)))
                break
            remaining -= 1
            states.append(timer_state(remaining, remaining > 0, ("tick?",)))
            if tick == pause_after:
                states.append(timer_state(remaining, False, ("stop!",)))
                states.append(timer_state(remaining, True, ("start!",)))
        session = f"d{index:04d}"
        traces[session] = states
        faulty[session] = bool(fault_at)
    return traces, faulty


class MonitorWorkload:
    pooled = False

    def __init__(self, name: str, seed: int) -> None:
        from repro.monitor.service import Monitor
        from repro.specs import load_eggtimer_spec

        self.name = name
        self.seed = seed
        self.check = load_eggtimer_spec().check_named("safety")
        self.monitor_class = Monitor
        # Constructed here so set-up time covers it; each round starts
        # its own.
        Monitor(self.check)
        self.stream: Optional[Stream] = None
        self.offline: Dict[str, str] = {}
        self.metrics: List[object] = []
        self.sessions = 0
        self.bad_sessions = 0

    def prepare(self) -> None:
        """Build the run's one stream on first use (after READY)."""
        if self.stream is None:
            from repro.monitor.synth import synth_traces

            if self.name == "monitor-shared":
                population = synth_traces(self.seed, SHARED_SESSIONS,
                                          SHARED_FAULT_RATE)
            else:
                population = diverse_traces(
                    random.Random(f"diverse/{self.seed}"))
            self.stream = Stream(*population)
            self.offline = self.offline_verdicts(population[0])
            # Inputs live for the whole run: keep the collector from
            # walking them while the library is timed.
            gc.collect()
            gc.freeze()

    def offline_verdicts(self, traces: Dict[str, list]) -> Dict[str, str]:
        """A seeded sample of sessions checked offline, one
        FormulaChecker per session, without the monitor's batching."""
        from repro.quickltl import FormulaChecker, Verdict

        sample = random.Random(f"offline/{self.seed}").sample(
            sorted(traces), min(OFFLINE_SAMPLE, len(traces)))
        verdicts = {}
        for session in sample:
            checker = FormulaChecker(self.check.formula)
            for state in traces[session]:
                if checker.observe(state).is_definitive:
                    break
            verdict = checker.verdict
            if verdict is Verdict.DEMAND:
                verdict = checker.force()
            verdicts[session] = verdict.name
        return verdicts

    def run_round(self, index: int, tracer: Optional[Tracer]) -> dict:
        stream = self.stream
        # Each round renames the sessions, so no line repeats an earlier
        # round's text; the work is otherwise identical.
        prefix = f"r{index}."
        lines = stream.renamed(prefix)
        decided: Dict[str, tuple] = {}

        def on_verdict(verdict) -> None:
            session = verdict.session_id[len(prefix):]
            decided[session] = (clock(), verdict)

        monitor = self.monitor_class(self.check, on_verdict=on_verdict)
        fed = [0.0] * len(lines)
        feed = monitor.feed_line
        started = clock()
        if tracer is None:
            for index, line in enumerate(lines):
                fed[index] = clock()
                feed(line)
        else:
            session_number = stream.session_number
            for index, line in enumerate(lines):
                tracer.current_group = session_number[index]
                fed[index] = clock()
                feed(line)
            tracer.current_group = -1
        report = monitor.finish()
        finished = clock()
        return {
            "wall_s": finished - started,
            # Feeding time per CHUNK_LINES lines (the last chunk
            # includes finish()).
            "unit_s": [
                (fed[start + CHUNK_LINES] if start + CHUNK_LINES < len(fed)
                 else finished) - fed[start]
                for start in range(0, len(fed), CHUNK_LINES)
            ],
            "latency_ms": self.lags_ms(stream, decided, fed),
            "states": report.metrics.states_applied,
            "lines": len(lines),
            "decided": decided,
            "report": report,
        }

    @staticmethod
    def lags_ms(stream: Stream, decided: Dict[str, tuple],
                fed: List[float]) -> List[Optional[float]]:
        """Per session, in stream order: from feeding its deciding record
        (its ``states``-th state record for a definitive verdict, its
        end record for an ended one) to its ``on_verdict``; None for a
        session that got neither."""
        lags: List[Optional[float]] = []
        for session, indices in stream.session_lines.items():
            at, verdict = decided.get(session, (None, None))
            if verdict is None or verdict.disposition not in (
                    "definitive", "ended"):
                lags.append(None)
                continue
            deciding = (indices[verdict.states - 1]
                        if verdict.disposition == "definitive"
                        else indices[-1])
            lags.append((at - fed[deciding]) * 1000.0)
        return lags

    def tally(self, outcome: dict) -> None:
        metrics = outcome.pop("report").metrics
        outcome.pop("decided")
        self.metrics.append(metrics)
        self.sessions += len(self.stream.expected)
        self.bad_sessions += (metrics.sessions_errored
                              + metrics.malformed_records
                              + metrics.dropped_records)

    def verify(self, outcome: dict) -> List[str]:
        """Every session's verdict against the generator's fault list
        and against the offline checker's verdicts."""
        decided = outcome["decided"]
        problems = []
        for reference_name, wanted in (("generator", self.stream.expected),
                                       ("offline checker", self.offline)):
            for session, expected in wanted.items():
                got = decided.get(session)
                verdict = got[1].verdict if got else None
                if verdict != expected:
                    problems.append(f"{session}: {reference_name} expects "
                                    f"{expected}, monitor said {verdict}")
        return problems

    def summary(self) -> dict:
        total = {"ticks": 0, "cohort_steps": 0, "states_applied": 0,
                 "intern_hits": 0, "intern_misses": 0}
        for metrics in self.metrics:
            for key in total:
                total[key] += getattr(metrics, key)
        total["max_formula_size"] = max(
            (m.max_formula_size for m in self.metrics), default=0)
        return {
            "attempted": self.sessions,
            "failed": self.bad_sessions,
            "monitor": total,
        }


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------


def setup(name: str, seed: int, worker_spans: Optional[Tracer]):
    if name == "audit-serial":
        return AuditSerial(seed, worker_spans)
    if name == "audit-pooled":
        return AuditPooled(seed, worker_spans)
    return MonitorWorkload(name, seed)


def run(workload, rounds: int, tracer: Optional[Tracer]) -> dict:
    """Repeat the run's one input set; keep each round's timings."""
    measured, problems = [], []
    for index in range(rounds):
        workload.prepare()
        # Nothing the previous round left behind is collected on this
        # round's clock.
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        outcome = workload.run_round(index, tracer)
        if tracer is not None:
            tracer.enabled = False
        problems += workload.verify(outcome)
        workload.tally(outcome)
        measured.append(outcome)
    summary = workload.summary()
    summary["rounds"] = measured
    summary["problems"] = problems
    summary["peak_rss_mb"] = peak_rss_mb(workload.pooled)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("audit-serial", "audit-pooled",
                                 "monitor-shared", "monitor-diverse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="record spans and write them under this "
                             "directory")
    args = parser.parse_args(argv)

    tracer = worker_spans = None
    if args.trace_out is not None:
        tracer = Tracer()
        worker_spans = Tracer()
        worker_spans.names = tracer.names
    workload = setup(args.workload, args.seed, worker_spans)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    missing: List[str] = []
    if tracer is not None:
        missing = layers.instrument(tracer)
    summary = run(workload, args.rounds, tracer)
    if tracer is not None:
        import report

        summary["layers"] = report.layer_metrics(
            workload, summary, tracer, worker_spans
        )
        summary["missing_targets"] = missing
        stem = os.path.join(args.trace_out,
                            f"{args.workload}-seed{args.seed}")
        header = {"workload": args.workload, "seed": args.seed,
                  "rounds": args.rounds}
        tracer.write(stem + ".spans", dict(header, process="main"))
        if len(worker_spans):
            worker_spans.write(stem + "-workers.spans",
                               dict(header, process="pool workers"))
    sys.stdout.write("RESULT " + json.dumps(summary) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
