"""Reporter hooks: lifecycle order, console output, JSONL records,
JUnit XML for CI, live progress."""

import io
import json
from xml.etree import ElementTree

import pytest

from repro.api import (
    ConsoleReporter,
    JsonlReporter,
    JUnitXmlReporter,
    ProgressReporter,
    Reporter,
    SerialEngine,
)
from repro.api import ParallelEngine
from repro.apps.eggtimer import egg_timer_app
from repro.checker import Runner, RunnerConfig
from repro.executors import DomExecutor
from repro.specs import load_eggtimer_spec


class RecordingReporter(Reporter):
    def __init__(self):
        self.events = []

    def on_test_start(self, property_name, index, seed):
        self.events.append(("test_start", index, seed))

    def on_test_end(self, property_name, index, result):
        self.events.append(("test_end", index, result.passed))

    def on_counterexample(self, property_name, counterexample, shrunk):
        self.events.append(("counterexample", len(counterexample.actions)))

    def on_campaign_end(self, result):
        self.events.append(("campaign_end", result.tests_run))


def eggtimer_runner(app_factory=None, **config_kwargs):
    spec = load_eggtimer_spec().check_named("safety")
    defaults = dict(tests=3, scheduled_actions=10, demand_allowance=5,
                    seed=1, shrink=False)
    defaults.update(config_kwargs)
    factory = app_factory or egg_timer_app()
    return Runner(spec, lambda: DomExecutor(factory), RunnerConfig(**defaults))


class TestLifecycle:
    def test_events_in_index_order(self):
        reporter = RecordingReporter()
        SerialEngine().run(eggtimer_runner(), [reporter])
        kinds = [e[0] for e in reporter.events]
        assert kinds == ["test_start", "test_end"] * 3 + ["campaign_end"]
        assert [e[1] for e in reporter.events if e[0] == "test_start"] == [0, 1, 2]
        assert reporter.events[0][2] == "1/0"  # the per-test seed string

    def test_parallel_reports_in_index_order_too(self):
        serial, parallel = RecordingReporter(), RecordingReporter()
        SerialEngine().run(eggtimer_runner(), [serial])
        ParallelEngine(jobs=3).run(eggtimer_runner(), [parallel])
        assert serial.events == parallel.events

    def test_counterexample_hook_fires_on_failure(self):
        reporter = RecordingReporter()
        runner = eggtimer_runner(egg_timer_app(decrement=2), tests=5,
                                 scheduled_actions=20, seed=7)
        result = SerialEngine().run(runner, [reporter])
        assert not result.passed
        assert any(e[0] == "counterexample" for e in reporter.events)
        # stop_on_failure: the campaign ends at the first failing index.
        assert reporter.events[-1] == ("campaign_end", result.tests_run)


class TestConsoleReporter:
    def test_summary_printed(self):
        stream = io.StringIO()
        SerialEngine().run(
            eggtimer_runner(), [ConsoleReporter(stream=stream)]
        )
        assert "safety: PASSED after 3 test(s)" in stream.getvalue()

    def test_verbose_prints_per_test_lines(self):
        stream = io.StringIO()
        SerialEngine().run(
            eggtimer_runner(), [ConsoleReporter(stream=stream, verbose=True)]
        )
        assert "test 0:" in stream.getvalue()

    def test_counterexample_described(self):
        stream = io.StringIO()
        runner = eggtimer_runner(egg_timer_app(decrement=2), tests=5,
                                 scheduled_actions=20, seed=7, shrink=True)
        SerialEngine().run(runner, [ConsoleReporter(stream=stream)])
        out = stream.getvalue()
        assert "counterexample" in out
        assert "FAILED" in out


class TestJsonlReporter:
    def test_every_line_is_json(self):
        stream = io.StringIO()
        runner = eggtimer_runner(egg_timer_app(decrement=2), tests=5,
                                 scheduled_actions=20, seed=7, shrink=True)
        SerialEngine().run(runner, [JsonlReporter(stream=stream)])
        lines = [l for l in stream.getvalue().splitlines() if l]
        records = [json.loads(line) for line in lines]
        kinds = [r["event"] for r in records]
        assert kinds[0] == "campaign_start"
        assert kinds[1] == "test_start"
        assert kinds[-1] == "campaign_end"
        assert "counterexample" in kinds
        end = records[-1]
        assert end["passed"] is False
        cex = next(r for r in records if r["event"] == "counterexample")
        assert cex["verdict"] == "DEFINITELY_FALSE"
        assert cex["shrunk_actions"] is not None
        assert all("name" in a and "action" in a for a in cex["shrunk_actions"])

    def test_test_end_record_carries_metrics(self):
        stream = io.StringIO()
        SerialEngine().run(eggtimer_runner(), [JsonlReporter(stream=stream)])
        records = [json.loads(l) for l in stream.getvalue().splitlines() if l]
        test_end = next(r for r in records if r["event"] == "test_end")
        for key in ("verdict", "passed", "forced", "actions_taken",
                    "states_observed", "elapsed_virtual_ms"):
            assert key in test_end


class TestJUnitXmlReporter:
    def _run_campaigns(self, reporter):
        SerialEngine().run(eggtimer_runner(), [reporter])
        failing = eggtimer_runner(egg_timer_app(decrement=2), tests=5,
                                  scheduled_actions=20, seed=7, shrink=True)
        result = SerialEngine().run(failing, [reporter])
        reporter.on_session_end([(None, result)])

    def test_document_shape(self):
        stream = io.StringIO()
        self._run_campaigns(JUnitXmlReporter(stream=stream))
        root = ElementTree.fromstring(stream.getvalue())
        assert root.tag == "testsuites"
        suites = list(root.iter("testsuite"))
        assert len(suites) == 2
        passing, failing = suites
        assert passing.get("failures") == "0"
        assert passing.get("tests") == "3"
        assert passing.get("skipped") == "0"
        assert failing.get("failures") == "1"
        # stop_on_failure: the campaign planned 5 tests and stopped at
        # the first failure; unreached indices appear as <skipped>.
        assert failing.get("tests") == "5"
        cases = list(failing.iter("testcase"))
        assert len(cases) == 5
        failed = [c for c in cases if c.find("failure") is not None]
        assert len(failed) == 1
        failure = failed[0].find("failure")
        assert failed[0].get("name").startswith("safety[")
        assert "counterexample" in failure.text
        assert "DEFINITELY_FALSE" in failure.get("message")
        skipped = [c for c in cases if c.find("skipped") is not None]
        assert len(skipped) == int(failing.get("skipped")) > 0
        ran = [c for c in cases if c.find("skipped") is None]
        assert len(ran) + len(skipped) == 5
        # Skipped cases follow the failing index and carry a reason.
        assert all("stop" in c.find("skipped").get("message")
                   for c in skipped)
        assert root.get("skipped") == failing.get("skipped")

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "report.xml"
        reporter = JUnitXmlReporter(path=str(path))
        self._run_campaigns(reporter)
        root = ElementTree.fromstring(path.read_text(encoding="utf-8"))
        testcases = list(root.iter("testcase"))
        assert root.get("tests") == str(len(testcases))
        assert len(testcases) >= 4  # 3 passing + at least the failing run
        assert root.get("failures") == "1"

    def test_write_is_idempotent(self):
        stream = io.StringIO()
        reporter = JUnitXmlReporter(stream=stream)
        SerialEngine().run(eggtimer_runner(), [reporter])
        reporter.write()
        reporter.write()
        assert stream.getvalue().count("<testsuites") == 1

    def test_stream_and_path_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            JUnitXmlReporter(stream=io.StringIO(), path="x.xml")

    def test_testcases_carry_action_count_properties(self):
        """Per-test detail rides as <properties>: action/state counts
        and the verdict, matching the TestResult bit for bit."""
        stream = io.StringIO()
        reporter = JUnitXmlReporter(stream=stream)
        runner = eggtimer_runner()
        result = SerialEngine().run(runner, [reporter])
        reporter.on_session_end([(None, result)])
        root = ElementTree.fromstring(stream.getvalue())
        cases = list(root.iter("testcase"))
        assert len(cases) == len(result.results)
        for case, test in zip(cases, result.results):
            properties = case.find("properties")
            assert properties is not None
            by_name = {
                p.get("name"): p.get("value")
                for p in properties.iter("property")
            }
            assert by_name["actions"] == str(test.actions_taken)
            assert by_name["states"] == str(test.states_observed)
            assert by_name["verdict"] == test.verdict.name

    def test_skipped_testcases_carry_no_properties(self):
        """Unreached indices (stop_on_failure) did no work; their
        <skipped> cases stay property-free."""
        stream = io.StringIO()
        reporter = JUnitXmlReporter(stream=stream)
        self._run_campaigns(reporter)
        root = ElementTree.fromstring(stream.getvalue())
        skipped = [c for c in root.iter("testcase")
                   if c.find("skipped") is not None]
        assert skipped
        assert all(c.find("properties") is None for c in skipped)

    def test_target_label_names_the_suite(self):
        reporter = JUnitXmlReporter(stream=io.StringIO())
        reporter.on_campaign_start("safety", 1, target="todomvc:vue")
        result = SerialEngine().run(eggtimer_runner(tests=1))
        reporter.on_test_end("safety", 0, result.results[0])
        reporter.on_campaign_end(result)
        root = ElementTree.fromstring(reporter.to_xml())
        suite = root.find("testsuite")
        assert suite.get("name") == "todomvc:vue"
        assert suite.find("testcase").get("classname") == "todomvc:vue"


class TestProgressReporter:
    def test_non_tty_prints_one_line_per_campaign(self):
        stream = io.StringIO()  # not a TTY
        reporter = ProgressReporter(stream=stream)
        reporter.on_session_start(2)
        SerialEngine().run(eggtimer_runner(), [reporter])
        failing = eggtimer_runner(egg_timer_app(decrement=2), tests=5,
                                  scheduled_actions=20, seed=7)
        result = SerialEngine().run(failing, [reporter])
        reporter.on_session_end([(None, result), (None, result)])
        lines = stream.getvalue().splitlines()
        assert "[1/2] safety: ok (3 tests)" in lines
        assert any("FAIL" in line for line in lines)
        assert lines[-1].endswith("1 passed, 1 failed")

    def test_tty_rewrites_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        SerialEngine().run(eggtimer_runner(), [ProgressReporter(stream=stream)])
        out = stream.getvalue()
        assert "\r" in out
        assert "test 1/3" in out
        assert "safety: ok (3 tests)" in out

    def test_piped_mode_emits_no_per_test_noise(self):
        """When piped (CI logs), per-test updates stay silent -- only
        campaign completions produce lines, so logs don't scroll."""
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.on_campaign_start("safety", 3)
        result = SerialEngine().run(eggtimer_runner(tests=1))
        reporter.on_test_end("safety", 0, result.results[0])
        assert stream.getvalue() == ""  # nothing until the campaign ends
        reporter.on_campaign_end(result)
        lines = stream.getvalue().splitlines()
        assert lines == ["safety: ok (1 tests)"]
        assert "\r" not in stream.getvalue()

    def test_tty_pads_shorter_rewrites_to_clear_residue(self):
        """A rewrite shorter than the widest line so far is padded, so
        stale characters from the previous render never linger."""

        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        reporter = ProgressReporter(stream=stream)
        reporter.on_campaign_start("a-very-long-property-name", 2)
        result = SerialEngine().run(eggtimer_runner(tests=1))
        reporter.on_test_end("a-very-long-property-name", 0,
                             result.results[0])
        long_line = stream.getvalue().split("\r")[-1]
        reporter.on_campaign_start("p", 1)
        reporter.on_test_end("p", 0, result.results[0])
        short_line = stream.getvalue().split("\r")[-1]
        assert len(short_line) >= len(long_line.rstrip())
        assert short_line.rstrip() == "p: test 1/1"

    def test_tty_freezes_a_failed_campaign_line(self):
        """Failures stay visible: the FAIL line ends with a newline so
        the next campaign's rewrites start below it."""

        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        reporter = ProgressReporter(stream=stream)
        failing = eggtimer_runner(egg_timer_app(decrement=2), tests=5,
                                  scheduled_actions=20, seed=7)
        result = SerialEngine().run(failing, [reporter])
        assert not result.passed
        out = stream.getvalue()
        fail_chunk = [part for part in out.split("\r") if "FAIL" in part][-1]
        assert fail_chunk.endswith("\n")
        reporter.on_session_end([(None, result)])
        # The summary rewrites the (now empty) live line and terminates it.
        assert stream.getvalue().endswith("1 failed\n")

    def test_piped_session_summary_is_a_plain_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.on_session_start(1)
        result = SerialEngine().run(eggtimer_runner(tests=1), [reporter])
        reporter.on_session_end([(None, result)])
        assert stream.getvalue().splitlines()[-1] == (
            "1 campaign(s): 1 passed, 0 failed"
        )
