"""The library functions a traced run wraps, one layer name each.

Every target is a public module function or class method, replaced at
run time by a :meth:`spans.Tracer.wrap` wrapper; nothing under ``src/``
changes.  A target missing from the library version under test is
skipped and reported, so the benchmark keeps running across refactors
that rename or delete a layer (its metrics then read 0).

``Runner.run_single_test`` gets one extra duty: inside a forked pool
worker its wrapper moves the test's spans onto the returned
``TestResult`` (pickled back to the parent with it), which is how the
pooled workload's per-layer times reach the parent process.
"""

from __future__ import annotations

import functools
import importlib
import os
from typing import Callable, List

from spans import Tracer

#: Attribute set on a TestResult that carries a pool worker's spans.
SHIPPED_SPANS = "perfbench_spans"


def _narrow_accepted(tracer: Tracer, accepted: object) -> None:
    tracer.count("executors.narrow.accepted", 1 if accepted else 0)


def _replay_useful(tracer: Tracer, result: object) -> None:
    still_fails = result is not None and getattr(result, "failed", False)
    tracer.count("checker.replay.useful", 1 if still_fails else 0)


#: (module, attribute path, layer, result hook)
TARGETS = (
    ("repro.api.session", "CheckSession.check", "api.session", None),
    ("repro.api.session", "CheckSession.check_many", "api.session", None),
    ("repro.api.transport.local", "ForkTransport.run", "api.transport", None),
    ("multiprocessing.context", "ForkProcess.start", "api.pool.fork", None),
    ("repro.api.engines", "CampaignMerge.step", "api.merge", None),
    ("repro.checker.runner", "Runner.run_single_test", "checker.loop", None),
    ("repro.checker.runner", "Runner.replay", "checker.replay",
     _replay_useful),
    ("repro.checker.shrink", "shrink_counterexample", "checker.shrink", None),
    ("repro.checker.runner", "QueryNarrower.update", "checker.narrow", None),
    ("repro.checker.runner", "QueryNarrower.update_async", "checker.narrow",
     None),
    # The runner's own reference: action guards and bodies, event
    # definitions.  The evaluator's internal recursion stays unwrapped.
    ("repro.checker.runner", "evaluate", "specstrom.evaluate", None),
    ("repro.quickltl.progression", "FormulaChecker.observe",
     "quickltl.observe", None),
    ("repro.executors.domexec", "DomExecutor.start", "executors.start", None),
    ("repro.executors.domexec", "DomExecutor.reset", "executors.reset", None),
    ("repro.executors.domexec", "DomExecutor.narrow", "executors.narrow",
     _narrow_accepted),
    ("repro.executors.domexec", "DomExecutor.act", "executors.act", None),
    ("repro.executors.domexec", "DomExecutor.pass_time",
     "executors.pass_time", None),
    ("repro.executors.domexec", "DomExecutor.await_events",
     "executors.await_events", None),
    ("repro.dom.document", "Document.query_all", "dom.query_all", None),
    # Looked up as a module global by the selector engine's query_all.
    ("repro.dom.selector", "parse_selector", "dom.parse_selector", None),
    ("repro.monitor.service", "Monitor.feed_line", "monitor.feed", None),
    ("repro.monitor.service", "Monitor.flush", "monitor.flush", None),
    ("repro.monitor.service", "Monitor.finish", "monitor.finish", None),
    # The service's own reference to the record decoder.
    ("repro.monitor.service", "parse_record", "monitor.decode", None),
    ("repro.monitor.records", "state_key", "monitor.state_key", None),
    ("repro.monitor.records", "snapshot_from_json",
     "monitor.snapshot_from_json", None),
    ("repro.monitor.batch", "BatchProgressor.run_round", "monitor.progress",
     None),
)


def _owner(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError when the target is gone
    return owner, attr


def _shipping_test_wrapper(tracer: Tracer, traced: Callable,
                           original: Callable) -> Callable:
    """Per-test span groups; in a forked worker, ship the spans home."""
    owner_pid = os.getpid()
    tests = [0]

    @functools.wraps(original)
    def run_single_test(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        tests[0] += 1
        pid = os.getpid()
        if pid == owner_pid:
            tracer.current_group = tests[0]
            return traced(*args, **kwargs)
        tracer.current_group = (pid % 1000) * 100_000 + tests[0]
        base = len(tracer)
        counted = dict(tracer.counters)
        result = traced(*args, **kwargs)
        counters = {
            key: value - counted.get(key, 0)
            for key, value in tracer.counters.items()
        }
        setattr(result, SHIPPED_SPANS, (tracer.take_since(base), counters))
        return result

    return run_single_test


def instrument(tracer: Tracer) -> List[str]:
    """Wrap every target; returns the ones this library lacks."""
    missing = []
    for module_name, path, layer, hook in TARGETS:
        try:
            owner, attr = _owner(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(layer, original, hook)
        if layer == "checker.loop":
            wrapped = _shipping_test_wrapper(tracer, wrapped, original)
        setattr(owner, attr, wrapped)
    return missing


def absorb_shipped(tracer: Tracer, result: object) -> None:
    """Move a pool worker's spans and counters off ``result`` into
    ``tracer`` (results from this process carry none)."""
    shipped = getattr(result, SHIPPED_SPANS, None)
    if shipped is None:
        return
    delattr(result, SHIPPED_SPANS)
    packed, counters = shipped
    tracer.absorb(packed)
    for key, amount in counters.items():
        tracer.count(key, amount)
