"""The repository benchmark: offline audits and the online monitor.

Run from the repository root::

    python3 perfbench/run.py --workload audit-serial --seed 1 --seconds 25 --trace 0

``--workload`` names one workload or ``all``.  Each measurement runs in
a fresh interpreter (``workloads.py``) against the library under
``src/``; this process never imports the library.  A run does a fixed
number of rounds, sized from ``--seconds`` so that it takes about that
long on a 2-core host, but at least ``MIN_ROUNDS``; the work never
depends on how fast the library is, so two versions of it are measured
on identical inputs.

Set-up time (interpreter start to the first test or line) is measured
in every fresh interpreter this run starts and reported as their
median.  ``--trace 1`` runs the rounds twice, untraced then traced, and
reports per-layer metrics plus the tracing overhead.

Every line but the last is for people: a table of metrics, including
the per-workload names (``test_p50_ms``, ``lines_per_s``,
``verdict_lag_p95_ms``, ``faults_missed``, ``failed_ratio``).  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A wrong verdict prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import report

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("audit-serial", "audit-pooled", "monitor-shared",
             "monitor-diverse")
#: Wall time of one round on a 2-core host, used only to size runs.
NOMINAL_ROUND_S = {
    "audit-serial": 8.0,
    "audit-pooled": 2.5,
    "monitor-shared": 0.6,
    "monitor-diverse": 16.0,
}
#: Every unit of work is timed at least this often in an untraced run.
#: audit-serial needs eight rounds for a steady figure, about a minute.
MIN_ROUNDS = {"audit-serial": 8}
#: Extra interpreters per run that only set up, for the set-up median.
SETUP_ONLY_RUNS = 8
#: Every process a run starts has ended by then.
RUN_DEADLINE_S = 175.0
TRACE_DIR = os.path.join("perfbench", "out")


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong verdict)."""


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS.get(workload, 2),
               int(seconds / NOMINAL_ROUND_S[workload] + 0.5))


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Fixed string hashing: the same seed gives the same work.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: str, args: List[str],
              deadline: float) -> Tuple[float, Optional[dict]]:
    """Start workloads.py; returns (set-up seconds, RESULT payload).

    A reader thread timestamps each stdout line as it arrives, so
    set-up is measured up to ``READY`` even while this thread waits on
    the process with a timeout."""
    command = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=root, env=child_env(root),
                               stdout=subprocess.PIPE, text=True)
    lines: List[Tuple[float, str]] = []

    def read() -> None:
        for line in process.stdout:
            lines.append((time.perf_counter(), line))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = process.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload timed out: {' '.join(args)}") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        reader.join()
        process.stdout.close()
    setup_s = next((at - started for at, line in lines
                    if line.strip() == "READY"), None)
    payload = next((json.loads(line[len("RESULT "):]) for _at, line in lines
                    if line.startswith("RESULT ")), None)
    if code != 0 or setup_s is None:
        raise BenchError(f"workload exited with code {code}: "
                         f"{' '.join(args)}")
    return setup_s, payload


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def fastest(raw: dict) -> Tuple[float, List[float]]:
    """Wall time and latencies with the least disturbance from other
    load on the host.  Every round of a run repeats the same inputs, so
    each unit of work is measured once per round and its fastest
    measurement kept (the rule ``timeit`` uses).  The units of a round
    add up to its wall time: the time from one observed state to the
    next (audit-serial), the whole batch (audit-pooled), a chunk of
    lines (monitors).  Latencies are kept per test, per verdict in order
    of arrival, or per session."""
    rounds = raw["rounds"]
    for key in ("unit_s", "latency_ms"):
        if len({len(outcome[key]) for outcome in rounds}) != 1:
            raise BenchError(f"rounds of one run differ in {key}")
    wall = sum(min(unit) for unit in zip(*(r["unit_s"] for r in rounds)))
    latencies = [min(each) for each in zip(*(r["latency_ms"] for r in rounds))
                 if None not in each]
    return wall, latencies


def end_to_end(workload: str, raw: dict, setup: List[float]) -> Tuple[
        Dict[str, float], Dict[str, Tuple[float, str]]]:
    """The gated metrics, plus the per-workload names for the table."""
    wall, latencies = fastest(raw)
    states = raw["rounds"][0]["states"]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "states_per_s": states / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    extra = {"failed_ratio": (report.ratio(raw["failed"], raw["attempted"]),
                              "ratio")}
    if workload.startswith("audit"):
        metrics["faults_found_ratio"] = report.ratio(
            raw["faults_found"], raw["faulty_campaigns"])
        extra["faults_missed"] = (
            raw["faulty_campaigns"] - raw["faults_found"], "count")
        extra["tests"] = (raw["tests"], "count")
        kind = "test" if workload == "audit-serial" else "verdict"
        extra[f"{kind}_p50_ms"] = (metrics["latency_p50_ms"], "ms")
        extra[f"{kind}_p90_ms"] = (metrics["latency_p90_ms"], "ms")
    else:
        # Every generator-faulty session must end DEFINITELY_FALSE, or
        # the run is incorrect; the ratio is 1 whenever it is correct.
        metrics["faults_found_ratio"] = 1.0
        extra["lines_per_s"] = (raw["rounds"][0]["lines"] / wall, "1/s")
        extra["verdict_lag_p50_ms"] = (percentile(latencies, 50), "ms")
        extra["verdict_lag_p95_ms"] = (percentile(latencies, 95), "ms")
        extra["sessions"] = (raw["attempted"], "count")
    extra["median_round_s"] = (statistics.median(
        outcome["wall_s"] for outcome in raw["rounds"]), "s")
    return metrics, extra


def measure(root: str, workload: str, seed: int, seconds: int,
            trace: bool) -> dict:
    """Run one workload; returns the result object for the last line."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    rounds = rounds_for(workload, seconds)
    base = ["--workload", workload, "--seed", str(seed)]
    setup = [run_child(root, base + ["--setup-only"], deadline)[0]
             for _ in range(SETUP_ONLY_RUNS)]
    if trace:
        rounds = max(1, rounds // 2)
    setup_s, raw = run_child(root, base + ["--rounds", str(rounds)], deadline)
    setup.append(setup_s)
    traced = None
    if trace:
        setup_s, traced = run_child(
            root, base + ["--rounds", str(rounds), "--trace-out", TRACE_DIR],
            deadline)
        setup.append(setup_s)
    metrics, extra = end_to_end(workload, raw, setup)
    problems = raw["problems"] + (traced["problems"] if traced else [])
    attempted = raw["attempted"] + (traced["attempted"] if traced else 0)
    failed = raw["failed"] + (traced["failed"] if traced else 0)
    units = {name: unit for name, unit, _better in report.END_TO_END}
    print(f"== {workload}  seed={seed}  rounds={rounds}  "
          f"{'traced' if trace else 'untraced'}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    if trace:
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = (
            sum(outcome["wall_s"] for outcome in traced["rounds"])
            / sum(outcome["wall_s"] for outcome in raw["rounds"]))
        layer_units = dict(report.PER_LAYER)
        for name, value in layers.items():
            print(f"  {name:32s} {value:14.4f} {layer_units[name]}")
        if traced["missing_targets"]:
            print("  not traced (missing from the library): "
                  + ", ".join(traced["missing_targets"]))
        for key in ("trace.unaccounted_ratio",
                    "trace.worker_unaccounted_ratio"):
            if abs(layers[key]) > 0.05:
                print(f"  warning: {key} = {layers[key]:.3f} exceeds 0.05",
                      file=sys.stderr)
        chosen = {name: (layers[name], unit)
                  for name, unit in report.PER_LAYER}
    else:
        chosen = {name: (metrics[name], units[name]) for name in units}
    for problem in problems[:20]:
        print(f"  WRONG: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }


def check_benchmark_json(root: str) -> None:
    """BENCHMARK.json, when present, must name exactly these metrics."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)
    e2e = {(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]}
    layer = {(m["name"], m["unit"]) for m in declared["per_layer"]}
    if e2e != set(report.END_TO_END) or layer != set(report.PER_LAYER):
        raise BenchError("BENCHMARK.json and perfbench/report.py disagree "
                         "on the metric list")
    unknown = {w["name"] for w in declared["workloads"]} - set(WORKLOADS)
    if unknown:
        raise BenchError(f"BENCHMARK.json names unknown workloads {unknown}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    try:
        check_benchmark_json(root)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [measure(root, name, args.seed, args.seconds,
                           bool(args.trace)) for name in names]
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{metric}": value
                        for name, r in zip(names, results)
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
