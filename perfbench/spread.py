"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per (workload, seed), one after another, and
prints for every metric the median and the interquartile distance as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``.  Each run's last line is kept
in ``perfbench/out/spread.jsonl`` so two sets can be compared::

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workload monitor-shared --seeds 1-5
    python3 perfbench/spread.py --compare perfbench/out/a.jsonl perfbench/out/b.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: List[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def summarise(records: List[dict], bounds: Dict[str, float]) -> Dict:
    """{workload: {metric: (median, spread)}}, printed as a table."""
    by_workload: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        metrics = by_workload.setdefault(record["workload"], {})
        for name, entry in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    table = {}
    for workload, metrics in by_workload.items():
        runs = len(next(iter(metrics.values())))
        print(f"== {workload}  ({runs} runs)")
        table[workload] = {}
        for name, values in metrics.items():
            median, share = statistics.median(values), spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = ("  OVER BOUND" if share > bound else
                        "  over a third of bound" if share > bound / 3 else "")
            print(f"  {name:24s} median {median:14.4f}  spread {share:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
            table[workload][name] = (median, share)
    return table


def load_bounds(root: str) -> Dict[str, float]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    return {m["name"]: m["bound"] for m in declared["end_to_end"]}


def read_jsonl(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every BENCHMARK.json "
                             "workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=os.path.join("perfbench", "out",
                                                      "spread.jsonl"))
    parser.add_argument("--compare", nargs=2, metavar="JSONL",
                        help="compare the medians of two earlier sets")
    args = parser.parse_args(argv)
    root = os.getcwd()
    bounds = load_bounds(root)
    if args.compare:
        first, second = (summarise(read_jsonl(p), bounds)
                         for p in args.compare)
        print("== second median vs first (share; + is worse)")
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            better = {m["name"]: m["better"]
                      for m in json.load(handle)["end_to_end"]}
        for workload, metrics in first.items():
            for name, (median, _share) in metrics.items():
                other = second.get(workload, {}).get(name)
                if other is None or not median:
                    continue
                change = (other[0] - median) / abs(median)
                worse = change if better[name] == "lower" else -change
                flag = "  OVER BOUND" if worse > bounds[name] else ""
                print(f"  {workload:16s} {name:24s} {worse:+.4f}{flag}")
        return 0
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    records = []
    with open(args.out, "a", encoding="utf-8") as sink:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(declared["run_seconds"]),
                           "--trace", "0"]
                done = subprocess.run(command, cwd=root, text=True,
                                      stdout=subprocess.PIPE)
                last = done.stdout.strip().splitlines()[-1]
                record = {"workload": workload, "seed": seed,
                          "exit": done.returncode, "result": json.loads(last)}
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                records.append(record)
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
    summarise(records, bounds)
    return 0 if all(r["exit"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
