"""Compare two result sets of the benchmark, workload by workload and metric by metric.

A result set is a ``results.jsonl`` file that bench/run.py appends to. Runs
of the two sets pair up by workload and seed; make them alternately (base,
change, change, base, ...), at least ten pairs per workload. For every
workload and end-to-end metric this prints each side's median and quartiles
and one verdict, using the bound BENCHMARK.json fixes for the metric:

* ``improved``: at least ten pairs, the change wins nine tenths of all
  pairs (ties count for neither side), and the medians differ in the better
  direction by more than the base's own quartile spread;
* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the bound, unless every run of the change beats every base run;
* ``no worse`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from the correct untraced runs of one result set."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            if not rec["correct"]:
                print(f"{path}: {rec['workload']} seed {rec['seed']} was not correct; left out")
                continue
            values = {k: m["value"] for k, m in rec["metrics"].items()}
            runs.setdefault(rec["workload"], {}).setdefault(rec["seed"], values)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def change_wins(pairs: list[tuple[float, float]], higher_is_better: bool) -> int:
    sign = 1.0 if higher_is_better else -1.0
    return sum(sign * (c - b) > 0 for b, c in pairs)


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher_is_better: bool, bound: float) -> str:
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    gain = (c_med - b_med) if higher_is_better else (b_med - c_med)
    if len(pairs) >= 10 and change_wins(pairs, higher_is_better) >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved"
    every_run_better = (min(change) > max(base)) if higher_is_better else (max(change) < min(base))
    spread = max((b3 - b1) / abs(b_med), (c3 - c1) / abs(c_med))
    if spread > bound and not every_run_better:
        return "unresolved"
    if gain < -bound * abs(b_med):
        return "worse"
    return "no worse"


def main(base_path: str, change_path: str) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    base, change = load(base_path), load(change_path)
    worse = False
    print(f"{'workload':15s} {'metric':15s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'pairs':>5s} {'wins':>4s}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        b_runs, c_runs = base.get(name, {}), change.get(name, {})
        seeds = sorted(set(b_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b = [r[key] for r in b_runs.values() if r.get(key) is not None]
            c = [r[key] for r in c_runs.values() if r.get(key) is not None]
            if not b or not c:
                print(f"{name:15s} {key:15s} {'(no runs on one side)':>34s}")
                continue
            pairs = [(b_runs[s][key], c_runs[s][key]) for s in seeds
                     if b_runs[s].get(key) is not None and c_runs[s].get(key) is not None]
            higher = metric["better"] == "higher"
            result = verdict(b, c, pairs, higher, metric["bound"])
            worse |= result == "worse"
            wins = change_wins(pairs, higher)
            bq, cq = quartiles(b), quartiles(c)
            print(f"{name:15s} {key:15s} {bq[1]:12.6g} [{bq[0]:9.6g}, {bq[2]:9.6g}] "
                  f"{cq[1]:12.6g} [{cq[0]:9.6g}, {cq[2]:9.6g}] {len(pairs):5d} {wins:4d}  {result}")
    return 1 if worse else 0
