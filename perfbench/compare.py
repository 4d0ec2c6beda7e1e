"""Summarise or compare benchmark result sets.

    python3 perfbench/compare.py BASE.log            # spread of one set
    python3 perfbench/compare.py BASE.log CHANGE.log # verdict per metric

A result set is any text file holding the ``{"record": ...}`` lines that
``run.py`` prints, e.g. the captured output of runs with seeds 1..10. For
each workload and metric it prints each side's median and quartiles, and
the spread: quartile distance over median.

With two sets, runs are paired by seed (by order when no seed is shared)
and each metric gets a verdict, following the pairs and spread rules the
benchmark is built on:

* ``better``: the change wins at least 9 in 10 pairs, ties counting for
  neither, and the medians differ by more than the base's quartile
  distance;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound; for a metric with no bound, the base wins 9 in 10 pairs
  by more than its quartile distance;
* ``unresolved``: neither, and either side's spread exceeds the bound, or
  the metric has no bound; unless every change run beats every base run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Printed end-to-end metrics that BENCHMARK.json does not gate, with the
# direction that is better: stage times exist only on some workloads,
# failed_ratio is 0 on a correct run, and the median and throughput follow
# the machine's load more than the program.
UNGATED = {
    "simulate_s": "lower", "analyze_s": "lower", "evaluate_s": "lower",
    "wall_median_s": "lower", "panels_per_s": "higher", "failed_ratio": "lower",
}


def load_records(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith('{"record":'):
            records.append(json.loads(line)["record"])
    if not records:
        raise SystemExit(f"{path}: no record lines")
    return records


def metric_specs() -> dict[str, tuple[str, float | None]]:
    """Metric name -> (better, bound) for every metric compared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {name: (better, None) for name, better in UNGATED.items()}
    for m in spec["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf") if q3 > q1 else 0.0


def by_seed(records: list[dict], workload: str, trace: int, metric: str) -> dict:
    return {
        r["seed"]: r["metrics"][metric]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    }


def verdict(base: dict, change: dict, better: str, bound: float | None) -> tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0
    shared = sorted(set(base) & set(change))
    pairs = (
        [(base[s], change[s]) for s in shared]
        if shared
        else list(zip(base.values(), change.values()))
    )
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    a, c = list(base.values()), list(change.values())
    q1, base_median, q3 = quartiles(a)
    gain = sign * (statistics.median(c) - base_median)
    tally = f"{wins}/{len(pairs)} won"
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better", tally
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > q3 - q1:
            return "worse", tally
        return "unresolved", tally
    if -gain > bound * abs(base_median):
        return "worse", tally
    all_better = min(sign * x for x in c) > max(sign * x for x in a)
    if max(spread(a), spread(c)) > bound and not all_better:
        return "unresolved", tally
    return "unchanged", tally


def describe(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_records(path) for path in argv]
    specs = metric_specs()
    groups = sorted({(r["workload"], r["trace"]) for r in sets[0]})
    for workload, trace in groups:
        counts = [len(by_seed(s, workload, trace, "trace.wall_s" if trace else "wall_s")) for s in sets]
        print(f"== {workload} (trace {trace}), runs: {' vs '.join(map(str, counts))}")
        for metric, (better, bound) in specs.items():
            sides = [by_seed(s, workload, trace, metric) for s in sets]
            if not all(sides):
                continue
            cells = [f"{describe(list(side.values()))} spread {spread(list(side.values())):.3f}" for side in sides]
            line = f"  {metric:42s} " + " | ".join(cells)
            if bound is not None:
                line += f" (bound {bound})"
            if len(sides) == 2:
                word, tally = verdict(sides[0], sides[1], better, bound)
                line += f" -> {word}, {tally}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
