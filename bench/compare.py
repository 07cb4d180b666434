"""Compare two benchmark invocations metric by metric.

Usage::

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py bench/results/seed.json   # its first two invocations

A results file is what ``run.py --out`` writes (``{"runs": [...]}``, one
invocation) or ``{"invocations": [{"label": ..., "runs": [...]}, ...]}``.
For every (workload, end-to-end metric of ``BENCHMARK.json``) pair it
prints both medians, the relative delta, the bound, the seeds on which B
beat A, and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound, so the medians cannot tell, unless every run of B
  beats every run of A;
* ``ok`` — otherwise.

Exits 1 if any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def spread(values: Sequence[float]) -> float:
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / abs(median) if median else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / abs(a) if a else 0.0
    return change if better == "lower" else -change


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    beats = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not beats:
        return "unresolved"
    if worsening(statistics.median(a), statistics.median(b), better) > bound:
        return "worse"
    return "ok"


def compare(
    benchmark: Dict[str, Any], runs_a: List[Dict[str, Any]], runs_b: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    workloads = list(dict.fromkeys(run["workload"] for run in runs_a))
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return {
                    run["seed"]: run["metrics"][name]["value"]
                    for run in runs
                    if run["workload"] == workload and name in run["metrics"]
                }

            a, b = values(runs_a), values(runs_b)
            if not a or not b:
                continue
            shared = set(a) & set(b)
            wins = sum(
                worsening(a[seed], b[seed], metric["better"]) < 0 for seed in shared
            )
            median_a, median_b = statistics.median(a.values()), statistics.median(b.values())
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": median_a,
                    "b": median_b,
                    "delta": (median_b - median_a) / abs(median_a) if median_a else 0.0,
                    "bound": metric["bound"],
                    "wins": f"{wins}/{len(shared)}",
                    "verdict": verdict(
                        list(a.values()), list(b.values()), metric["better"], metric["bound"]
                    ),
                }
            )
    return rows


def invocations(path: Path) -> List[List[Dict[str, Any]]]:
    doc = json.loads(path.read_text())
    if "invocations" in doc:
        return [invocation["runs"] for invocation in doc["invocations"]]
    return [doc["runs"]]


def main(argv: Sequence[str]) -> int:
    if len(argv) == 1:
        sides = invocations(Path(argv[0]))[:2]
        if len(sides) < 2:
            print(f"{argv[0]} holds fewer than two invocations", file=sys.stderr)
            return 2
    elif len(argv) == 2:
        sides = [invocations(Path(arg))[0] for arg in argv]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(benchmark, sides[0], sides[1])
    print(
        f"{'workload':<13} {'metric':<14} {'A':>11} {'B':>11} {'delta':>8} "
        f"{'bound':>6} {'B wins':>7}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<13} {row['metric']:<14} {row['a']:>11.4f} {row['b']:>11.4f} "
            f"{row['delta']:>+8.2%} {row['bound']:>6.2f} {row['wins']:>7}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
