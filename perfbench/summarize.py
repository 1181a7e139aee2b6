"""
Summarize saved benchmark results, one block per workload.

Usage, from the root of a checkout, after some ``perfbench/run.py`` runs::

    python3 perfbench/summarize.py                 # every saved result
    python3 perfbench/summarize.py --seeds 1-10    # a seed range only
    python3 perfbench/summarize.py --trace 1       # the traced runs

For each workload it prints the number of runs and of operations
attempted and failed, then every metric by name with its unit: the
median of the per-run values, the first and third quartiles, and the
quartile spread as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(trace: int, seeds: range | None) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(RESULTS.glob(f"*-trace{trace}.json")):
        if path.name.startswith("trace-"):
            continue
        rec = json.loads(path.read_text())
        if seeds is None or rec["seed"] in seeds:
            runs[rec["workload"]].append(rec)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = None
    if args.seeds:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        seeds = range(lo, hi + 1)
    runs = load(args.trace, seeds)
    if not runs:
        print("no saved results")
        return 1
    for workload, recs in sorted(runs.items()):
        results = [r["result"] for r in recs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(recs)} runs, {attempted} operations "
              f"attempted, {failed} failed, correct={correct}")
        names = results[0]["metrics"]
        print(f"  {'metric':42s} {'unit':6s} {'median':>10s} {'q1':>10s} "
              f"{'q3':>10s} {'spread':>7s}")
        for name, first in names.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:42s} {first['unit']:6s} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
