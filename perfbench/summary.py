"""Table of the end-to-end metrics over the runs recorded under `.bench_out/results/`.

    python3 perfbench/summary.py

For each workload and metric: the number of runs, the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json, and the
runs' failed/attempted experiment counts and mean duration.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    results = ROOT / ".bench_out" / "results"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {}
    for path in sorted(results.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["trace"] == 0:
            runs.setdefault(record["workload"], []).append(record)

    print(f"{'workload':14s} {'metric':12s} {'unit':4s} {'runs':>4s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for workload, records in sorted(runs.items()):
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records if metric["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < metric["bound"] / 3 else "  above bound/3"
            print(f"{workload:14s} {metric['name']:12s} {metric['unit']:4s} {len(values):4d} {median:10.4f} "
                  f"{q1:10.4f} {q3:10.4f} {spread:7.2%} {metric['bound']:6.2f}{flag}")
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        seconds = statistics.mean(r["run_s"] for r in records)
        print(f"{workload:14s} fail_frac {failed}/{attempted}, {seconds:.1f} s per run, "
              f"correct in {sum(r['correct'] for r in records)}/{len(records)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
