"""Compare two sets of benchmark runs recorded with ``run.py --out``.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one JSON record per line (a workload run).  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints the
median and quartiles of each side and flags a change median that is
worse than the parent's by more than the metric's bound; the ungated
numbers run.py also records are shown without a verdict.  Runs from
different hosts are refused: numbers from another machine are context,
not evidence.

Exit codes: 0 no regression, 1 regression, 2 refused (mixed hosts or
no comparable runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Numbers run.py records but BENCHMARK.json does not gate (see the
#: README): shown for context, never a verdict.
UNGATED = ("p90_ms", "p99_ms", "study_s", "setup_wall_s", "req_per_s",
           "route_p50_ms", "batch_rows_per_s", "error_rate")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": load(args.parent), "change": load(args.change)}

    hosts = {r["host"]["id"] for runs in sides.values() for r in runs}
    if len(hosts) != 1:
        print(f"refused: runs come from {len(hosts)} different hosts "
              f"({', '.join(sorted(hosts))})", file=sys.stderr)
        return 2

    regressions = 0
    compared = 0
    workloads = sorted({r["workload"] for runs in sides.values() for r in runs
                        if not r["trace"]})
    for workload in workloads:
        runs = {side: [r for r in rs if r["workload"] == workload and not r["trace"]]
                for side, rs in sides.items()}
        if not runs["parent"] or not runs["change"]:
            continue
        print(f"{workload}: {len(runs['parent'])} parent vs "
              f"{len(runs['change'])} change runs")
        gated = [(m["name"], m) for m in spec["end_to_end"]]
        for name, metric in gated + [(n, None) for n in UNGATED]:
            values = {side: [r["metrics"][name] for r in rs
                             if r["metrics"].get(name) is not None]
                      for side, rs in runs.items()}
            if not values["parent"] or not values["change"]:
                continue
            p1, pm, p3 = quartiles(values["parent"])
            c1, cm, c3 = quartiles(values["change"])
            line = (f"  {name:16s} parent {pm:10.4f} [{p1:.4f}, {p3:.4f}]  "
                    f"change {cm:10.4f} [{c1:.4f}, {c3:.4f}]")
            if metric is None:
                print(line + "  (not gated)")
                continue
            compared += 1
            worse = (cm - pm) / pm if metric["better"] == "lower" else (pm - cm) / pm
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"{line}  worse by {100 * worse:+.1f}% "
                  f"(bound {100 * metric['bound']:.0f}%)  {verdict}")
    if not compared:
        print("refused: no workload has untraced runs on both sides",
              file=sys.stderr)
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
