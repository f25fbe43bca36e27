"""No-regression check between two ``BENCH_e2e.json`` files.

``python3 benchmarks/e2e/compare.py A.json B.json`` prints, per workload
and end-to-end metric, both medians, the ratio B/A with its base, the
metric's bound and a verdict:

``worse``
    B's median is worse than A's by more than the bound;
``unresolved``
    the run-to-run spread (interquartile distance over the median) of
    either side is wider than the bound, so the medians cannot settle it;
``same``
    neither of the above.  A gain is never called here: claiming one
    needs paired runs (see the README's noise rule).

Spread needs at least three sets per file (``run.py --repeat 3``); with
fewer the verdict rests on the medians alone and says so.  Exits 1 when
any metric is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import metrics as table
import stats


def values(report: dict, workload: str, name: str) -> list[float]:
    """One value per set of ``name`` from ``workload``'s untraced records."""
    return [
        records[workload]["untraced"]["metrics"][name]["value"]
        for records in report["sets"]
        if name in records.get(workload, {}).get("untraced", {}).get("metrics", {})
    ]


def verdict(metric: table.Metric, a: list[float], b: list[float]) -> str:
    base, other = stats.median(a), stats.median(b)
    if len(a) >= 3 and len(b) >= 3 and metric.bound:
        if max(stats.spread(a), stats.spread(b)) > metric.bound:
            return "unresolved"
    change = other - base if metric.better == "lower" else base - other
    if base:
        change /= abs(base)
    return "worse" if change > metric.bound else "same"


def compare(report_a: dict, report_b: dict) -> list[tuple]:
    rows = []
    for workload in table.WORKLOADS:
        for metric in table.END_TO_END + table.WORKLOAD_E2E:
            a = values(report_a, workload, metric.name)
            b = values(report_b, workload, metric.name)
            if a and b:
                rows.append((workload, metric, a, b, verdict(metric, a, b)))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(name).read_text()) for name in argv)
    rows = compare(report_a, report_b)
    print(
        f"{'workload':<14} {'metric':<26} {'A median':>11} {'B median':>11} "
        f"{'B/A (base A)':>13} {'bound':>6}  verdict"
    )
    for workload, metric, a, b, outcome in rows:
        base, other = stats.median(a), stats.median(b)
        ratio = f"{other / base:13.3f}" if base else f"{'n/a':>13}"
        few = "" if min(len(a), len(b)) >= 3 else " (medians only: < 3 sets)"
        print(
            f"{workload:<14} {metric.name:<26} {base:11.5g} {other:11.5g} "
            f"{ratio} {metric.bound:6.2f}  {outcome}{few}"
        )
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
