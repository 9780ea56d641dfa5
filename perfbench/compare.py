#!/usr/bin/env python3
"""Bound check: compare two sets of benchmark runs against BENCHMARK.json.

    python3 perfbench/compare.py --parent <dir> --change <dir>

Each directory holds the *.summary.json files run.py writes to
.bench_build/results/ (copy them out between the two commits). For every
workload and end-to-end metric the check fails when

  * the change's median is worse than the parent's median by more than
    the metric's bound (a share of the parent's median), or
  * the parent's own spread (interquartile range over median) exceeds the
    bound, so the comparison cannot resolve it (reported "unresolved"),
    unless every change run beats every parent run, or
  * any change run reported an incorrect output or a failed point.

Exit status 0 = within bounds, 1 = a check failed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: [summary, ...]} from untraced summaries."""
    runs = {}
    for p in sorted(Path(directory).glob("*.summary.json")):
        s = json.loads(p.read_text())
        if s.get("trace") == 0 and "end_to_end" in s:
            runs.setdefault(s["workload"], []).append(s)
    return runs


def iqr_share(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare(parent, change, spec):
    """Rows of (workload, metric, verdict, detail); verdict is 'ok',
    'regressed', 'unresolved' or 'failed'."""
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_runs = parent.get(workload, [])
        c_runs = change.get(workload, [])
        if not p_runs or not c_runs:
            rows.append((workload, "-", "failed", "missing runs"))
            continue
        bad = [s for s in c_runs if not s["correct"] or s["failed"] > 0]
        if bad:
            rows.append((workload, "correct", "failed",
                         f"{len(bad)} run(s) incorrect or with failed points"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            pv = [s["end_to_end"][name]["value"] for s in p_runs]
            cv = [s["end_to_end"][name]["value"] for s in c_runs]
            pm, cm = statistics.median(pv), statistics.median(cv)
            worse = sign * (cm - pm) / pm if pm else 0.0
            detail = (f"parent {pm:.6g} change {cm:.6g} "
                      f"worse by {100 * worse:+.2f}% (bound {100 * bound:g}%)")
            if worse > bound:
                verdict = "regressed"
            elif iqr_share(pv) > bound and not all(
                    sign * (c - p) < 0 for c in cv for p in pv):
                verdict = "unresolved"
                detail += f", parent spread {100 * iqr_share(pv):.1f}%"
            else:
                verdict = "ok"
            rows.append((workload, name, verdict, detail))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    for workload, metric, verdict, detail in rows:
        print(f"{workload:<12} {metric:<20} {verdict:<10} {detail}")
    return 0 if all(r[2] == "ok" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
