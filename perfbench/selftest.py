#!/usr/bin/env python3
"""Self-test of the benchmark's own checks: they must be able to fail.

    python3 perfbench/selftest.py          # fixtures + live runs (~2 min)
    python3 perfbench/selftest.py --quick  # fixtures only, no build

Fixtures (no simulation):
  * the output check rejects a real field off by 1e-6 relative, a
    changed hottest_block and a missing run, and accepts a 1e-12 change;
  * the die16 engagement check rejects a DTM point with any of fetch
    gating, low-voltage time, migrations or budget throttling at zero;
  * the bound check (compare.py) flags a slowed change, an incorrect
    change and an unresolvable spread, and passes an identical one.
Live runs (builds the benchmark, full run lengths):
  * a point that throws is counted: correct=false, failed > 0;
  * a slowed point (hidden extra start-up work) fails the bound check;
  * die16 at its real configuration engages every mechanism.
Exit status 0 = every check behaved, 1 = a check could not fail (or a
live run misbehaved).
"""

import argparse
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import compare
import run

HERE = Path(__file__).resolve().parent
FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def fixture_reference():
    ref = run.load_reference("suite_1t", 1)
    expect(ref is not None, "reference for suite_1t seed 1 is committed")
    if ref is None:
        return
    same = copy.deepcopy(ref)
    expect(run.check_reference(same, ref) == [], "identical runs pass")
    tiny = copy.deepcopy(ref)
    tiny[0]["mean_power_watts"] *= 1 + 1e-12
    tiny[0]["max_true_celsius"] += 1e-12
    expect(run.check_reference(tiny, ref) == [],
           "changes within the 1e-9 tolerance pass")
    off = copy.deepcopy(ref)
    off[3]["mean_power_watts"] *= 1 + 1e-6
    expect(len(run.check_reference(off, ref)) == 1,
           "a real field off by 1e-6 relative fails")
    hot = copy.deepcopy(ref)
    hot[2]["hottest_block"] = "NotABlock"
    expect(len(run.check_reference(hot, ref)) == 1,
           "a changed hottest_block fails")
    count = copy.deepcopy(ref)
    count[1]["instructions"] += 1
    expect(len(run.check_reference(count, ref)) == 1,
           "an instruction count off by one fails")
    expect(len(run.check_reference(ref[:-1], ref)) > 0, "a missing run fails")


def fixture_engagement():
    good = {"benchmark": "crafty", "policy": "Hyb", "mean_gate_fraction": 0.1,
            "dvs_low_fraction": 0.5, "thread_migrations": 3,
            "budget_throttled_fraction": 0.4}
    base = dict(good, policy="baseline", mean_gate_fraction=0.0,
                dvs_low_fraction=0.0, thread_migrations=0,
                budget_throttled_fraction=0.0)
    expect(run.check_engagement([base, good]) == [],
           "engaged die16 DTM point passes (baseline exempt)")
    for field in run.ENGAGEMENT_FIELDS:
        expect(len(run.check_engagement([dict(good, **{field: 0})])) == 1,
               f"die16 DTM point with zero {field} fails")


def summary(workload, value, correct=True, failed=0):
    metrics = {"sim_instr_per_s": value, "core_cycles_per_s": value,
               "cpu_ns_per_instr": 1e9 / value, "setup_s": 0.01,
               "peak_rss_mb": 20.0}
    return {"workload": workload, "trace": 0, "correct": correct,
            "failed": failed,
            "end_to_end": {k: {"value": v} for k, v in metrics.items()}}


def fixture_bounds():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent = {"w": [summary("w", v) for v in (100.0, 101.0, 99.0, 100.5)]}

    def verdicts(change):
        return {(r[1], r[2]) for r in compare.compare(parent, change, spec)}

    same = {"w": [summary("w", v) for v in (100.2, 99.8, 100.1)]}
    expect(all(v == "ok" for _, v in verdicts(same)),
           "bound check passes an unchanged change")
    slow = {"w": [summary("w", v) for v in (60.0, 61.0, 59.0)]}
    expect(("sim_instr_per_s", "regressed") in verdicts(slow),
           "bound check flags a 40% slower change")
    bad = {"w": [summary("w", 100.0, correct=False, failed=1)]}
    expect(("correct", "failed") in verdicts(bad),
           "bound check flags a change with a failed point")
    noisy = {"w": [summary("w", v) for v in (50.0, 150.0, 80.0, 120.0)]}
    rows = compare.compare(noisy, same, spec)
    expect(any(r[2] == "unresolved" for r in rows),
           "bound check reports a parent spread wider than the bound")


def live_run(*args):
    """Run run.py; returns (result line, summary path) or (None, None)."""
    before = set(run.RESULTS.glob("*.summary.json"))
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        return None, None
    new = sorted(set(run.RESULTS.glob("*.summary.json")) - before)
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            new[0] if len(new) == 1 else None)


def live(tmp):
    res, _ = live_run("--workload", "suite_1t", "--seed", "3",
                      "--seconds", "0", "--trace", "0", "--inject", "fail")
    expect(res is not None and not res["correct"] and res["failed"] > 0,
           "a throwing point is counted as failed (fail_frac > 0)")

    parent_dir, change_dir = Path(tmp, "parent"), Path(tmp, "change")
    parent_dir.mkdir()
    change_dir.mkdir()
    ok = True
    for d, inject in ((parent_dir, []), (change_dir, ["--inject", "slow"])):
        res, src = live_run("--workload", "suite_1t", "--seed", "3",
                            "--seconds", "2", "--trace", "0", *inject)
        ok = ok and res is not None and src is not None
        if src is not None:
            s = json.loads(src.read_text())
            # The slowed point changes outputs by design; the bound check
            # is what is under test here.
            s["correct"], s["failed"] = True, 0
            (d / src.name).write_text(json.dumps(s))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows = compare.compare(compare.load_runs(parent_dir),
                           compare.load_runs(change_dir), spec)
    expect(ok and ("suite_1t", "sim_instr_per_s", "regressed") in
           {r[:3] for r in rows},
           "a slowed point fails the bound check on sim_instr_per_s")

    res, _ = live_run("--workload", "die16", "--seed", "3",
                      "--seconds", "0", "--trace", "0")
    expect(res is not None and res["correct"],
           "die16 engages gating, low voltage, migration and budget "
           "throttling on its DTM points")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="fixtures only (no build, no simulation)")
    args = ap.parse_args()
    fixture_reference()
    fixture_engagement()
    fixture_bounds()
    if not args.quick:
        run.BUILD.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            live(tmp)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
