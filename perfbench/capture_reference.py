#!/usr/bin/env python3
"""Capture the committed output reference: every RunResult field of every
distinct run of a workload, for a range of seeds.

    python3 perfbench/capture_reference.py --seeds 0-31 [--workload W ...]

Writes perfbench/reference/<workload>.json. Re-capture only when a change
is meant to move simulated results, and say so in CHANGES.md: run.py
checks every run against this file (counts, names and hottest_block
exactly; real fields within 1e-9 degC / 1e-9 relative).
"""

import argparse
import json
import subprocess
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-31")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    if not run.build():
        return 2
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        path = run.REFERENCE / f"{workload}.json"
        seeds = {}
        fields = None
        for seed in parse_seeds(args.seeds):
            out = run.RESULTS / f"capture-{workload}-{seed}.json"
            cmd = [str(run.BINARY), "--workload", workload, "--seed",
                   str(seed), "--seconds", "0", "--trace", "0",
                   "--out", str(out)]
            if subprocess.run(cmd, env=run.child_env()).returncode != 0:
                return 2
            rec = json.loads(out.read_text())
            if rec["failed"]:
                print(f"{workload} seed {seed}: failed: {rec['errors']}",
                      file=sys.stderr)
                return 1
            fields = fields or list(rec["runs"][0])
            seeds[str(seed)] = [[r[k] for k in fields] for r in rec["runs"]]
            print(f"{workload} seed {seed}: {len(rec['runs'])} runs",
                  file=sys.stderr)
        with path.open("w") as f:
            f.write('{"fields": ' + json.dumps(fields) + ',\n "seeds": {\n')
            f.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                               for k, v in seeds.items()))
            f.write("\n }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
