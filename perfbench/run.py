#!/usr/bin/env python3
"""End-to-end benchmark of hydra-dtm (see perfbench/README.md).

    python3 perfbench/run.py --workload <suite_1t|fig4_sweep|die16>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the simulator and the benchmark
binary from source (Release, into .bench_build/), runs one workload in
a process pinned to its CPU budget, checks every output against the
committed reference, prints a metric table, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
makes the separate traced run and reports the per-layer metrics. The
full record (samples, quartiles, host fingerprint) is written to
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RESULTS = BUILD / "results"
BINARY = CMAKE_DIR / "perfbench"
REFERENCE = HERE / "reference"

WORKLOADS = ("suite_1t", "fig4_sweep", "die16")

# Fields compared exactly; every other RunResult field is real-valued.
EXACT_FIELDS = {
    "benchmark", "policy", "hottest_block", "instructions", "cycles",
    "dvs_transitions", "solver_guard_trips", "faulted_samples",
    "sensor_rejections", "quarantine_entries", "cores", "thread_migrations",
}
CELSIUS_TOL = 1e-9   # absolute, on *_celsius fields
RELATIVE_TOL = 1e-9  # relative, on every other real field

# die16 must really engage every die-level mechanism on its DTM points.
ENGAGEMENT_FIELDS = ("mean_gate_fraction", "dvs_low_fraction",
                     "thread_migrations", "budget_throttled_fraction")

PAPER_HYB_CUT_PCT = 25.0  # EXPERIMENTS.md, Figure 4a


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build; returns False when the sources are missing or
    the build fails."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
         "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", str(CMAKE_DIR), "-j", jobs],
    ]
    if (CMAKE_DIR / "CMakeCache.txt").exists():
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def child_env():
    """The benchmark measures the repository defaults: drop every HYDRA_*
    override (thread width, batching, SIMD/sparse dispatch, run length)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HYDRA_")}


def run_binary(args, record_path, spans_path):
    """Run the perfbench binary; in traced runs, poll its thread count."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(record_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, env=child_env(), stdout=sys.stderr)
    max_threads = 0
    status = Path(f"/proc/{proc.pid}/status")
    while proc.poll() is None:
        if args.trace:
            try:
                for line in status.read_text().splitlines():
                    if line.startswith("Threads:"):
                        max_threads = max(max_threads, int(line.split()[1]))
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        else:
            time.sleep(0.05)
    return proc.wait(), max_threads


# ---------------------------------------------------------------------------
# Output checks.

def fields_match(name, got, want):
    if name in EXACT_FIELDS or isinstance(want, str):
        return got == want
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        return False
    if name.endswith("_celsius"):
        return abs(got - want) <= CELSIUS_TOL
    return abs(got - want) <= RELATIVE_TOL * max(abs(got), abs(want)) + 1e-15


def load_reference(workload, seed):
    """Reference runs for (workload, seed) as dicts, or None."""
    path = REFERENCE / f"{workload}.json"
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    rows = ref["seeds"].get(str(seed))
    if rows is None:
        return None
    return [dict(zip(ref["fields"], row)) for row in rows]


def check_reference(runs, reference):
    """Per-run mismatch descriptions; one entry per failing run."""
    if len(runs) != len(reference):
        return [f"{len(runs)} runs, reference has {len(reference)}"] * max(
            len(runs), len(reference))
    bad = []
    for got, want in zip(runs, reference):
        diffs = [k for k in want if not fields_match(k, got.get(k), want[k])]
        if set(got) != set(want):
            diffs.append("field set")
        if diffs:
            bad.append(f"{want['benchmark']}/{want['policy']}: "
                       + ", ".join(diffs))
    return bad


def check_engagement(runs):
    """die16: every DTM point must gate fetch, spend time at low voltage,
    migrate threads and be budget-throttled."""
    bad = []
    for r in runs:
        if r["policy"] == "baseline":
            continue
        zero = [k for k in ENGAGEMENT_FIELDS if not r.get(k, 0) > 0]
        if zero:
            bad.append(f"{r['benchmark']}/{r['policy']}: zero "
                       + ", ".join(zero))
    return bad


def hyb_cut(points):
    """Hyb's cut in DVS-stall DTM overhead, in percent, and its error
    against the paper's ~25 %."""
    by_policy = {}
    for p in points:
        by_policy.setdefault(p["policy"], []).append(p["slowdown"])
    if "DVS" not in by_policy or "Hyb" not in by_policy:
        return None
    dvs = statistics.fmean(by_policy["DVS"]) - 1.0
    hyb = statistics.fmean(by_policy["Hyb"]) - 1.0
    if dvs <= 0:
        return None
    cut = 100.0 * (dvs - hyb) / dvs
    return cut, abs(cut - PAPER_HYB_CUT_PCT)


# ---------------------------------------------------------------------------
# Metrics.

def quartiles(values):
    """First and third quartile (statistics.quantiles, n=4)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(rec):
    """{metric: samples}. A failed sweep counts in `failed`; its partial
    timing is not a sample. When every sweep failed the run is incorrect
    and reports zeros."""
    sweeps = [s for s in rec["sweeps"] if s["instructions"] > 0] or [
        {"instructions": 0, "cycles": 0, "wall_s": 1.0, "cpu_s": 0.0}]
    return {
        "sim_instr_per_s": [s["instructions"] / s["wall_s"] for s in sweeps],
        "core_cycles_per_s": [s["cycles"] / s["wall_s"] for s in sweeps],
        "cpu_ns_per_instr": [s["cpu_s"] * 1e9 / max(s["instructions"], 1)
                             for s in sweeps],
        "setup_s": rec["setup_s"],
        "peak_rss_mb": [rec["peak_rss_mb"]],
    }


def per_layer(rec, max_threads):
    """{metric: value}: the binary's replay figures plus the two measured
    here."""
    return dict(rec["layers"], **{
        "util.max_threads": max_threads,
        "thermal.build_ms": statistics.median(rec["thermal_build_ms"]),
    })


def source_fingerprint():
    """Git revision when available, and a hash of the simulator and
    benchmark sources (the checkout may not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        rev = proc.stdout.strip() or None
    return {"git_revision": rev, "sources_sha256": h.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("fail", "slow"), default=None,
                    help="self-test fixture: a failing or a slowed point")
    args = ap.parse_args(argv)

    if not build():
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    # One file set per run: repeated runs of a seed keep every sample.
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.inject:
        tag += f"-{args.inject}"
    tag += time.strftime("-%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    record_path = RESULTS / f"{tag}.record.json"
    spans_path = RESULTS / f"{tag}.spans.jsonl"
    code, max_threads = run_binary(args, record_path, spans_path)
    if code != 0:
        log(f"perfbench: binary exited with code {code}")
        return 2
    rec = json.loads(record_path.read_text())

    errors = list(rec["errors"])
    failed = rec["failed"]
    reference = None
    if not args.inject:
        reference = load_reference(args.workload, args.seed)
    if reference is not None:
        bad = check_reference(rec["runs"], reference)
        failed += len(bad)
        errors += bad
    if args.workload == "die16":
        bad = check_engagement(rec["runs"])
        failed += len(bad)
        errors += bad
    attempted = rec["attempted"]
    correct = failed == 0 and not errors

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "errors": errors,
        "reference": "committed" if reference is not None else
                     "none for this seed: determinism checks only",
        "host": dict(rec["host"], **source_fingerprint(),
                     pinned_cpus=rec["pinned_cpus"],
                     cpu_budget=rec["cpu_budget"],
                     pool_width=rec["pool_width"]),
        "repeats": len(rec["sweeps"]),
    }
    cut = hyb_cut(rec["points"]) if args.workload == "fig4_sweep" else None
    if cut is not None:
        summary["hyb_cut_pct"], summary["hyb_cut_err_pp"] = cut

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"cpus={rec['pinned_cpus']} pool={rec['pool_width']} "
          f"repeats={len(rec['sweeps'])} reference={summary['reference']}")
    if args.trace == 0 and rec["sweeps"]:
        samples = end_to_end(rec)
        for m in spec["end_to_end"]:
            v = samples[m["name"]]
            value, (q1, q3) = statistics.median(v), quartiles(v)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            summary.setdefault("end_to_end", {})[m["name"]] = dict(
                metrics[m["name"]], q1=q1, q3=q3, samples=len(v))
            print(f"  {m['name']:<26} {value:>16.6g} {m['unit']:<9} "
                  f"q1={q1:.6g} q3={q3:.6g} n={len(v)}")
    elif args.trace == 1:
        layers = per_layer(rec, max_threads)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<26} {layers[m['name']]:>16.6g} {m['unit']}")
        summary["per_layer"] = metrics
    print(f"  {'fail_frac':<26} {summary['fail_frac']:>16.6g} frac "
          f"({failed}/{attempted})")
    if cut is not None:
        print(f"  {'hyb_cut_err_pp':<26} {cut[1]:>16.6g} pp "
              f"(Hyb cuts DVS-stall overhead by {cut[0]:.2f} %, paper ~25 %)")
    for e in errors[:20]:
        print(f"  error: {e}")
    (RESULTS / f"{tag}.summary.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
