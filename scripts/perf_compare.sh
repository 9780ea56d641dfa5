#!/bin/sh
# Parent-vs-change performance gate.
#
#   scripts/perf_compare.sh <parent-ref>
#
# Checks <parent-ref> out into a git worktree, then runs perfbench/run.py
# (20 s, untraced) on every BENCHMARK.json workload in 5 alternating
# pairs: pair i runs seed i on both sides, the parent first on even
# pairs and the change (this working tree) first on odd ones. The
# *.summary.json records of both trees are copied to
# .bench_build/compare/{parent,change}/ and the exit status is
# perfbench/compare.py's: 0 when no end-to-end metric is worse than the
# parent by more than its BENCHMARK.json bound and every run is correct.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 <parent-ref>" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/compare
tree=$out/parent-tree
git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$out"
git -C "$root" worktree prune
mkdir -p "$out/parent" "$out/change"
git -C "$root" worktree add --detach "$tree" "$1" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT
touch "$out/stamp"

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")

run() {  # run <tree> <workload> <seed>
  (cd "$1" && python3 perfbench/run.py --workload "$2" --seed "$3" \
    --seconds 20 --trace 0)
}

for i in 0 1 2 3 4; do
  for w in $workloads; do
    if [ $((i % 2)) -eq 0 ]; then
      run "$tree" "$w" "$i"
      run "$root" "$w" "$i"
    else
      run "$root" "$w" "$i"
      run "$tree" "$w" "$i"
    fi
  done
done

collect() {  # collect <tree> <side>: this invocation's summaries only
  find "$1/.bench_build/results" -name '*.summary.json' -newer "$out/stamp" \
    -exec cp {} "$out/$2/" \;
}
collect "$tree" parent
collect "$root" change
python3 "$root/perfbench/compare.py" --parent "$out/parent" \
  --change "$out/change"
