#!/bin/sh
# hydra_run's environment handling, one case per ctest entry:
#   hydra_run_env_test.sh <hydra_run binary> <scratch dir> threads|cache_cap
set -u
run=$1 dir=$2
rm -rf "$dir" && mkdir -p "$dir" || exit 1
export HYDRA_RUN_INSTRUCTIONS=40000 HYDRA_WARMUP_INSTRUCTIONS=10000
fail() { echo "FAIL: $*" >&2; exit 1; }

case $3 in
threads)
  # HYDRA_THREADS sizes only the global pool (a negative value falls back
  # to the hardware width); the threads= key is validated on its own.
  HYDRA_THREADS=-1 "$run" benchmark=gzip cores=2 format=json >/dev/null ||
    fail "cores=2 run under HYDRA_THREADS=-1 exited nonzero"
  if "$run" benchmark=gzip cores=2 threads=-1 >/dev/null 2>"$dir/err"; then
    fail "threads=-1 was accepted"
  fi
  grep -q threads "$dir/err" || fail "error does not name threads: $(cat "$dir/err")"
  ;;
cache_cap)
  # A 1-byte cap evicts every entry, so the second run finds nothing.
  for pass in 1 2; do
    HYDRA_CACHE_DIR="$dir/store" HYDRA_CACHE_MAX_BYTES=1 \
      "$run" benchmark=gzip summary_json="$dir/summary$pass.json" >/dev/null ||
      fail "capped run $pass exited nonzero"
  done
  grep -Eq '"disk_hits": 0([^0-9]|$)' "$dir/summary2.json" ||
    fail "second capped run hit the disk: $(grep disk_hits "$dir/summary2.json")"
  ;;
*) fail "unknown case '$3'" ;;
esac
