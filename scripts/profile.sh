#!/usr/bin/env sh
# Profile the simulator's hot loop and emit a per-function hot-spot table.
#
# Builds a Release binary with frame pointers kept (so call stacks unwind
# cheaply), runs a representative single-core DTM simulation, and writes
# a flat per-function profile to $HYDRA_PROFILE_DIR/hotspots.txt. This is
# the table the hot-loop work in DESIGN.md §12 was driven by: before
# touching a line, check that the line is actually hot.
#
# Profiler selection, best first, by what the host has installed:
#   * perf       — sampling profiler, lowest distortion; needs kernel
#                  perf_event access (perf_event_paranoid <= 2 or root).
#   * cachegrind — valgrind instrumentation; slow but needs no kernel
#                  support, also yields cache-miss counts.
#   * gprof      — -pg instrumented build; always available with gcc.
#
# Usage: scripts/profile.sh [benchmark] [policy]
#        scripts/profile.sh --bench <target> [benchmark-args...]
#   (defaults: gzip hyb; HYDRA_RUN_INSTRUCTIONS / HYDRA_WARMUP_INSTRUCTIONS
#    shorten or lengthen the profiled run.)
#
# --bench profiles a microbenchmark binary (e.g. micro_perf) instead of
# the end-to-end hydra_run simulation; remaining arguments go straight to
# the benchmark, so `scripts/profile.sh --bench micro_perf
# --benchmark_filter=BM_ThermalFusedStep` isolates one kernel.
# The sparse-path kernels profile the same way:
#   scripts/profile.sh --bench micro_perf --benchmark_filter=BM_SparseStep
#   scripts/profile.sh --bench micro_perf \
#     '--benchmark_filter=BM_SparseCholeskyFactor|BM_DieStep'
# (BM_DieStep runs both the dense and sparse leg at each die size, so one
# profile shows the crossover's two sides back to back.)
#
# The script is best-effort by design — CI runs it in a never-failing
# optional job — but it still exits nonzero if no profiler produced a
# table, so local misconfiguration is visible.
set -eu

cd "$(dirname "$0")/.."
REPO_ROOT="$(pwd)"

TARGET=hydra_run
BENCH_MODE=0
if [ "${1:-}" = "--bench" ]; then
  if [ -z "${2:-}" ]; then
    echo "profile.sh: --bench needs a target (e.g. micro_perf)" >&2
    exit 1
  fi
  TARGET="$2"
  BENCH_MODE=1
  shift 2
fi

OUT_DIR="${HYDRA_PROFILE_DIR:-profile-out}"
RUN_INSTRUCTIONS="${HYDRA_RUN_INSTRUCTIONS:-2000000}"
WARMUP_INSTRUCTIONS="${HYDRA_WARMUP_INSTRUCTIONS:-200000}"

if [ "$BENCH_MODE" = 1 ]; then
  # Default to a long-enough measurement for a stable profile; any
  # explicit benchmark args replace it wholesale.
  if [ "$#" -gt 0 ]; then
    run_args="$*"
  else
    run_args="--benchmark_min_time=0.5"
  fi
  WORKLOAD="$TARGET $run_args"
else
  BENCHMARK="${1:-gzip}"
  POLICY="${2:-hyb}"
  run_args="benchmark=$BENCHMARK policy=$POLICY \
run_instructions=$RUN_INSTRUCTIONS warmup_instructions=$WARMUP_INSTRUCTIONS"
  WORKLOAD="$BENCHMARK / $POLICY ($RUN_INSTRUCTIONS instructions)"
fi

mkdir -p "$OUT_DIR"
HOTSPOTS="$OUT_DIR/hotspots.txt"

build() {
  # $1 = build dir, $2 = extra CXX flags.
  cmake -B "$1" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="$2" >/dev/null
  cmake --build "$1" -j "$(nproc)" --target "$TARGET" >/dev/null
}

# The built binary's path inside a build tree (hydra_run and hydra_trace live
# under tools/, the microbenches under bench/).
bin_path() {
  find "$1" -type f -name "$TARGET" -perm -u+x | head -n 1
}

header() {
  {
    echo "hydra hot-spot profile"
    echo "  profiler:  $1"
    echo "  workload:  $WORKLOAD"
    echo "  host:      $(uname -sr), $(nproc) cpus"
    echo
  } > "$HOTSPOTS"
}

# perf needs both the binary and permission to open perf events; probe
# with a trivial counting run before committing to the instrumented
# build, and say exactly why the kernel refused when it does — a bare
# "Permission denied" from perf record wastes everyone's first hour.
PERF_OK=0
if command -v perf >/dev/null 2>&1; then
  if perf stat -e task-clock true >/dev/null 2>&1; then
    PERF_OK=1
  else
    PARANOID="$(cat /proc/sys/kernel/perf_event_paranoid 2>/dev/null ||
      echo unknown)"
    echo "profile.sh: perf is installed but cannot open perf events" >&2
    echo "  kernel.perf_event_paranoid is $PARANOID (need <= 2, or root)" >&2
    echo "  fix: sudo sysctl kernel.perf_event_paranoid=1" >&2
    echo "  falling back to valgrind/gprof" >&2
  fi
fi

if [ "$PERF_OK" = 1 ]; then
  echo "== profiling with perf =="
  build build-profile "-fno-omit-frame-pointer -g"
  BIN="$(bin_path build-profile)"
  perf record -g --call-graph fp -o "$OUT_DIR/perf.data" -- \
    "$BIN" $run_args >/dev/null
  header perf
  perf report --stdio --no-children --percent-limit 0.5 \
    -i "$OUT_DIR/perf.data" >> "$HOTSPOTS"
elif command -v valgrind >/dev/null 2>&1; then
  echo "== profiling with cachegrind =="
  build build-profile "-fno-omit-frame-pointer -g"
  BIN="$(bin_path build-profile)"
  valgrind --tool=cachegrind \
    --cachegrind-out-file="$OUT_DIR/cachegrind.out" \
    "$BIN" $run_args >/dev/null
  header cachegrind
  if command -v cg_annotate >/dev/null 2>&1; then
    cg_annotate "$OUT_DIR/cachegrind.out" >> "$HOTSPOTS"
  else
    echo "(cg_annotate unavailable; raw output in cachegrind.out)" \
      >> "$HOTSPOTS"
  fi
elif command -v gprof >/dev/null 2>&1; then
  echo "== profiling with gprof =="
  build build-profile-pg "-fno-omit-frame-pointer -g -pg"
  BIN="$(bin_path build-profile-pg)"
  # gmon.out lands in the working directory of the profiled process.
  (cd "$OUT_DIR" && "$REPO_ROOT/$BIN" $run_args >/dev/null)
  header gprof
  gprof -b -p "$BIN" "$OUT_DIR/gmon.out" >> "$HOTSPOTS"
else
  echo "profile.sh: no profiler found (tried perf, valgrind, gprof)" >&2
  exit 1
fi

echo "== top of $HOTSPOTS =="
head -n 30 "$HOTSPOTS"
echo "(full table in $HOTSPOTS)"
