// Co-simulation system: core <-> power <-> thermal <-> sensors <-> DTM.
//
// The loop follows the paper's methodology: the core runs in 10k-cycle
// accounting intervals whose average per-block power drives the RC
// thermal model; sensors are sampled at 10 kHz and feed the DTM policy;
// the policy's commands actuate fetch gating immediately, global clock
// gating in fixed quanta, and DVS through a transition state machine
// with 10 us switching time (stalling the pipeline in the "stall"
// variant). Temperatures are initialised to the workload's steady state
// and a warm-up period runs before statistics are gathered.
//
// System is the single-tile engine. The per-core sensing, actuation and
// event machinery is one CoreTile (sim/core_tile.h) and the thermal side
// a DieThermal, both shared with the many-core MulticoreSystem; System
// owns the chunk loop and steps the solver inside it.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/dtm_policy.h"
#include "floorplan/floorplan.h"
#include "sim/core_tile.h"
#include "sim/model_cache.h"
#include "sim/sim_config.h"
#include "thermal/model_builder.h"
#include "thermal/solver.h"
#include "util/cancel.h"
#include "workload/synthetic_trace.h"

namespace hydra::sim {

/// Outcome of one measured run.
struct RunResult {
  std::string benchmark;
  std::string policy;

  double wall_seconds = 0.0;  ///< measured execution time (simulated)
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;

  double max_true_celsius = 0.0;        ///< hottest block, whole run
  double violation_fraction = 0.0;      ///< time with T_true > emergency
  double above_trigger_fraction = 0.0;  ///< time with T_true > trigger
  std::size_t dvs_transitions = 0;
  double mean_gate_fraction = 0.0;      ///< time-weighted fetch gating
  double mean_issue_gate_fraction = 0.0; ///< time-weighted issue gating
  double dvs_low_fraction = 0.0;        ///< time at a non-nominal DVS level
  double clock_gated_fraction = 0.0;    ///< time with the clock stopped
  double mean_power_watts = 0.0;
  std::string hottest_block;            ///< block with highest mean temp
  double hottest_mean_celsius = 0.0;
  /// Fraction of measured cycles spent in idle spans (clock-gated quanta
  /// or stalled DVS transitions) — the spans the core tile advances in
  /// O(1) through Core::idle_cycles(n).
  double idle_skip_fraction = 0.0;
  /// Times the fused-BE numerical guard rejected a step (NaN/Inf or
  /// divergence) during this run and fell back to the reference LU
  /// scheme. Zero on every healthy run.
  std::uint64_t solver_guard_trips = 0;

  // --- Sensor-fault / supervision metrics (zero without a campaign) ---
  std::uint64_t faulted_samples = 0;     ///< sensor-samples corrupted
  std::uint64_t sensor_rejections = 0;   ///< readings substituted by guard
  std::uint64_t quarantine_entries = 0;  ///< healthy->quarantined edges
  double failsafe_fraction = 0.0;        ///< time in fail-safe clock gating
  double fault_window_fraction = 0.0;    ///< time with >=1 active fault
  /// Time with T_true above emergency while a fault was active, as a
  /// fraction of the whole measured window.
  double fault_violation_fraction = 0.0;

  // --- Many-core metrics (defaults = the single-core System's values) ---
  std::size_t cores = 1;                  ///< tiles on the simulated die
  std::uint64_t thread_migrations = 0;    ///< applied thread migrations
  /// Time-weighted mean of (hottest tile Tmax - coolest tile Tmax):
  /// thermal imbalance across the die. Zero on a single-core run.
  double core_temp_spread_celsius = 0.0;
  /// Time with any tile under a non-trivial power-budget arbiter floor.
  double budget_throttled_fraction = 0.0;

  bool thermally_safe() const { return violation_fraction == 0.0; }
};

/// The thermal half both engines share: the cached die model, its
/// transient solver, the steady-state start point, and the die-level
/// integrals behind RunResult's thermal fields with their Tmax / power
/// trace tracks and emergency edges.
class DieThermal {
 public:
  /// The die of cfg.multicore.cores tiles (ModelCache-shared model).
  explicit DieThermal(const SimConfig& cfg);

  /// Sets the solver to the power <-> temperature fixed point. Leakage
  /// depends on temperature, so ten rounds of (block power at the
  /// nominal operating point -> steady-state temperatures) run from
  /// ambient + 30 C, tile i dissipating `frames[i]`'s activity scaled by
  /// `power_scale`. Each round is one solver steady-state solve, so the
  /// solver's dense/sparse choice applies here too.
  void start(std::span<const arch::ActivityFrame> frames, double power_scale);

  struct Interval {
    double max_true = 0.0;  ///< hottest die block [deg C]
    double watts = 0.0;     ///< total die power
  };
  /// Steps the solver `dt` s under per-block `watts`, ending at sim time
  /// `t`. Trace tracks go to `lane`; the integrals advance only when
  /// `measure`.
  Interval step(const std::vector<double>& watts, double dt, double t,
                bool fault_active, bool measure, std::uint32_t lane);

  /// Zeroes the integrals in place (repeated runs must not allocate).
  void reset();
  /// The thermal fields of `r` over a measured window of `wall` s.
  void fill(RunResult& r, double wall) const;

  const thermal::Vector& temperatures() const {
    return solver_.temperatures();
  }
  thermal::TransientSolver& solver() { return solver_; }

 private:
  std::shared_ptr<const SharedModel> shared_;
  core::DtmThresholds thresholds_;
  util::Celsius ambient_;
  power::OperatingPoint nominal_;
  thermal::TransientSolver solver_;

  // Preallocated scratch (no step or start allocates).
  std::vector<double> tile_temps_;
  std::vector<double> tile_watts_;
  std::vector<double> die_watts_;
  thermal::Vector expanded_;

  // Measured-window integrals.
  double violation_ = 0.0;
  double above_trigger_ = 0.0;
  double fault_window_ = 0.0;     ///< time with >=1 active fault
  double fault_violation_ = 0.0;  ///< ... and T_true above emergency
  double energy_j_ = 0.0;
  double max_true_ = 0.0;
  std::vector<double> block_temp_weighted_;  ///< per die block
  bool in_emergency_ = false;  ///< last reported T > emergency state
};

/// Size of the next advance_until chunk: up to the next scheduled event,
/// never past the thermal-interval boundary, capped at 4096 cycles so
/// event-time comparisons stay responsive. Exposed as a free function so
/// the fastpath property test can fuzz the boundary guarantees directly.
/// The order of operations (clamp, then the two mins) is load-bearing:
/// the measured wall time accumulates as n / freq per chunk, so chunk
/// geometry must not change across code paths or results drift.
inline long long chunk_cycles(double next_event_t, double t, double freq_hz,
                              long long interval_cycles_remaining) {
  long long n =
      static_cast<long long>(std::ceil((next_event_t - t) * freq_hz));
  if (n < 1) n = 1;
  n = std::min(n, interval_cycles_remaining);
  return std::min<long long>(n, 4096);
}

/// Periodic observation hook for examples/diagnostics (one call per
/// thermal interval).
struct StepTrace {
  double time_seconds = 0.0;
  double max_true_celsius = 0.0;
  util::Volts voltage{};
  util::Hertz frequency{};
  double gate_fraction = 0.0;
  bool clock_gated = false;
  std::uint64_t committed = 0;
  double power_watts = 0.0;
};

class System {
 public:
  /// `policy` may be null (baseline: no DTM). The system owns the policy.
  System(const workload::WorkloadProfile& profile, const SimConfig& cfg,
         std::unique_ptr<core::DtmPolicy> policy);

  /// Steady-state init + warm-up + measured run. `cancel`, when given,
  /// is polled at chunk granularity: a requested stop (explicit cancel
  /// or expired deadline) unwinds with the matching typed exception
  /// (util::CancelledError / util::TimeoutError), leaving the System in
  /// an unspecified but destructible state. Deterministic runs pass
  /// nullptr and pay a single predicted-false branch per chunk.
  RunResult run(const util::CancelToken* cancel = nullptr);

  /// Test seam: poison the next fused-BE step (see
  /// TransientSolver::inject_fused_fault_for_test). Lets tests assert
  /// the guard event is visible end-to-end in RunResult and --metrics.
  void inject_solver_fault_for_test() {
    die_.solver().inject_fused_fault_for_test();
  }

  /// Install an observer called once per thermal interval during the
  /// measured run.
  void set_trace_callback(std::function<void(const StepTrace&)> cb) {
    trace_cb_ = std::move(cb);
  }

 private:
  void initialize_thermal_state();
  /// Advance until `target_committed` instructions have committed. With
  /// `run_out_interval`, additionally continue to the next thermal
  /// interval boundary (used after warm-up: stepping the solver with a
  /// partial-interval dt would factorise a fresh LU nearly every run).
  void advance_until(std::uint64_t target_committed, bool measure,
                     bool run_out_interval = false);
  void thermal_and_power_step(bool measure);

  SimConfig cfg_;
  DieThermal die_;
  workload::SyntheticTrace trace_;
  CoreTile tile_;
  std::uint64_t probe_instructions_ = 0;

  // Thermal-interval progress.
  long long interval_cycles_ = 0;
  double interval_wall_ = 0.0;
  /// Gate duties weighted per thermal interval (the tile's per-chunk
  /// integrals cover the rest of the measured window).
  double gate_weighted_ = 0.0;
  double issue_gate_weighted_ = 0.0;

  std::function<void(const StepTrace&)> trace_cb_;
  std::string benchmark_name_;
  /// Cooperative stop signal for the current run() (null when absent).
  const util::CancelToken* cancel_ = nullptr;
  std::vector<double> watts_;  ///< per-block power (preallocated)
};

}  // namespace hydra::sim
