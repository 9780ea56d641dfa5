// One core tile: an out-of-order core plus the DTM machinery the paper
// runs per core — an 18-sensor bank (behind a fault injector during a
// sensor fault campaign), a policy, and the actuators it drives. The
// tile keeps its own clock, advances in chunks and fires its own events.
// System steps one tile and MulticoreSystem K of them; the engines own
// the thermal model, the chunk geometry and what a sensor tick does with
// the policy's command.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/core.h"
#include "core/dtm_policy.h"
#include "core/guarded_policy.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "power/voltage_freq.h"
#include "sensor/sensor.h"
#include "sim/sim_config.h"
#include "workload/synthetic_trace.h"

namespace hydra::sim {

/// Simulated seconds -> trace microseconds (the sim time domain renders
/// simulated time on Perfetto's microsecond axis).
inline constexpr double kSimUs = 1e6;

/// True when sim-time events should be recorded on `lane`.
inline bool sim_trace_on(const obs::Tracer& tracer, std::uint32_t lane) {
  return tracer.enabled() && lane != obs::SimLaneScope::kNoLane;
}

/// Build the DVS ladder implied by a SimConfig.
power::DvsLadder make_ladder(const SimConfig& cfg);

/// The EV7 unit core's power model: stateless, so one serves every run.
const power::PowerModel& unit_power_model();

/// Instructions the activity probe measures: the configured count, or
/// one full phase rotation of `profile` (300k without phases) capped at
/// 2M when the configured count is 0.
std::uint64_t activity_probe_length(const SimConfig& cfg,
                                    const workload::WorkloadProfile& profile);

class CoreTile {
 public:
  /// Measured-window totals in tile-clock seconds, weighted per chunk.
  struct Accum {
    double wall = 0.0;
    double gate_weighted = 0.0;
    double issue_gate_weighted = 0.0;
    double dvs_low = 0.0;      ///< at a non-nominal DVS level
    double clock_gated = 0.0;  ///< inside a gated quantum
    double failsafe = 0.0;     ///< guard in fail-safe clock gating
    std::uint64_t idle_cycles = 0;  ///< cycles advanced as idle spans
    std::size_t transitions = 0;
    std::uint64_t start_committed = 0;
    std::uint64_t start_cycles = 0;
  };

  /// What a chunk runs on the core.
  enum class Drive {
    kThread,  ///< the bound thread, unless clock-gated or DVS-stalled
    kStall,   ///< a migration context switch: clocked idle
    kEmpty,   ///< no thread bound: clock-gated silicon
  };

  /// `trace` must outlive the tile; `sensor_cfg` is cfg.sensor with the
  /// tile's noise seed; `policy` may be null (no DTM). A
  /// cfg.fault_campaign naming a missing sensor throws invalid_argument.
  CoreTile(const SimConfig& cfg, arch::TraceSource& trace,
           const sensor::SensorConfig& sensor_cfg,
           std::unique_ptr<core::DtmPolicy> policy);
  CoreTile(const CoreTile&) = delete;
  CoreTile& operator=(const CoreTile&) = delete;

  /// The activity of `instructions` after a discarded third (cold
  /// compulsory misses would bias the estimate low).
  arch::ActivityFrame probe(std::uint64_t instructions);

  /// Clock to 0, first sensor tick one period out; actuators carry over.
  void restart_clock();
  /// Zeroes acc() and arms the fault campaign (its times are relative to
  /// the measured window).
  void begin_measure();
  /// Earliest pending event; changes only when fire_events fires.
  double next_event() const;
  /// Advances `n` cycles and returns their seconds.
  double advance(long long n, bool measure, Drive drive = Drive::kThread);

  /// Fires the events due at the tile clock, in order: a finished DVS
  /// transition, a clock-gate quantum boundary, then a sensor tick, which
  /// calls `on_sensor()` (the engine's sense -> actuate) and schedules
  /// the next tick. Returns true when any fired.
  template <class OnSensor>
  bool fire_events(OnSensor&& on_sensor);

  /// The policy's command for a sensor sample of `temps`' per-block
  /// prefix. Requires a policy.
  core::DtmCommand sense(const std::vector<double>& temps);
  /// Gating duties apply at once, clock gating in quanta, a new DVS level
  /// through a transition (std::out_of_range beyond the ladder).
  void actuate(const core::DtmCommand& cmd, bool measure);
  /// Block power of the activity since the last call at the applied
  /// operating point, against `temps`' per-block prefix.
  void interval_power_into(const std::vector<double>& temps,
                           std::vector<double>& watts);

  bool fault_active() const {
    return injector_ && injector_->any_active(t_);
  }
  std::uint64_t faulted_samples() const {
    return injector_ ? injector_->counters().faulted_samples : 0;
  }

  arch::Core& core() { return core_; }
  const arch::Core& core() const { return core_; }
  const core::DtmPolicy* policy() const { return policy_.get(); }
  const core::GuardedPolicy* guard() const { return guard_; }
  const Accum& acc() const { return acc_; }
  double t() const { return t_; }
  double freq_hz() const { return freq_hz_; }
  const power::OperatingPoint& operating_point() const {
    return ladder_.point(dvs_level_);
  }
  double gate_fraction() const { return gate_fraction_; }
  double issue_gate_fraction() const { return issue_gate_fraction_; }
  bool clock_gated() const { return clock_gate_on_; }
  std::uint32_t lane() const { return lane_; }
  void set_lane(std::uint32_t lane) { lane_ = lane; }

 private:
  static constexpr double kEps = 1e-12;

  void apply_dvs_level(std::size_t level);

  power::DvsLadder ladder_;
  arch::Core core_;
  sensor::SensorBank sensors_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<core::DtmPolicy> policy_;
  /// Non-owning view of policy_ when it is a GuardedPolicy.
  core::GuardedPolicy* guard_ = nullptr;

  // Scaled event periods [s] and mode switches.
  double sensor_period_s_ = 0.0;
  double switch_time_s_ = 0.0;
  double gate_quantum_s_ = 0.0;
  bool dvs_stall_ = false;

  // Actuator state.
  double t_ = 0.0;  ///< tile clock [s]
  double next_sensor_t_ = 0.0;
  double freq_hz_ = 0.0;  ///< clock at the applied DVS level [Hz]
  std::size_t dvs_level_ = 0;  ///< applied DVS level
  std::size_t pending_level_ = 0;
  bool transition_active_ = false;
  double transition_end_t_ = 0.0;
  bool clock_gate_requested_ = false;
  bool clock_gate_on_ = false;  ///< inside a gated quantum
  double quantum_end_t_ = 0.0;
  double gate_fraction_ = 0.0;
  double issue_gate_fraction_ = 0.0;

  Accum acc_;
  core::ThermalSample sample_;  ///< reused sensor-event sample

  // Observability (dormant unless tracing is enabled).
  std::uint32_t lane_ = obs::SimLaneScope::kNoLane;
  bool policy_engaged_ = false;  ///< last reported actuation state
};

template <class OnSensor>
bool CoreTile::fire_events(OnSensor&& on_sensor) {
  bool fired = false;
  if (transition_active_ && t_ >= transition_end_t_ - kEps) {
    transition_active_ = false;
    apply_dvs_level(pending_level_);
    fired = true;
  }
  if ((clock_gate_on_ || clock_gate_requested_) &&
      t_ >= quantum_end_t_ - kEps) {
    // Alternate gated / running quanta while the policy requests gating
    // (Pentium-4-style stop-go at the quantum granularity).
    clock_gate_on_ = !clock_gate_on_ && clock_gate_requested_;
    quantum_end_t_ = t_ + gate_quantum_s_;
    fired = true;
  }
  if (t_ >= next_sensor_t_ - kEps) {
    on_sensor();
    next_sensor_t_ += sensor_period_s_;
    fired = true;
  }
  return fired;
}

}  // namespace hydra::sim
