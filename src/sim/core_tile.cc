#include "sim/core_tile.h"

#include <algorithm>
#include <stdexcept>

#include "floorplan/ev7.h"
#include "floorplan/floorplan.h"
#include "obs/obs.h"

namespace hydra::sim {

power::DvsLadder make_ladder(const SimConfig& cfg) {
  const power::VoltageFrequencyCurve curve(cfg.v_nominal, cfg.f_nominal,
                                           cfg.v_threshold, cfg.vf_alpha);
  return power::DvsLadder(curve, cfg.dvs_steps, cfg.v_low_fraction);
}

const power::PowerModel& unit_power_model() {
  static const power::PowerModel model(floorplan::ev7_floorplan(),
                                       power::EnergyModel());
  return model;
}

std::uint64_t activity_probe_length(const SimConfig& cfg,
                                    const workload::WorkloadProfile& profile) {
  if (cfg.activity_probe_instructions != 0) {
    return cfg.activity_probe_instructions;
  }
  std::uint64_t rotation = 0;
  for (const workload::PhaseSpec& ph : profile.phases) {
    rotation += ph.length_instructions;
  }
  if (rotation == 0) rotation = 300'000;
  return std::min<std::uint64_t>(rotation, 2'000'000);
}

CoreTile::CoreTile(const SimConfig& cfg, arch::TraceSource& trace,
                   const sensor::SensorConfig& sensor_cfg,
                   std::unique_ptr<core::DtmPolicy> policy)
    : ladder_(make_ladder(cfg)),
      core_(cfg.core, trace),
      sensors_(floorplan::kNumBlocks, sensor_cfg),
      policy_(std::move(policy)),
      guard_(dynamic_cast<core::GuardedPolicy*>(policy_.get())),
      sensor_period_s_(1.0 /
                       (sensor_cfg.sample_rate.value() * cfg.time_scale)),
      switch_time_s_(cfg.dvs_switch_time.value() / cfg.time_scale),
      gate_quantum_s_(cfg.clock_gate_quantum.value() / cfg.time_scale),
      dvs_stall_(cfg.dvs_stall),
      freq_hz_(ladder_.point(0).frequency.value()) {
  if (!cfg.fault_campaign.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        sensors_, cfg.fault_campaign, cfg.time_scale);
  }
  sample_.sensed_celsius.reserve(floorplan::kNumBlocks);
}

arch::ActivityFrame CoreTile::probe(std::uint64_t instructions) {
  const std::uint64_t start = core_.committed();
  while (core_.committed() < start + instructions / 3) core_.cycle();
  core_.take_interval_activity();
  while (core_.committed() < start + instructions / 3 + instructions) {
    core_.cycle();
  }
  return core_.take_interval_activity();
}

void CoreTile::restart_clock() {
  t_ = 0.0;
  next_sensor_t_ = sensor_period_s_;
}

void CoreTile::begin_measure() {
  acc_ = Accum{};
  acc_.start_committed = core_.committed();
  acc_.start_cycles = core_.cycles();
  if (injector_) injector_->set_origin(t_);
}

double CoreTile::next_event() const {
  double next = next_sensor_t_;
  if (transition_active_) next = std::min(next, transition_end_t_);
  if (clock_gate_on_ || clock_gate_requested_) {
    next = std::min(next, quantum_end_t_);
  }
  return next;
}

double CoreTile::advance(long long n, bool measure, Drive drive) {
  const bool stalled = transition_active_ && dvs_stall_;
  if (drive != Drive::kThread || clock_gate_on_ || stalled) {
    // Idle spans touch no pipeline state, so the whole chunk advances in
    // O(1) (Core::idle_cycles(n) matches n idle_cycle() calls bit for
    // bit; fastpath_test asserts it). A gated clock tree or an empty
    // tile burns no base power; a stalled-but-clocked pipeline does.
    const bool clocked = drive == Drive::kStall ||
                         (drive == Drive::kThread && !clock_gate_on_);
    core_.idle_cycles(static_cast<std::uint64_t>(n), clocked);
    if (measure) acc_.idle_cycles += static_cast<std::uint64_t>(n);
  } else {
    for (long long i = 0; i < n; ++i) core_.cycle();
  }

  const double dt = static_cast<double>(n) / freq_hz_;
  t_ += dt;
  if (measure) {
    acc_.wall += dt;
    acc_.gate_weighted += gate_fraction_ * dt;
    acc_.issue_gate_weighted += issue_gate_fraction_ * dt;
    if (dvs_level_ != 0) acc_.dvs_low += dt;
    if (clock_gate_on_) acc_.clock_gated += dt;
    if (guard_ && guard_->failsafe_engaged()) acc_.failsafe += dt;
  }
  return dt;
}

core::DtmCommand CoreTile::sense(const std::vector<double>& temps) {
  if (injector_) {
    injector_->sample_into(temps, t_, sample_.sensed_celsius);
  } else {
    sensors_.sample_into(temps, sample_.sensed_celsius);
  }
  sample_.max_sensed = util::Celsius(*std::max_element(
      sample_.sensed_celsius.begin(), sample_.sensed_celsius.end()));
  sample_.time = util::Seconds(t_);
  return policy_->update(sample_);
}

void CoreTile::actuate(const core::DtmCommand& cmd, bool measure) {
  const double prev_gate = gate_fraction_;
  const double prev_issue = issue_gate_fraction_;
  const bool prev_clock_req = clock_gate_requested_;

  gate_fraction_ = cmd.fetch_gate_fraction;
  core_.set_fetch_gate_fraction(gate_fraction_);
  issue_gate_fraction_ = cmd.issue_gate_fraction;
  core_.set_issue_gate_fraction(issue_gate_fraction_);

  clock_gate_requested_ = cmd.clock_gate;
  if (clock_gate_requested_ && !clock_gate_on_) {
    clock_gate_on_ = true;
    quantum_end_t_ = t_ + gate_quantum_s_;
  } else if (!clock_gate_requested_) {
    clock_gate_on_ = false;
  }

  bool transition_started = false;
  if (!transition_active_ && cmd.dvs_level != dvs_level_) {
    if (cmd.dvs_level >= ladder_.size()) {
      throw std::out_of_range("policy requested DVS level beyond ladder");
    }
    pending_level_ = cmd.dvs_level;
    transition_active_ = true;
    transition_end_t_ = t_ + switch_time_s_;
    transition_started = true;
    if (measure) ++acc_.transitions;
    static const obs::Counter dvs_transitions =
        obs::metrics().counter("dtm.dvs_transitions");
    dvs_transitions.add();
  }

  obs::Tracer& tracer = obs::tracer();
  if (sim_trace_on(tracer, lane_)) {
    const double ts = t_ * kSimUs;
    if (gate_fraction_ != prev_gate) {
      tracer.counter(lane_, obs::TimeDomain::kSim, "fetch_gate_duty", ts,
                     gate_fraction_);
    }
    if (issue_gate_fraction_ != prev_issue) {
      tracer.counter(lane_, obs::TimeDomain::kSim, "issue_gate_duty", ts,
                     issue_gate_fraction_);
    }
    if (clock_gate_requested_ != prev_clock_req) {
      tracer.instant(lane_, obs::TimeDomain::kSim, "dtm",
                     clock_gate_requested_ ? "clock_gate_request"
                                           : "clock_gate_release",
                     ts);
    }
    if (transition_started) {
      tracer.instant(lane_, obs::TimeDomain::kSim, "dtm",
                     "dvs_transition_start", ts, "from_level",
                     static_cast<double>(dvs_level_), "to_level",
                     static_cast<double>(pending_level_));
    }
  }

  // Policy engage/disengage edges: "engaged" means any actuation is in
  // effect (throttling, clock gating, or a non-nominal/changing DVS
  // operating point).
  const bool engaged = gate_fraction_ > 0.0 || issue_gate_fraction_ > 0.0 ||
                       clock_gate_requested_ || transition_active_ ||
                       dvs_level_ != 0;
  if (engaged != policy_engaged_) {
    policy_engaged_ = engaged;
    if (engaged) {
      static const obs::Counter engagements =
          obs::metrics().counter("dtm.policy_engagements");
      engagements.add();
    }
    if (sim_trace_on(tracer, lane_)) {
      tracer.instant(lane_, obs::TimeDomain::kSim, "dtm",
                     engaged ? "policy_engage" : "policy_disengage",
                     t_ * kSimUs, "max_sensed", sample_.max_sensed.value());
    }
  }
}

void CoreTile::apply_dvs_level(std::size_t level) {
  dvs_level_ = level;
  freq_hz_ = ladder_.point(level).frequency.value();
  core_.set_frequency(freq_hz_);

  obs::Tracer& tracer = obs::tracer();
  if (sim_trace_on(tracer, lane_)) {
    const double ts = t_ * kSimUs;
    tracer.instant(lane_, obs::TimeDomain::kSim, "dtm", "dvs_level_applied",
                   ts, "level", static_cast<double>(level), "freq_ghz",
                   freq_hz_ / 1e9);
    tracer.counter(lane_, obs::TimeDomain::kSim, "frequency_ghz", ts,
                   freq_hz_ / 1e9);
  }
}

void CoreTile::interval_power_into(const std::vector<double>& temps,
                                   std::vector<double>& watts) {
  const arch::ActivityFrame frame = core_.take_interval_activity();
  const power::OperatingPoint& op = operating_point();
  unit_power_model().block_power_into(frame, op.voltage, op.frequency, temps,
                                      watts);
}

}  // namespace hydra::sim
