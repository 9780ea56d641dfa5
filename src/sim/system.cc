#include "sim/system.h"

#include <algorithm>

#include "obs/obs.h"

namespace hydra::sim {

DieThermal::DieThermal(const SimConfig& cfg)
    : shared_(ModelCache::global().get(cfg)),
      thresholds_(cfg.thresholds),
      ambient_(cfg.package.ambient),
      nominal_(make_ladder(cfg).point(0)),
      solver_(shared_->model.network, cfg.package.ambient,
              cfg.fused_thermal ? thermal::Scheme::kFusedBE
                                : thermal::Scheme::kBackwardEuler,
              shared_->lu_cache),
      tile_temps_(floorplan::kNumBlocks),
      tile_watts_(floorplan::kNumBlocks),
      die_watts_(shared_->fp.size()),
      expanded_(shared_->model.network.size()),
      block_temp_weighted_(shared_->fp.size(), 0.0) {}

void DieThermal::start(std::span<const arch::ActivityFrame> frames,
                       double power_scale) {
  // Die blocks lead the node vector, so tile t's blocks sit at
  // t * kNumBlocks in the solver's temperatures.
  const thermal::Vector& temps = solver_.temperatures();
  std::fill(tile_temps_.begin(), tile_temps_.end(), ambient_.value() + 30.0);
  for (int iter = 0; iter < 10; ++iter) {
    for (std::size_t t = 0; t < frames.size(); ++t) {
      const std::size_t base = t * floorplan::kNumBlocks;
      if (iter > 0) {
        std::copy_n(temps.begin() + base, floorplan::kNumBlocks,
                    tile_temps_.begin());
      }
      unit_power_model().block_power_into(frames[t], nominal_.voltage,
                                          nominal_.frequency, tile_temps_,
                                          tile_watts_);
      for (std::size_t b = 0; b < floorplan::kNumBlocks; ++b) {
        die_watts_[base + b] = tile_watts_[b] * power_scale;
      }
    }
    shared_->model.expand_power_into(die_watts_, expanded_);
    solver_.initialize_steady_state(expanded_);
  }
}

DieThermal::Interval DieThermal::step(const std::vector<double>& watts,
                                      double dt, double t, bool fault_active,
                                      bool measure, std::uint32_t lane) {
  shared_->model.expand_power_into(watts, expanded_);
  solver_.step(expanded_, util::Seconds(dt));
  const thermal::Vector& temps = solver_.temperatures();
  Interval iv;
  iv.max_true = temps[0];
  for (std::size_t i = 1; i < block_temp_weighted_.size(); ++i) {
    iv.max_true = std::max(iv.max_true, temps[i]);
  }
  for (double w : watts) iv.watts += w;

  static const obs::Histogram tmax_hist = obs::metrics().histogram(
      "system.step_tmax_celsius",
      {50.0, 60.0, 70.0, 75.0, 80.0, 81.8, 85.0, 90.0, 100.0});
  tmax_hist.record(iv.max_true);

  obs::Tracer& tracer = obs::tracer();
  const double ts = t * kSimUs;
  if (sim_trace_on(tracer, lane)) {
    tracer.counter(lane, obs::TimeDomain::kSim, "Tmax_celsius", ts,
                   iv.max_true);
    tracer.counter(lane, obs::TimeDomain::kSim, "power_watts", ts, iv.watts);
  }
  const bool emergency = iv.max_true > thresholds_.emergency.value();
  if (emergency != in_emergency_) {
    in_emergency_ = emergency;
    if (emergency) {
      static const obs::Counter crossings =
          obs::metrics().counter("dtm.emergency_crossings");
      crossings.add();
    }
    if (sim_trace_on(tracer, lane)) {
      tracer.instant(lane, obs::TimeDomain::kSim, "thermal",
                     emergency ? "thermal_emergency_begin"
                               : "thermal_emergency_end",
                     ts, "max_true", iv.max_true);
    }
  }

  if (measure) {
    if (emergency) violation_ += dt;
    if (iv.max_true > thresholds_.trigger.value()) above_trigger_ += dt;
    if (fault_active) {
      fault_window_ += dt;
      if (emergency) fault_violation_ += dt;
    }
    energy_j_ += iv.watts * dt;
    max_true_ = std::max(max_true_, iv.max_true);
    for (std::size_t i = 0; i < block_temp_weighted_.size(); ++i) {
      block_temp_weighted_[i] += temps[i] * dt;
    }
  }
  return iv;
}

void DieThermal::reset() {
  violation_ = above_trigger_ = fault_window_ = fault_violation_ = 0.0;
  energy_j_ = max_true_ = 0.0;
  for (double& v : block_temp_weighted_) v = 0.0;
}

void DieThermal::fill(RunResult& r, double wall) const {
  r.max_true_celsius = max_true_;
  if (wall <= 0.0) return;
  r.violation_fraction = violation_ / wall;
  r.above_trigger_fraction = above_trigger_ / wall;
  r.mean_power_watts = energy_j_ / wall;
  r.fault_window_fraction = fault_window_ / wall;
  r.fault_violation_fraction = fault_violation_ / wall;
  std::size_t hottest = 0;
  for (std::size_t i = 1; i < block_temp_weighted_.size(); ++i) {
    if (block_temp_weighted_[i] > block_temp_weighted_[hottest]) hottest = i;
  }
  r.hottest_block = std::string(shared_->fp.block(hottest).name);
  r.hottest_mean_celsius = block_temp_weighted_[hottest] / wall;
}

System::System(const workload::WorkloadProfile& profile, const SimConfig& cfg,
               std::unique_ptr<core::DtmPolicy> policy)
    : cfg_(cfg),
      die_(cfg),
      trace_(profile),
      tile_(cfg, trace_, cfg.sensor, std::move(policy)),
      probe_instructions_(activity_probe_length(cfg, profile)),
      benchmark_name_(profile.name),
      watts_(floorplan::kNumBlocks) {}

void System::initialize_thermal_state() {
  // Re-probed on every run() (a warm MulticoreSystem reuses its frames):
  // the measured frame depends on where the core's stream stands.
  const arch::ActivityFrame frame = tile_.probe(probe_instructions_);
  // The die's fixed point with one tile; its power_scale of 1.0 is exact.
  die_.start({&frame, 1}, 1.0);
  tile_.restart_clock();
  interval_cycles_ = 0;
  interval_wall_ = 0.0;
}

void System::thermal_and_power_step(bool measure) {
  tile_.interval_power_into(die_.temperatures(), watts_);
  const double dt = interval_wall_;
  const DieThermal::Interval iv = die_.step(
      watts_, dt, tile_.t(), tile_.fault_active(), measure, tile_.lane());
  if (measure) {
    // Gate duty weighted per thermal interval, where tiles weight it per
    // chunk: the sums differ in the last bits and the references pin this.
    gate_weighted_ += tile_.gate_fraction() * dt;
    issue_gate_weighted_ += tile_.issue_gate_fraction() * dt;
  }

  if (measure && trace_cb_) {
    const power::OperatingPoint& op = tile_.operating_point();
    StepTrace st;
    st.time_seconds = tile_.t();
    st.max_true_celsius = iv.max_true;
    st.voltage = op.voltage;
    st.frequency = op.frequency;
    st.gate_fraction = tile_.gate_fraction();
    st.clock_gated = tile_.clock_gated();
    st.committed = tile_.core().committed();
    st.power_watts = iv.watts;
    trace_cb_(st);
  }

  interval_cycles_ = 0;
  interval_wall_ = 0.0;
}

void System::advance_until(std::uint64_t target_committed, bool measure,
                           bool run_out_interval) {
  // The next scheduled event is invariant between event firings, so it
  // is recomputed only after one fires.
  double next_event = tile_.next_event();
  const auto on_sensor = [this, measure] {
    // Without a policy there is nothing to actuate (a die tile still
    // actuates: its arbiter floors apply without one).
    if (tile_.policy()) {
      tile_.actuate(tile_.sense(die_.temperatures()), measure);
    }
  };
  while (tile_.core().committed() < target_committed ||
         (run_out_interval && interval_cycles_ > 0)) {
    // Cooperative supervision point: at most one predicted-false branch
    // per chunk when no token is armed, one atomic load when it is.
    if (cancel_ != nullptr && cancel_->stop_requested()) {
      cancel_->throw_if_stopped(benchmark_name_);
    }
    const long long n =
        chunk_cycles(next_event, tile_.t(), tile_.freq_hz(),
                     cfg_.thermal_interval_cycles - interval_cycles_);
    interval_wall_ += tile_.advance(n, measure);
    interval_cycles_ += n;

    if (interval_cycles_ >= cfg_.thermal_interval_cycles) {
      thermal_and_power_step(measure);
    }
    if (tile_.fire_events(on_sensor)) next_event = tile_.next_event();
  }
}

RunResult System::run(const util::CancelToken* cancel) {
  cancel_ = cancel;
  const std::uint64_t guard_trips_before = die_.solver().fused_guard_trips();
  const std::string policy_name =
      tile_.policy() ? std::string(tile_.policy()->name()) : "baseline";
  obs::Tracer& tracer = obs::tracer();
  if (tracer.enabled()) {
    tile_.set_lane(tracer.new_lane(benchmark_name_ + "/" + policy_name,
                                   obs::TimeDomain::kSim));
  }
  // Publish this run's sim lane thread-locally so deep layers (policies,
  // the fault injector) can emit sim-time events without plumbing.
  const obs::SimLaneScope sim_scope(tile_.lane());

  {
    const obs::ScopedSpan span(tracer, "system", "init_thermal",
                               benchmark_name_);
    initialize_thermal_state();
  }
  {
    const obs::ScopedSpan span(tracer, "system", "warmup", benchmark_name_);
    advance_until(tile_.core().committed() + cfg_.warmup_instructions,
                  false);
    // Warm-up stops at an instruction count, generally mid-interval; run
    // the remainder of that thermal interval (still unmeasured) so the
    // measured window starts on an interval boundary (otherwise the
    // first measured step integrates pre-measurement time and fractions
    // can exceed 1). Running to the boundary rather than flushing a
    // partial-length step keeps the backward-Euler dt set bounded, so
    // repeated run() calls stay allocation-free.
    if (interval_cycles_ > 0) {
      advance_until(tile_.core().committed(), false,
                    /*run_out_interval=*/true);
    }
  }

  die_.reset();
  gate_weighted_ = issue_gate_weighted_ = 0.0;
  tile_.begin_measure();

  {
    const obs::ScopedSpan span(tracer, "system", "measure", benchmark_name_);
    advance_until(tile_.acc().start_committed + cfg_.run_instructions, true);
  }

  const CoreTile::Accum& ta = tile_.acc();
  RunResult r;
  r.benchmark = benchmark_name_;
  r.policy = policy_name;
  r.wall_seconds = ta.wall;
  r.instructions = tile_.core().committed() - ta.start_committed;
  r.cycles = tile_.core().cycles() - ta.start_cycles;
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  die_.fill(r, ta.wall);
  if (ta.wall > 0.0) {
    r.mean_gate_fraction = gate_weighted_ / ta.wall;
    r.mean_issue_gate_fraction = issue_gate_weighted_ / ta.wall;
    r.dvs_low_fraction = ta.dvs_low / ta.wall;
    r.clock_gated_fraction = ta.clock_gated / ta.wall;
    r.failsafe_fraction = ta.failsafe / ta.wall;
  }
  if (r.cycles > 0) {
    r.idle_skip_fraction = static_cast<double>(ta.idle_cycles) /
                           static_cast<double>(r.cycles);
  }
  r.dvs_transitions = ta.transitions;
  r.solver_guard_trips = die_.solver().fused_guard_trips() - guard_trips_before;
  cancel_ = nullptr;
  r.faulted_samples = tile_.faulted_samples();
  if (const core::GuardedPolicy* guard = tile_.guard()) {
    r.sensor_rejections = guard->stats().rejected_readings;
    r.quarantine_entries = guard->stats().quarantine_entries;
  }
  return r;
}

}  // namespace hydra::sim
