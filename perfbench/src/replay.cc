#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/budget_arbiter.h"
#include "core/migration_policy.h"
#include "floorplan/ev7.h"
#include "sim/model_cache.h"
#include "thermal/sparse.h"

namespace perfbench {

namespace hs = hydra::sim;

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                   1e-9;
  }
  return out;
}

std::map<std::string, double> SpanRecorder::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":"
        << (s.start_ns - origin) << ",\"end_ns\":" << (s.end_ns - origin)
        << ",\"parent\":" << s.parent << ",\"point\":" << s.point << "}\n";
  }
}

ReplayCounts& ReplayCounts::operator+=(const ReplayCounts& o) {
  uops += o.uops;
  exec_cycles += o.exec_cycles;
  total_cycles += o.total_cycles;
  committed += o.committed;
  power_calls += o.power_calls;
  thermal_steps += o.thermal_steps;
  sensor_samples += o.sensor_samples;
  policy_updates += o.policy_updates;
  measured_instructions += o.measured_instructions;
  measured_cycles += o.measured_cycles;
  dvs_transitions += o.dvs_transitions;
  migrations += o.migrations;
  return *this;
}

namespace {

namespace fp = hydra::floorplan;
namespace ht = hydra::thermal;

constexpr double kEps = 1e-12;
constexpr std::size_t kChunk = 16384;  ///< uops per generated chunk
constexpr std::size_t kNoThread = static_cast<std::size_t>(-1);

/// Serves uops from a buffer that SyntheticTrace::next fills a chunk at
/// a time, inside its own workload span, so Core::cycle is timed without
/// trace generation. A chunk fits in cache; the buffer is reused.
class ReplaySource final : public hydra::arch::TraceSource {
 public:
  ReplaySource(const hydra::workload::WorkloadProfile& profile,
               SpanRecorder& rec, ReplayCounts& counts)
      : gen_(profile), rec_(rec), counts_(counts) {
    buf_.resize(kChunk);
    pos_ = kChunk;
  }

  hydra::arch::MicroOp next() override {
    if (pos_ == kChunk) {
      const ScopedSpan span(rec_, "workload.generate");
      for (hydra::arch::MicroOp& op : buf_) op = gen_.next();
      counts_.uops += kChunk;
      pos_ = 0;
    }
    return buf_[pos_++];
  }

 private:
  hydra::workload::SyntheticTrace gen_;
  SpanRecorder& rec_;
  ReplayCounts& counts_;
  std::vector<hydra::arch::MicroOp> buf_;
  std::size_t pos_ = 0;
};

/// Probe instructions, as System / MulticoreSystem choose them.
std::uint64_t probe_instructions(const hydra::workload::WorkloadProfile& p,
                                 const hs::SimConfig& cfg) {
  if (cfg.activity_probe_instructions != 0) {
    return cfg.activity_probe_instructions;
  }
  std::uint64_t n = 0;
  for (const auto& ph : p.phases) n += ph.length_instructions;
  if (n == 0) n = 300'000;
  return std::min<std::uint64_t>(n, 2'000'000);
}

/// The activity probe: a discarded warm-up third, then `probe`
/// instructions whose activity frame seeds the steady-state solve.
hydra::arch::ActivityFrame run_probe(hydra::arch::Core& core,
                                     std::uint64_t probe, SpanRecorder& rec,
                                     ReplayCounts& counts) {
  const ScopedSpan arch(rec, "arch.cycle");
  const std::uint64_t before = core.cycles();
  const std::uint64_t start = core.committed();
  while (core.committed() < start + probe / 3) core.cycle();
  core.take_interval_activity();
  while (core.committed() < start + probe / 3 + probe) core.cycle();
  counts.exec_cycles += core.cycles() - before;
  return core.take_interval_activity();
}

/// One core's event machinery (sensor ticks, DVS transitions,
/// clock-gate quanta), shared by the single-core and the die replay.
struct Tile {
  Tile(const hs::SimConfig& cfg, hydra::arch::TraceSource& source,
       const hydra::sensor::SensorConfig& scfg, hs::PolicyKind kind)
      : core(cfg.core, source),
        sensors(fp::kNumBlocks, scfg),
        policy(hs::make_policy(kind, {}, cfg)) {
    watts.resize(fp::kNumBlocks);
    temps.resize(fp::kNumBlocks);
    sample.sensed_celsius.reserve(fp::kNumBlocks);
  }

  hydra::arch::Core core;
  hydra::sensor::SensorBank sensors;
  std::unique_ptr<hydra::core::DtmPolicy> policy;
  std::size_t thread = 0;
  double t = 0.0;
  double next_sensor_t = 0.0;
  double freq_hz = 0.0;
  std::size_t dvs_level = 0;
  std::size_t pending_level = 0;
  bool transition_active = false;
  double transition_end_t = 0.0;
  bool clock_gate_requested = false;
  bool clock_gate_on = false;
  double quantum_end_t = 0.0;
  std::uint64_t stall_cycles = 0;
  double pending_flush_j = 0.0;
  std::vector<double> watts;
  std::vector<double> temps;  ///< frozen tile temperatures (die replay)
  hydra::core::ThermalSample sample;
  hydra::arch::ActivityFrame probe_frame;
  std::uint64_t start_committed = 0;
  std::uint64_t start_cycles = 0;

  double next_event() const {
    double e = next_sensor_t;
    if (transition_active) e = std::min(e, transition_end_t);
    if (clock_gate_on || clock_gate_requested) e = std::min(e, quantum_end_t);
    return e;
  }

  void set_level(std::size_t level, const hydra::power::DvsLadder& ladder) {
    dvs_level = level;
    freq_hz = ladder.point(level).frequency.value();
    core.set_frequency(freq_hz);
  }

  /// Idle or execute `n` cycles inside one arch span.
  void advance(long long n, bool occupied, bool dvs_stall, SpanRecorder& rec,
               ReplayCounts& counts) {
    const ScopedSpan arch(rec, "arch.cycle");
    if (clock_gate_on || (transition_active && dvs_stall) || !occupied) {
      core.idle_cycles(static_cast<std::uint64_t>(n),
                       !clock_gate_on && occupied);
    } else {
      for (long long i = 0; i < n; ++i) core.cycle();
      counts.exec_cycles += static_cast<std::uint64_t>(n);
    }
  }

  /// Transition completion and clock-gate quantum edge, after a chunk.
  void chunk_events(const hydra::power::DvsLadder& ladder, double quantum) {
    if (transition_active && t >= transition_end_t - kEps) {
      transition_active = false;
      set_level(pending_level, ladder);
    }
    if ((clock_gate_on || clock_gate_requested) &&
        t >= quantum_end_t - kEps) {
      clock_gate_on = !clock_gate_on && clock_gate_requested;
      quantum_end_t = t + quantum;
    }
  }

  /// Sample the sensors and run the local policy; returns its command
  /// (all-zero without a policy).
  hydra::core::DtmCommand sense(const std::vector<double>& truth,
                                SpanRecorder& rec, ReplayCounts& counts) {
    if (!policy) return {};
    {
      const ScopedSpan s(rec, "sensor.sample");
      sensors.sample_into(truth, sample.sensed_celsius);
    }
    ++counts.sensor_samples;
    sample.max_sensed = hydra::util::Celsius(*std::max_element(
        sample.sensed_celsius.begin(), sample.sensed_celsius.end()));
    sample.time = hydra::util::Seconds(t);
    const ScopedSpan s(rec, "core.update");
    ++counts.policy_updates;
    return policy->update(sample);
  }

  /// Apply a (composed) command through Core's setters.
  void actuate(double gate, double issue_gate, bool clock_gate,
               std::size_t level, std::size_t ladder_size, double quantum,
               double switch_time, bool measure, ReplayCounts& counts) {
    core.set_fetch_gate_fraction(gate);
    core.set_issue_gate_fraction(issue_gate);
    clock_gate_requested = clock_gate;
    if (clock_gate && !clock_gate_on) {
      clock_gate_on = true;
      quantum_end_t = t + quantum;
    } else if (!clock_gate) {
      clock_gate_on = false;
    }
    if (!transition_active && level != dvs_level) {
      if (level >= ladder_size) {
        throw std::out_of_range("policy requested DVS level beyond ladder");
      }
      pending_level = level;
      transition_active = true;
      transition_end_t = t + switch_time;
      if (measure) ++counts.dvs_transitions;
    }
  }
};

/// Everything both replays share: model, power, ladder, periods.
struct Common {
  explicit Common(const hs::SimConfig& c)
      : cfg(c),
        shared(hs::ModelCache::global().get(c)),
        model(shared->model),
        power(c.multicore.cores == 1 ? shared->fp : fp::ev7_floorplan(),
              hydra::power::EnergyModel()),
        ladder(hs::make_ladder(c)),
        solver(model.network, c.package.ambient,
               c.fused_thermal ? ht::Scheme::kFusedBE
                               : ht::Scheme::kBackwardEuler,
               shared->lu_cache),
        sensor_period(1.0 / (c.sensor.sample_rate.value() * c.time_scale)),
        switch_time(c.dvs_switch_time.value() / c.time_scale),
        quantum(c.clock_gate_quantum.value() / c.time_scale) {
    expanded.resize(model.network.size());
  }

  const hs::SimConfig& cfg;
  std::shared_ptr<const hs::SharedModel> shared;
  const ht::ThermalModel& model;
  hydra::power::PowerModel power;
  hydra::power::DvsLadder ladder;
  ht::TransientSolver solver;
  double sensor_period;
  double switch_time;
  double quantum;
  ht::Vector expanded;

  void thermal_step(double dt, SpanRecorder& rec, ReplayCounts& counts) {
    const ScopedSpan s(rec, "thermal.step");
    solver.step(expanded, hydra::util::Seconds(dt));
    ++counts.thermal_steps;
  }
};

/// System::run, replayed.
void replay_single(const hydra::workload::WorkloadProfile& profile,
                   hs::PolicyKind kind, Common& c, SpanRecorder& rec,
                   ReplayCounts& counts) {
  const hs::SimConfig& cfg = c.cfg;
  const std::uint64_t probe = probe_instructions(profile, cfg);
  ReplaySource source(profile, rec, counts);
  Tile tile(cfg, source, cfg.sensor, kind);
  tile.freq_hz = c.ladder.point(0).frequency.value();

  hydra::arch::ActivityFrame frame;
  {
    const ScopedSpan span(rec, "sim.probe");
    frame = run_probe(tile.core, probe, rec, counts);
  }
  {
    const ScopedSpan span(rec, "sim.init");
    ht::Vector temps(c.model.network.size(), cfg.package.ambient.value() + 30.0);
    const auto& nominal = c.ladder.point(0);
    for (int iter = 0; iter < 10; ++iter) {
      c.power.block_power_into(frame, nominal.voltage, nominal.frequency,
                               temps, tile.watts);
      c.model.expand_power_into(tile.watts, c.expanded);
      ht::steady_state_into(c.shared->lu_cache->steady(), c.expanded,
                            cfg.package.ambient, temps);
    }
    c.solver.set_temperatures(temps);
  }
  tile.next_sensor_t = c.sensor_period;

  long long interval_cycles = 0;
  double interval_wall = 0.0;
  const long long interval = static_cast<long long>(cfg.thermal_interval_cycles);
  const auto advance_until = [&](std::uint64_t target, bool measure,
                                 bool run_out) {
    while (tile.core.committed() < target || (run_out && interval_cycles > 0)) {
      const long long n = hs::chunk_cycles(tile.next_event(), tile.t,
                                           tile.freq_hz,
                                           interval - interval_cycles);
      tile.advance(n, true, cfg.dvs_stall, rec, counts);
      const double dt = static_cast<double>(n) / tile.freq_hz;
      tile.t += dt;
      interval_cycles += n;
      interval_wall += dt;
      if (interval_cycles >= interval) {
        const hydra::arch::ActivityFrame f = tile.core.take_interval_activity();
        const auto& op = c.ladder.point(tile.dvs_level);
        {
          const ScopedSpan s(rec, "power.block_power");
          c.power.block_power_into(f, op.voltage, op.frequency,
                                   c.solver.temperatures(), tile.watts);
        }
        ++counts.power_calls;
        c.model.expand_power_into(tile.watts, c.expanded);
        c.thermal_step(interval_wall, rec, counts);
        interval_cycles = 0;
        interval_wall = 0.0;
      }
      tile.chunk_events(c.ladder, c.quantum);
      if (tile.t >= tile.next_sensor_t - kEps) {
        if (tile.policy) {
          const hydra::core::DtmCommand cmd =
              tile.sense(c.solver.temperatures(), rec, counts);
          tile.actuate(cmd.fetch_gate_fraction, cmd.issue_gate_fraction,
                       cmd.clock_gate, cmd.dvs_level, c.ladder.size(),
                       c.quantum, c.switch_time, measure, counts);
        }
        tile.next_sensor_t += c.sensor_period;
      }
    }
  };
  advance_until(tile.core.committed() + cfg.warmup_instructions, false, false);
  if (interval_cycles > 0) advance_until(tile.core.committed(), false, true);
  const std::uint64_t start_committed = tile.core.committed();
  const std::uint64_t start_cycles = tile.core.cycles();
  advance_until(start_committed + cfg.run_instructions, true, false);

  counts.measured_instructions = tile.core.committed() - start_committed;
  counts.measured_cycles = tile.core.cycles() - start_cycles;
  counts.total_cycles += tile.core.cycles();
  counts.committed += tile.core.committed();
}

/// MulticoreSystem::run (serial tile phase), replayed.
void replay_die(const hydra::workload::WorkloadProfile& profile,
                hs::PolicyKind kind, Common& c, SpanRecorder& rec,
                ReplayCounts& counts) {
  const hs::SimConfig& cfg = c.cfg;
  const std::size_t cores = cfg.multicore.cores;
  const std::size_t threads = cfg.multicore.workload_threads == 0
                                  ? cores
                                  : cfg.multicore.workload_threads;
  const std::uint64_t probe = probe_instructions(profile, cfg);
  const double interval_dt =
      static_cast<double>(cfg.thermal_interval_cycles) / cfg.f_nominal.value();
  const double power_scale = 1.0 / static_cast<double>(cores);

  std::vector<std::unique_ptr<ReplaySource>> sources;
  for (std::size_t i = 0; i < threads; ++i) {
    hydra::workload::WorkloadProfile p = profile;
    p.seed = profile.seed + i;
    sources.push_back(std::make_unique<ReplaySource>(p, rec, counts));
  }
  std::vector<std::unique_ptr<Tile>> tiles;
  for (std::size_t t = 0; t < cores; ++t) {
    hydra::sensor::SensorConfig scfg = cfg.sensor;
    scfg.seed = cfg.sensor.seed + t;
    tiles.push_back(std::make_unique<Tile>(
        cfg, *sources[t < threads ? t : 0], scfg, kind));
    tiles.back()->thread = t < threads ? t : kNoThread;
    tiles.back()->freq_hz = c.ladder.point(0).frequency.value();
    tiles.back()->next_sensor_t = c.sensor_period;
  }

  hydra::core::MigrationConfig mcfg = cfg.multicore.migration_policy;
  mcfg.interval = hydra::util::Seconds(mcfg.interval.value() / cfg.time_scale);
  mcfg.trigger = cfg.thresholds.trigger;
  hydra::core::MigrationPolicy migration(mcfg);
  hydra::core::BudgetArbiter arbiter(cfg.multicore.arbiter, cores,
                                     c.ladder.size());
  std::vector<hydra::core::TileThermalState> tile_states(cores);
  std::vector<hydra::util::Watts> tile_power(cores);
  std::vector<bool> tile_occupied(cores, false);
  std::vector<double> die_watts(cores * fp::kNumBlocks, 0.0);
  std::size_t global_dvs_floor = 0;
  std::vector<std::size_t> requested_dvs(cores, 0);

  {
    const ScopedSpan span(rec, "sim.probe");
    for (auto& tile : tiles) {
      if (tile->thread != kNoThread) {
        tile->probe_frame = run_probe(tile->core, probe, rec, counts);
      }
    }
  }
  {
    const ScopedSpan span(rec, "sim.init");
    ht::Vector temps(c.model.network.size(), cfg.package.ambient.value() + 30.0);
    ht::Vector work;
    const bool sparse = ht::use_sparse_step(c.model.network.size());
    const auto& nominal = c.ladder.point(0);
    for (int iter = 0; iter < 10; ++iter) {
      for (std::size_t t = 0; t < cores; ++t) {
        Tile& tile = *tiles[t];
        std::copy_n(temps.begin() +
                        static_cast<std::ptrdiff_t>(t * fp::kNumBlocks),
                    fp::kNumBlocks, tile.temps.begin());
        c.power.block_power_into(tile.probe_frame, nominal.voltage,
                                 nominal.frequency, tile.temps, tile.watts);
        for (std::size_t b = 0; b < fp::kNumBlocks; ++b) {
          die_watts[t * fp::kNumBlocks + b] = tile.watts[b] * power_scale;
        }
      }
      c.model.expand_power_into(die_watts, c.expanded);
      if (sparse) {
        ht::steady_state_into(c.shared->lu_cache->steady_sparse(), c.expanded,
                              cfg.package.ambient, temps, work);
      } else {
        ht::steady_state_into(c.shared->lu_cache->steady(), c.expanded,
                              cfg.package.ambient, temps);
      }
    }
    c.solver.set_temperatures(temps);
  }

  const auto total_committed = [&tiles] {
    std::uint64_t n = 0;
    for (const auto& tile : tiles) n += tile->core.committed();
    return n;
  };

  const auto step_tile = [&](std::size_t ti, double t_end, bool measure) {
    Tile& tile = *tiles[ti];
    const ht::Vector& die_temps = c.solver.temperatures();
    std::copy_n(die_temps.begin() +
                    static_cast<std::ptrdiff_t>(ti * fp::kNumBlocks),
                fp::kNumBlocks, tile.temps.begin());
    const bool occupied = tile.thread != kNoThread;
    while (tile.t < t_end - kEps) {
      const double bound = std::min(tile.next_event(), t_end);
      long long n = static_cast<long long>(
          std::ceil((bound - tile.t) * tile.freq_hz));
      n = std::clamp<long long>(n, 1, 4096);
      if (tile.stall_cycles > 0) {
        // Migration context switch: clocked idle cycles.
        n = std::min<long long>(n, static_cast<long long>(tile.stall_cycles));
        const ScopedSpan arch(rec, "arch.cycle");
        tile.core.idle_cycles(static_cast<std::uint64_t>(n), true);
        tile.stall_cycles -= static_cast<std::uint64_t>(n);
      } else {
        tile.advance(n, occupied, cfg.dvs_stall, rec, counts);
      }
      tile.t += static_cast<double>(n) / tile.freq_hz;
      tile.chunk_events(c.ladder, c.quantum);
      if (tile.t >= tile.next_sensor_t - kEps) {
        const hydra::core::DtmCommand cmd = tile.sense(tile.temps, rec, counts);
        double gate = cmd.fetch_gate_fraction;
        std::size_t level = cmd.dvs_level;
        if (arbiter.enabled()) {
          const hydra::core::ArbiterCommand& arb = arbiter.commands()[ti];
          gate = std::max(gate, arb.fetch_gate_floor);
          level = std::max(level, arb.dvs_floor);
        }
        requested_dvs[ti] = level;
        if (!cfg.multicore.per_core_dvs) {
          level = std::max(level, global_dvs_floor);
        }
        tile.actuate(gate, cmd.issue_gate_fraction, cmd.clock_gate, level,
                     c.ladder.size(), c.quantum, c.switch_time, measure,
                     counts);
        tile.next_sensor_t += c.sensor_period;
      }
    }
    const hydra::arch::ActivityFrame frame = tile.core.take_interval_activity();
    const auto& op = c.ladder.point(tile.dvs_level);
    {
      const ScopedSpan s(rec, "power.block_power");
      c.power.block_power_into(frame, op.voltage, op.frequency, tile.temps,
                               tile.watts);
    }
    ++counts.power_calls;
    for (double& w : tile.watts) w *= power_scale;
    if (tile.pending_flush_j > 0.0) {
      const double w_flush =
          tile.pending_flush_j /
          (interval_dt * static_cast<double>(fp::kNumBlocks));
      for (double& w : tile.watts) w += w_flush;
      tile.pending_flush_j = 0.0;
    }
  };

  double t_die = 0.0;
  const auto advance_intervals = [&](std::uint64_t target, bool measure) {
    while (total_committed() < target) {
      const double t_end = t_die + interval_dt;
      for (std::size_t t = 0; t < cores; ++t) step_tile(t, t_end, measure);
      for (std::size_t t = 0; t < cores; ++t) {
        std::copy(tiles[t]->watts.begin(), tiles[t]->watts.end(),
                  die_watts.begin() +
                      static_cast<std::ptrdiff_t>(t * fp::kNumBlocks));
      }
      c.model.expand_power_into(die_watts, c.expanded);
      c.thermal_step(interval_dt, rec, counts);
      t_die = t_end;

      const ScopedSpan s(rec, "core.die_update");
      const ht::Vector& temps = c.solver.temperatures();
      for (std::size_t t = 0; t < cores; ++t) {
        const auto first = temps.begin() +
                           static_cast<std::ptrdiff_t>(t * fp::kNumBlocks);
        tile_states[t].tmax = hydra::util::Celsius(
            *std::max_element(first, first + fp::kNumBlocks));
        tile_states[t].occupied = tiles[t]->thread != kNoThread;
        tile_occupied[t] = tile_states[t].occupied;
      }
      if (cfg.multicore.migration) {
        const hydra::core::MigrationDecision d =
            migration.update(tile_states, hydra::util::Seconds(t_die));
        if (d.migrate) {
          Tile& src = *tiles[d.from];
          Tile& dst = *tiles[d.to];
          src.core.flush_pipeline();
          dst.core.set_trace(*sources[src.thread]);
          dst.thread = src.thread;
          src.thread = kNoThread;
          src.stall_cycles += migration.config().cost_cycles;
          dst.stall_cycles += migration.config().cost_cycles;
          src.pending_flush_j += migration.config().flush_energy.value();
          if (measure) ++counts.migrations;
        }
      }
      if (arbiter.enabled()) {
        for (std::size_t t = 0; t < cores; ++t) {
          double p = 0.0;
          for (double w : tiles[t]->watts) p += w;
          tile_power[t] = hydra::util::Watts(p);
        }
        arbiter.update(tile_power, tile_occupied);
      }
      if (!cfg.multicore.per_core_dvs) {
        global_dvs_floor =
            *std::max_element(requested_dvs.begin(), requested_dvs.end());
      }
    }
  };
  advance_intervals(total_committed() + cfg.warmup_instructions, false);
  migration.reset();
  arbiter.reset();
  const std::uint64_t start_committed = total_committed();
  std::uint64_t start_cycles = 0;
  for (const auto& tile : tiles) start_cycles += tile->core.cycles();
  advance_intervals(start_committed + cfg.run_instructions, true);

  std::uint64_t cycles = 0;
  for (const auto& tile : tiles) cycles += tile->core.cycles();
  counts.measured_instructions = total_committed() - start_committed;
  counts.measured_cycles = cycles - start_cycles;
  counts.total_cycles += cycles;
  counts.committed += total_committed();
}

}  // namespace

ReplayCounts replay_point(const hydra::workload::WorkloadProfile& profile,
                          hs::PolicyKind kind, const hs::SimConfig& cfg_in,
                          SpanRecorder& rec) {
  const hs::SimConfig cfg =
      kind == hs::PolicyKind::kNone ? hs::baseline_config(cfg_in) : cfg_in;
  ReplayCounts counts;
  const ScopedSpan root(rec, "sim.replay");
  Common common(cfg);
  if (cfg.multicore.cores > 1) {
    replay_die(profile, kind, common, rec, counts);
  } else {
    replay_single(profile, kind, common, rec, counts);
  }
  return counts;
}

}  // namespace perfbench
