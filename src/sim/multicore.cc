#include "sim/multicore.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

#include "obs/obs.h"

namespace hydra::sim {
namespace {

constexpr double kEps = 1e-12;
constexpr std::size_t kNoThread = static_cast<std::size_t>(-1);

}  // namespace

/// One tile's CoreTile plus the die's per-tile state around it. During
/// the parallel phase a slot is touched by exactly one worker, and the
/// barrier phase runs single-threaded, so no field needs atomics.
struct MulticoreSystem::TileSlot {
  CoreTile tile;
  std::size_t index = 0;
  std::size_t thread = kNoThread;  ///< bound software thread (kNoThread=idle)
  std::size_t requested_dvs = 0;   ///< last composed level (global-DVS mode)
  std::uint64_t stall_cycles = 0;  ///< pending migration context-switch stall
  double pending_flush_j = 0.0;    ///< migration flush energy, next interval

  // Scratch reused every interval (the tile phase never allocates):
  // interval-average block power [W] and frozen temperatures [deg C].
  std::vector<double> watts = std::vector<double>(floorplan::kNumBlocks);
  std::vector<double> temps_slice = std::vector<double>(floorplan::kNumBlocks);

  // Measurement beyond the tile's own accumulators. occupied_wall
  // accumulates in the tile phase; the rest is barrier-phase only.
  double occupied_wall = 0.0;
  double max_true = 0.0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migrations_out = 0;

  void begin_measure() {
    tile.begin_measure();
    occupied_wall = max_true = 0.0;
    migrations_in = migrations_out = 0;
  }
};

MulticoreSystem::MulticoreSystem(const workload::WorkloadProfile& profile,
                                 const SimConfig& cfg, PolicyFactory factory,
                                 std::string policy_name)
    : cfg_(cfg),
      die_(cfg),
      migration_([&cfg] {
        // Migration timings are paper-time, compressed like every other
        // period; the engagement threshold is the DTM trigger.
        core::MigrationConfig m = cfg.multicore.migration_policy;
        m.interval = util::Seconds(m.interval.value() / cfg.time_scale);
        m.trigger = cfg.thresholds.trigger;
        return m;
      }()),
      arbiter_(cfg.multicore.arbiter, cfg.multicore.cores, cfg.dvs_steps),
      benchmark_name_(profile.name),
      policy_name_(std::move(policy_name)),
      probe_instructions_(activity_probe_length(cfg, profile)) {
  const std::size_t cores = cfg_.multicore.cores;
  if (cores == 0) {
    throw std::invalid_argument("multicore.cores must be >= 1");
  }
  std::size_t n_threads = cfg_.multicore.workload_threads;
  if (n_threads == 0) n_threads = cores;
  if (n_threads > cores) {
    throw std::invalid_argument("more workload threads than cores");
  }

  // One seeded trace per software thread: same statistical profile,
  // decorrelated streams (different phase alignment per tile is what
  // makes migration/arbitration interesting).
  threads_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workload::WorkloadProfile p = profile;
    p.seed = profile.seed + i;
    threads_.push_back(std::make_unique<workload::SyntheticTrace>(p));
  }

  tiles_.reserve(cores);
  for (std::size_t t = 0; t < cores; ++t) {
    sensor::SensorConfig scfg = cfg_.sensor;
    scfg.seed = cfg_.sensor.seed + t;  // independent per-tile noise
    // Idle tiles get a trace bound too (Core requires one) but never
    // fetch from it: unoccupied tiles only ever advance via idle cycles.
    workload::SyntheticTrace& trace =
        t < n_threads ? *threads_[t] : *threads_[0];
    tiles_.push_back(std::unique_ptr<TileSlot>(new TileSlot{
        CoreTile(cfg_, trace, scfg, factory ? factory() : nullptr), t,
        t < n_threads ? t : kNoThread}));
  }
  if (policy_name_.empty()) {
    const core::DtmPolicy* policy = tiles_[0]->tile.policy();
    policy_name_ = policy ? std::string(policy->name()) : "baseline";
  }

  // Worker pool for the per-tile phase. 1 = strictly serial; 0 = the
  // process pool (safe from inside an engine worker: for_each_index's
  // caller participates, so progress never depends on free workers).
  const std::size_t width = cfg_.multicore.threads;
  if (width == 0) {
    pool_ = &util::ThreadPool::global();
  } else if (width > 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(width);
    pool_ = owned_pool_.get();
  }

  interval_dt_ = static_cast<double>(cfg_.thermal_interval_cycles) /
                 cfg_.f_nominal.value();
  power_scale_ = 1.0 / static_cast<double>(cores);

  die_watts_.resize(cores * floorplan::kNumBlocks);
  probe_frames_.resize(cores);
  tile_states_.resize(cores);
  tile_power_.assign(cores, util::Watts{0.0});
  tile_occupied_.assign(cores, false);
}

MulticoreSystem::~MulticoreSystem() = default;

std::uint64_t MulticoreSystem::total_committed() const {
  std::uint64_t total = 0;
  for (const auto& slot : tiles_) total += slot->tile.core().committed();
  return total;
}

void MulticoreSystem::initialize_thermal_state() {
  // Probe every occupied tile's representative activity (in parallel —
  // probing is tile-local), then solve the die-level power <->
  // temperature fixed point. The probe is by far the most expensive part
  // of (re)starting a run — ~probe instructions of detailed core
  // simulation per occupied tile — and its frames are a statistical
  // fingerprint of the bound profiles, not of any evolving state, so a
  // warm system reuses the first run's frames (System re-probes).
  if (!probe_cached_) {
    const auto probe_tile = [this](std::size_t i) {
      TileSlot& slot = *tiles_[i];
      probe_frames_[i] = slot.thread == kNoThread
                             ? arch::ActivityFrame{}
                             : slot.tile.probe(probe_instructions_);
    };
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < tiles_.size(); ++i) probe_tile(i);
    } else {
      pool_->for_each_index(tiles_.size(), probe_tile);
    }
    probe_cached_ = true;
  }
  die_.start(probe_frames_, power_scale_);

  t_ = 0.0;
  global_dvs_floor_ = 0;
  for (auto& slot : tiles_) slot->tile.restart_clock();
}

void MulticoreSystem::tile_sensor_event(TileSlot& slot, bool measure) {
  // Unlike System, a tile actuates without a policy too: the zero
  // command still composes with the arbiter floors below.
  core::DtmCommand cmd{};
  if (slot.tile.policy()) cmd = slot.tile.sense(slot.temps_slice);

  // Compose the local command with the die-level floors from the last
  // barrier: the more aggressive actuation wins. In global-DVS mode the
  // die additionally never runs below the maximum level any tile
  // requested as of that barrier.
  if (arbiter_.enabled()) {
    const core::ArbiterCommand& arb = arbiter_.commands()[slot.index];
    cmd.fetch_gate_fraction =
        std::max(cmd.fetch_gate_fraction, arb.fetch_gate_floor);
    cmd.dvs_level = std::max(cmd.dvs_level, arb.dvs_floor);
  }
  slot.requested_dvs = cmd.dvs_level;
  if (!cfg_.multicore.per_core_dvs) {
    cmd.dvs_level = std::max(cmd.dvs_level, global_dvs_floor_);
  }
  slot.tile.actuate(cmd, measure);
}

void MulticoreSystem::step_tile(std::size_t t, double t_end, bool measure) {
  TileSlot& slot = *tiles_[t];
  CoreTile& tile = slot.tile;
  // Policy and guard events land on this tile's trace lane.
  const obs::SimLaneScope lane_scope(tile.lane());
  // Freeze this tile's temperatures for the interval: the solver only
  // advances at barriers, so this is the same fidelity as the
  // single-core System (which also samples interval-boundary state).
  std::copy_n(die_.temperatures().begin() + t * floorplan::kNumBlocks,
              floorplan::kNumBlocks, slot.temps_slice.begin());

  const auto on_sensor = [this, &slot, measure] {
    tile_sensor_event(slot, measure);
  };
  while (tile.t() < t_end - kEps) {
    long long n = chunk_cycles(std::min(tile.next_event(), t_end), tile.t(),
                               tile.freq_hz(), LLONG_MAX);
    const bool occupied = slot.thread != kNoThread;
    CoreTile::Drive drive =
        occupied ? CoreTile::Drive::kThread : CoreTile::Drive::kEmpty;
    if (slot.stall_cycles > 0) {
      // Migration context switch: both endpoints burn clocked-idle
      // cycles (the pipeline drains / refills; the clock tree runs).
      n = std::min<long long>(n, static_cast<long long>(slot.stall_cycles));
      slot.stall_cycles -= static_cast<std::uint64_t>(n);
      drive = CoreTile::Drive::kStall;
    }
    const double dt = tile.advance(n, measure, drive);
    if (measure && occupied) slot.occupied_wall += dt;
    tile.fire_events(on_sensor);
  }

  // Interval-average power at the tile's current operating point; tile
  // watts scale by 1/cores (the tile is a 1/cores shrink of the unit
  // core). Any migration flush energy is spread across the tile's
  // blocks over this interval.
  tile.interval_power_into(slot.temps_slice, slot.watts);
  for (double& w : slot.watts) w *= power_scale_;
  if (slot.pending_flush_j > 0.0) {
    const double w_flush =
        slot.pending_flush_j /
        (interval_dt_ * static_cast<double>(floorplan::kNumBlocks));
    for (double& w : slot.watts) w += w_flush;
    slot.pending_flush_j = 0.0;
  }
}

void MulticoreSystem::apply_migration(const core::MigrationDecision& d) {
  TileSlot& src = *tiles_[d.from];
  TileSlot& dst = *tiles_[d.to];
  // The source squashes its in-flight work; the destination rebinds the
  // thread's instruction stream. Both pay the context-switch stall; the
  // source additionally pays the state-flush energy. The destination's
  // cold caches/predictor are the natural remainder of the cost.
  src.tile.core().flush_pipeline();
  dst.tile.core().set_trace(*threads_[src.thread]);
  dst.thread = src.thread;
  src.thread = kNoThread;
  const std::uint64_t cost = migration_.config().cost_cycles;
  src.stall_cycles += cost;
  dst.stall_cycles += cost;
  src.pending_flush_j += migration_.config().flush_energy.value();
}

void MulticoreSystem::advance_intervals(std::uint64_t target_committed,
                                        bool measure) {
  const std::size_t cores = tiles_.size();
  obs::Tracer& tracer = obs::tracer();
  while (total_committed() < target_committed) {
    if (cancel_ != nullptr && cancel_->stop_requested()) {
      cancel_->throw_if_stopped(benchmark_name_);
    }
    const double t_end = t_ + interval_dt_;
    // Parallel phase: every tile advances to the barrier independently.
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < cores; ++i) step_tile(i, t_end, measure);
    } else {
      pool_->for_each_index(
          cores, [this, t_end, measure](std::size_t i) {
            step_tile(i, t_end, measure);
          });
    }

    // Barrier phase (single-threaded, ascending tile order throughout —
    // every floating-point reduction below is order-fixed).
    for (std::size_t t = 0; t < cores; ++t) {
      std::copy(tiles_[t]->watts.begin(), tiles_[t]->watts.end(),
                die_watts_.begin() + t * floorplan::kNumBlocks);
    }
    bool fault_active = false;
    for (const auto& slot : tiles_) {
      fault_active = fault_active || slot->tile.fault_active();
    }
    // Die-level fault window: any tile's campaign active this interval.
    const double die_max = die_.step(die_watts_, interval_dt_, t_end,
                                     fault_active, measure, die_lane_)
                               .max_true;
    t_ = t_end;

    const thermal::Vector& temps = die_.temperatures();
    double tile_min_max = 0.0;
    for (std::size_t t = 0; t < cores; ++t) {
      TileSlot& slot = *tiles_[t];
      const std::size_t base = t * floorplan::kNumBlocks;
      double tmax = temps[base];
      for (std::size_t b = 1; b < floorplan::kNumBlocks; ++b) {
        tmax = std::max(tmax, temps[base + b]);
      }
      tile_states_[t].tmax = util::Celsius(tmax);
      tile_states_[t].occupied = slot.thread != kNoThread;
      tile_occupied_[t] = tile_states_[t].occupied;
      tile_min_max = t == 0 ? tmax : std::min(tile_min_max, tmax);
      if (measure) slot.max_true = std::max(slot.max_true, tmax);
      if (sim_trace_on(tracer, slot.tile.lane())) {
        tracer.counter(slot.tile.lane(), obs::TimeDomain::kSim,
                       "Tmax_celsius", t_ * kSimUs, tmax);
      }
    }
    // Now that the die temperature moved, fill in the after-temperature
    // of migrations applied at earlier barriers.
    for (; migrations_pending_after_ < migration_events_.size();
         ++migrations_pending_after_) {
      migration_events_[migrations_pending_after_].tmax_after_celsius =
          die_max;
    }
    if (measure) {
      acc_.wall += interval_dt_;
      acc_.spread_weighted += (die_max - tile_min_max) * interval_dt_;
    }

    // Die-level policies run on the fresh temperatures; their outputs
    // are frozen until the next barrier.
    if (cfg_.multicore.migration) {
      const core::MigrationDecision d =
          migration_.update(tile_states_, util::Seconds(t_));
      if (d.migrate) {
        apply_migration(d);
        if (measure) {
          ++tiles_[d.from]->migrations_out;
          ++tiles_[d.to]->migrations_in;
          MigrationEvent ev;
          ev.time_seconds = t_;
          ev.from = d.from;
          ev.to = d.to;
          ev.tmax_before_celsius = die_max;
          ev.tmax_after_celsius = die_max;  // refined at the next barrier
          migration_events_.push_back(ev);
        }
        static const obs::Counter migration_counter =
            obs::metrics().counter("multicore.migrations");
        migration_counter.add();
        if (sim_trace_on(tracer, die_lane_)) {
          tracer.instant(die_lane_, obs::TimeDomain::kSim, "multicore",
                         "thread_migration", t_ * kSimUs, "from",
                         static_cast<double>(d.from), "to",
                         static_cast<double>(d.to));
        }
      }
    }
    if (arbiter_.enabled()) {
      for (std::size_t t = 0; t < cores; ++t) {
        double p = 0.0;
        for (double w : tiles_[t]->watts) p += w;
        tile_power_[t] = util::Watts(p);
      }
      arbiter_.update(tile_power_, tile_occupied_);
      if (measure) {
        bool throttled = false;
        for (const core::ArbiterCommand& c : arbiter_.commands()) {
          if (c.fetch_gate_floor > 0.0 || c.dvs_floor > 0) throttled = true;
        }
        if (throttled) acc_.throttled += interval_dt_;
      }
    }
    if (!cfg_.multicore.per_core_dvs) {
      std::size_t floor = 0;
      for (const auto& slot : tiles_) {
        floor = std::max(floor, slot->requested_dvs);
      }
      global_dvs_floor_ = floor;
    }
  }
}

MulticoreResult MulticoreSystem::run(const util::CancelToken* cancel) {
  cancel_ = cancel;
  const std::uint64_t guard_trips_before = die_.solver().fused_guard_trips();
  obs::Tracer& tracer = obs::tracer();
  if (tracer.enabled()) {
    die_lane_ = tracer.new_lane(
        benchmark_name_ + "/" + policy_name_ + "/die",
        obs::TimeDomain::kSim);
    for (auto& slot : tiles_) {
      slot->tile.set_lane(tracer.new_lane(
          benchmark_name_ + "/" + policy_name_ + "/c" +
              std::to_string(slot->index),
          obs::TimeDomain::kSim));
    }
  }
  const obs::SimLaneScope sim_scope(die_lane_);

  {
    const obs::ScopedSpan span(tracer, "system", "init_thermal",
                               benchmark_name_);
    initialize_thermal_state();
  }
  {
    const obs::ScopedSpan span(tracer, "system", "warmup", benchmark_name_);
    advance_intervals(total_committed() + cfg_.warmup_instructions, false);
  }

  acc_ = Accum{};
  die_.reset();
  migration_events_.clear();
  migrations_pending_after_ = 0;
  migration_.reset();
  arbiter_.reset();
  acc_.start_committed = total_committed();
  for (auto& slot : tiles_) slot->begin_measure();

  {
    const obs::ScopedSpan span(tracer, "system", "measure", benchmark_name_);
    advance_intervals(acc_.start_committed + cfg_.run_instructions, true);
  }

  const std::size_t cores = tiles_.size();
  const double wall = acc_.wall;
  MulticoreResult out;
  RunResult& r = out.aggregate;
  r.benchmark = benchmark_name_;
  r.policy = policy_name_;
  r.cores = cores;
  r.wall_seconds = wall;
  // Tile totals, summed in ascending tile order.
  std::uint64_t start_cycles = 0, cycles = 0, idle = 0;
  double gate_w = 0.0, issue_w = 0.0, dvs_w = 0.0, cg_w = 0.0, fs_w = 0.0;
  out.per_core.reserve(cores);
  for (const auto& slot : tiles_) {
    const CoreTile& tile = slot->tile;
    const CoreTile::Accum& ta = tile.acc();
    start_cycles += ta.start_cycles;
    cycles += tile.core().cycles();
    idle += ta.idle_cycles;
    gate_w += ta.gate_weighted;
    issue_w += ta.issue_gate_weighted;
    dvs_w += ta.dvs_low;
    cg_w += ta.clock_gated;
    fs_w += ta.failsafe;
    r.dvs_transitions += ta.transitions;
    r.faulted_samples += tile.faulted_samples();
    if (const core::GuardedPolicy* guard = tile.guard()) {
      r.sensor_rejections += guard->stats().rejected_readings;
      r.quarantine_entries += guard->stats().quarantine_entries;
    }

    CoreRunStats s;
    s.tile = slot->index;
    s.instructions = tile.core().committed() - ta.start_committed;
    s.cycles = tile.core().cycles() - ta.start_cycles;
    s.ipc = s.cycles == 0 ? 0.0
                          : static_cast<double>(s.instructions) /
                                static_cast<double>(s.cycles);
    s.max_true_celsius = slot->max_true;
    if (wall > 0.0) {
      s.mean_gate_fraction = ta.gate_weighted / wall;
      s.dvs_low_fraction = ta.dvs_low / wall;
      s.occupied_fraction = slot->occupied_wall / wall;
    }
    s.dvs_transitions = ta.transitions;
    s.migrations_in = slot->migrations_in;
    s.migrations_out = slot->migrations_out;
    out.per_core.push_back(s);
  }
  r.instructions = total_committed() - acc_.start_committed;
  r.cycles = cycles - start_cycles;
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  die_.fill(r, wall);
  if (wall > 0.0) {
    const double tile_wall = wall * static_cast<double>(cores);
    r.core_temp_spread_celsius = acc_.spread_weighted / wall;
    r.budget_throttled_fraction = acc_.throttled / wall;
    // Per-tile fractions average over ALL tiles (idle tiles dilute —
    // they really are un-throttled silicon on this die).
    r.mean_gate_fraction = gate_w / tile_wall;
    r.mean_issue_gate_fraction = issue_w / tile_wall;
    r.dvs_low_fraction = dvs_w / tile_wall;
    r.clock_gated_fraction = cg_w / tile_wall;
    r.failsafe_fraction = fs_w / tile_wall;
  }
  if (r.cycles > 0) {
    r.idle_skip_fraction =
        static_cast<double>(idle) / static_cast<double>(r.cycles);
  }
  r.thread_migrations = migration_events_.size();
  r.solver_guard_trips =
      die_.solver().fused_guard_trips() - guard_trips_before;
  out.migrations = migration_events_;
  cancel_ = nullptr;
  return out;
}

}  // namespace hydra::sim
