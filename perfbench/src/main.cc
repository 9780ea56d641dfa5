// End-to-end benchmark program for hydra-dtm (see perfbench/README.md).
//
//   perfbench --workload <suite_1t|fig4_sweep|die16> --seed <n>
//             --seconds <s> --trace <0|1> --out <record.json>
//             [--spans <spans.jsonl>] [--inject fail|slow]
//
// Pins itself to its CPU budget, builds the workload's points from the
// seed, times set-up, runs one reference sweep (the outputs the caller
// checks), then either repeats timed sweeps for --seconds (--trace 0)
// or makes the traced per-layer run (--trace 1). Writes one JSON record
// with raw samples; run.py turns it into metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay.h"
#include "sim/experiment.h"
#include "sim/model_cache.h"
#include "sim/multicore.h"
#include "sim/persistent_cache.h"
#include "thermal/sparse.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workload/spec_profiles.h"

#ifndef HYDRA_BENCH_BUILD_TYPE
#define HYDRA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HYDRA_BENCH_COMPILER
#define HYDRA_BENCH_COMPILER "unknown"
#endif

namespace {

namespace hs = hydra::sim;
namespace hw = hydra::workload;
using Clock = std::chrono::steady_clock;
using perfbench::ReplayCounts;
using perfbench::SpanRecorder;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string inject;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--inject") a.inject = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.out.empty()) throw std::invalid_argument("--out is required");
  return a;
}

// ---------------------------------------------------------------------------
// CPU budget.

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pin the calling thread (before any other thread exists, so every
/// thread the process starts inherits it) to the last `width` allowed
/// CPUs; CPU 0 usually takes the most interrupts.
std::vector<int> pin_to(const std::vector<int>& allowed, std::size_t width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::vector<int> pinned(
      allowed.end() - static_cast<std::ptrdiff_t>(width), allowed.end());
  for (int c : pinned) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return pinned;
}

// ---------------------------------------------------------------------------
// Workloads.

/// One distinct simulation (a DTM point or a shared baseline).
struct Run {
  hw::WorkloadProfile profile;
  hs::PolicyKind kind = hs::PolicyKind::kNone;
};

struct Workload {
  std::string name;
  std::size_t cpus = 1;          ///< CPU budget the process is pinned to
  std::size_t runner_width = 1;  ///< ExperimentRunner pool width
  hs::SimConfig cfg;
  std::vector<hs::PointSpec> points;
  std::vector<Run> runs;  ///< distinct runs, in submission order
};

std::vector<hw::WorkloadProfile> seeded_profiles(std::uint64_t seed) {
  std::vector<hw::WorkloadProfile> profiles = hw::spec2000_hot_profiles();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    profiles[i].seed = splitmix64(seed * 64 + i) | 1;
  }
  return profiles;
}

hs::SimConfig with_lengths(hs::SimConfig cfg, std::uint64_t run,
                           std::uint64_t warmup, std::uint64_t probe) {
  cfg.run_instructions = run;
  cfg.warmup_instructions = warmup;
  cfg.activity_probe_instructions = probe;
  return cfg;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t budget) {
  Workload w;
  w.name = name;
  const std::vector<hw::WorkloadProfile> profiles = seeded_profiles(seed);
  hs::SimConfig base;
  base.sensor.seed = splitmix64(seed ^ 0x5EA5ULL);
  if (name == "suite_1t") {
    w.cpus = 1;
    w.runner_width = 1;
    w.cfg = with_lengths(base, 120'000, 40'000, 600'000);
    for (const auto& p : profiles) {
      w.points.push_back({p, hs::PolicyKind::kHybrid, {}, w.cfg});
    }
  } else if (name == "fig4_sweep") {
    w.cpus = budget;
    w.runner_width = budget;
    w.cfg = with_lengths(base, 120'000, 40'000, 600'000);
    w.cfg.dvs_stall = true;
    for (hs::PolicyKind kind :
         {hs::PolicyKind::kFetchGating, hs::PolicyKind::kDvs,
          hs::PolicyKind::kPiHybrid, hs::PolicyKind::kHybrid}) {
      for (const auto& p : profiles) w.points.push_back({p, kind, {}, w.cfg});
    }
  } else if (name == "die16") {
    w.cpus = budget;
    w.runner_width = 1;
    hs::SimConfig cfg = with_lengths(base, 1'200'000, 600'000, 300'000);
    cfg.time_scale = 150.0;
    cfg.thermal_interval_cycles = 2'000;
    cfg.thresholds.trigger = hydra::util::Celsius(68.0);
    cfg.thresholds.emergency = hydra::util::Celsius(72.0);
    cfg.multicore.cores = 16;
    cfg.multicore.threads = budget;
    cfg.multicore.workload_threads = 12;
    cfg.multicore.per_core_dvs = true;
    cfg.multicore.migration = true;
    cfg.multicore.migration_policy.interval = hydra::util::Seconds(50e-6);
    cfg.multicore.migration_policy.margin = hydra::util::CelsiusDelta(0.5);
    cfg.multicore.arbiter.die_budget = hydra::util::Watts(11.0);
    w.cfg = cfg;
    const hw::WorkloadProfile& crafty = profiles[5];
    for (hs::PolicyKind kind : {hs::PolicyKind::kNone, hs::PolicyKind::kDvs,
                                hs::PolicyKind::kHybrid}) {
      w.points.push_back({crafty, kind, {}, cfg});
    }
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  std::set<std::pair<std::string, int>> seen;
  for (const hs::PointSpec& p : w.points) {
    for (hs::PolicyKind kind : {p.kind, hs::PolicyKind::kNone}) {
      if (seen.insert({p.profile.name, static_cast<int>(kind)}).second) {
        w.runs.push_back({p.profile, kind});
      }
    }
  }
  return w;
}

/// Self-test fixtures: a point that throws, or one that does hidden
/// extra start-up work (a slower point with unchanged instruction count:
/// on suite_1t a 10x probe on one of 18 runs costs ~40 % of a sweep).
void apply_injection(Workload& w, const std::string& inject) {
  if (inject.empty()) return;
  hs::PointSpec& p = w.points.front();
  if (inject == "fail") {
    p.profile.frac_int_alu += 0.5;  // invalid mix: the run throws
  } else if (inject == "slow") {
    p.cfg.activity_probe_instructions *= 10;
  } else {
    throw std::invalid_argument("unknown --inject " + inject);
  }
}

// ---------------------------------------------------------------------------
// Set-up and sweeps.

/// Set-up sampling: batches of kSetupBatch set-ups, for at least
/// kSetupSeconds and kSetupSamples batches.
constexpr int kSetupBatch = 20;
constexpr int kSetupSamples = 15;
constexpr double kSetupSeconds = 1.5;

struct SetupSample {
  double setup_s = 0.0;
  double build_ms = 0.0;
};

SetupSample setup_once(const std::string& name, std::uint64_t seed,
                       std::size_t budget) {
  const Clock::time_point t0 = Clock::now();
  const Workload w = make_workload(name, seed, budget);
  const Clock::time_point tb = Clock::now();
  {
    hs::ModelCache fresh;
    const std::shared_ptr<const hs::SharedModel> m = fresh.get(w.cfg);
    const std::size_t n = m->model.network.size();
    const double f0 = w.cfg.f_nominal.value();
    const double dt0 = static_cast<double>(w.cfg.thermal_interval_cycles) / f0;
    if (w.cfg.multicore.cores > 1 && hydra::thermal::use_sparse_step(n)) {
      m->lu_cache->steady_sparse();
      m->lu_cache->sparse(dt0);
    } else {
      m->lu_cache->steady();
      const hydra::power::DvsLadder ladder = hs::make_ladder(w.cfg);
      for (std::size_t level = 0; level < ladder.size(); ++level) {
        m->lu_cache->fused(static_cast<double>(w.cfg.thermal_interval_cycles) /
                           ladder.point(level).frequency.value());
      }
    }
  }
  const double build_ms = since(tb) * 1e3;
  hydra::util::ThreadPool pool(w.runner_width);
  const hs::ExperimentRunner runner(w.cfg, &pool);
  return {since(t0), build_ms};
}

struct Sweep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::vector<hs::ExperimentResult> points;
  std::vector<hs::RunResult> runs;  ///< distinct runs, submission order
  hs::RunCache::Stats stats{};
  std::size_t failed = 0;
  std::string error;
};

Sweep run_sweep(const Workload& w, std::size_t width) {
  Sweep s;
  auto pool = std::make_unique<hydra::util::ThreadPool>(width);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  auto runner = std::make_unique<hs::ExperimentRunner>(w.cfg, pool.get());
  try {
    s.points = runner->run_points(w.points);
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.wall_s = since(t0);
  s.cpu_s = cpu_seconds() - cpu0;
  // Runs still in flight after a failure hold the runner's cache: drain
  // the pool before the runner goes away.
  pool.reset();
  s.stats = runner->cache_stats();
  runner.reset();
  if (!s.error.empty()) {
    s.failed = std::max<std::size_t>(1, s.stats.failures);
    return s;
  }
  std::set<std::pair<std::string, std::string>> seen;
  for (const hs::ExperimentResult& r : s.points) {
    for (const hs::RunResult* run : {&r.dtm, &r.baseline}) {
      if (seen.insert({run->benchmark, run->policy}).second) {
        s.runs.push_back(*run);
        s.instructions += run->instructions;
        s.cycles += run->cycles;
      }
    }
  }
  if (s.runs.size() != w.runs.size()) {
    s.error = "sweep produced " + std::to_string(s.runs.size()) +
              " distinct runs, expected " + std::to_string(w.runs.size());
    s.failed = w.runs.size();
  }
  return s;
}

/// Runs whose every field is not bit-identical to the reference sweep.
std::size_t mismatches(const Sweep& ref, const Sweep& s) {
  if (s.runs.size() != ref.runs.size()) return ref.runs.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    if (hs::serialize_run_result(s.runs[i]) !=
        hs::serialize_run_result(ref.runs[i])) {
      ++bad;
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// JSON output.

void write_run(hydra::util::JsonWriter& j, const hs::RunResult& r) {
  j.begin_object();
  j.key("benchmark").value(r.benchmark);
  j.key("policy").value(r.policy);
  j.key("wall_seconds").value(r.wall_seconds);
  j.key("instructions").value(r.instructions);
  j.key("cycles").value(r.cycles);
  j.key("ipc").value(r.ipc);
  j.key("max_true_celsius").value(r.max_true_celsius);
  j.key("violation_fraction").value(r.violation_fraction);
  j.key("above_trigger_fraction").value(r.above_trigger_fraction);
  j.key("dvs_transitions").value(r.dvs_transitions);
  j.key("mean_gate_fraction").value(r.mean_gate_fraction);
  j.key("mean_issue_gate_fraction").value(r.mean_issue_gate_fraction);
  j.key("dvs_low_fraction").value(r.dvs_low_fraction);
  j.key("clock_gated_fraction").value(r.clock_gated_fraction);
  j.key("mean_power_watts").value(r.mean_power_watts);
  j.key("hottest_block").value(r.hottest_block);
  j.key("hottest_mean_celsius").value(r.hottest_mean_celsius);
  j.key("idle_skip_fraction").value(r.idle_skip_fraction);
  j.key("solver_guard_trips").value(r.solver_guard_trips);
  j.key("faulted_samples").value(r.faulted_samples);
  j.key("sensor_rejections").value(r.sensor_rejections);
  j.key("quarantine_entries").value(r.quarantine_entries);
  j.key("failsafe_fraction").value(r.failsafe_fraction);
  j.key("fault_window_fraction").value(r.fault_window_fraction);
  j.key("fault_violation_fraction").value(r.fault_violation_fraction);
  j.key("cores").value(r.cores);
  j.key("thread_migrations").value(r.thread_migrations);
  j.key("core_temp_spread_celsius").value(r.core_temp_spread_celsius);
  j.key("budget_throttled_fraction").value(r.budget_throttled_fraction);
  j.end_object();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Traced run.

struct Traced {
  std::map<std::string, double> layers;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

/// Direct (engine-free) runs of every distinct run, timed one by one,
/// then the per-layer replay of each. `engine` is the reference sweep at
/// the workload's width; `engine_wall_width1` the same sweep at width 1.
/// A run fails if its direct result differs from the engine's, or if the
/// replay's measured window (instructions, cycles, DVS transitions,
/// migrations) differs from the direct run's.
Traced traced_run(const Workload& w, const Sweep& engine,
                  double engine_wall_width1, const std::string& spans_path) {
  Traced tr;
  std::vector<double> run_s;     // at the workload's tile width
  double serial_total = 0.0;     // single-threaded: what the replay mirrors
  double probe_s = 0.0;
  double first_run_s = 0.0;
  std::vector<hs::RunResult> direct;
  std::vector<bool> bad(w.runs.size(), false);
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    const Run& run = w.runs[i];
    const hs::SimConfig cfg = run.kind == hs::PolicyKind::kNone
                                  ? hs::baseline_config(w.cfg)
                                  : w.cfg;
    const auto factory = [&cfg, kind = run.kind] {
      return hs::make_policy(kind, {}, cfg);
    };
    const std::string label = run.kind == hs::PolicyKind::kNone
                                  ? "baseline"
                                  : hs::policy_kind_name(run.kind);
    hs::RunResult result;
    const Clock::time_point t0 = Clock::now();
    if (cfg.multicore.cores > 1) {
      hs::MulticoreSystem sys(run.profile, cfg, factory, label);
      result = sys.run().aggregate;
      const double first = since(t0);
      const Clock::time_point t1 = Clock::now();
      sys.run();  // warm system: probe frames cached
      const double second = since(t1);
      run_s.push_back(first);
      first_run_s += first;
      probe_s += std::max(0.0, first - second);
      hs::SimConfig serial_cfg = cfg;
      serial_cfg.multicore.threads = 1;
      const Clock::time_point t2 = Clock::now();
      hs::MulticoreSystem serial(run.profile, serial_cfg, factory, label);
      serial.run();
      serial_total += since(t2);
    } else {
      hs::System sys(run.profile, cfg, factory());
      result = sys.run();
      run_s.push_back(since(t0));
      serial_total += run_s.back();
    }
    if (i < engine.runs.size() &&
        hs::serialize_run_result(result) !=
            hs::serialize_run_result(engine.runs[i])) {
      bad[i] = true;
      tr.errors.push_back("direct run differs from engine run: " +
                          result.benchmark + "/" + result.policy);
    }
    direct.push_back(std::move(result));
  }

  SpanRecorder rec;
  ReplayCounts counts;
  double replay_wall = 0.0;
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    rec.set_point(static_cast<std::int32_t>(i));
    const Clock::time_point t0 = Clock::now();
    const ReplayCounts c = perfbench::replay_point(
        w.runs[i].profile, w.runs[i].kind, w.cfg, rec);
    replay_wall += since(t0);
    counts += c;
    const hs::RunResult& r = direct[i];
    if (c.measured_instructions != r.instructions ||
        c.measured_cycles != r.cycles ||
        c.dvs_transitions != r.dvs_transitions ||
        c.migrations != r.thread_migrations) {
      bad[i] = true;
      tr.errors.push_back(
          "replay differs from direct run " + r.benchmark + "/" + r.policy +
          ": instructions " + std::to_string(c.measured_instructions) + "/" +
          std::to_string(r.instructions) + ", cycles " +
          std::to_string(c.measured_cycles) + "/" + std::to_string(r.cycles) +
          ", dvs_transitions " + std::to_string(c.dvs_transitions) + "/" +
          std::to_string(r.dvs_transitions) + ", migrations " +
          std::to_string(c.migrations) + "/" +
          std::to_string(r.thread_migrations));
    }
  }
  tr.failed = static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true));
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    rec.write_jsonl(out);
  }

  const std::map<std::string, double> self = rec.self_seconds();
  const std::map<std::string, double> total = rec.total_seconds();
  const auto get = [](const std::map<std::string, double>& m,
                      const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto per = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : s * 1e9 / static_cast<double>(n);
  };
  double run_total = 0.0;
  for (double s : run_s) run_total += s;
  double attributed = 0.0;
  for (const auto& [name, s] : self) {
    if (name != "sim.replay") attributed += s;
  }

  std::map<std::string, double>& L = tr.layers;
  L["workload.uops"] = static_cast<double>(counts.uops);
  L["workload.ns_per_uop"] =
      per(get(self, "workload.generate"), counts.uops);
  L["arch.cycles"] = static_cast<double>(counts.exec_cycles);
  L["arch.ns_per_cycle"] = per(get(self, "arch.cycle"), counts.exec_cycles);
  L["arch.ipc"] = counts.total_cycles == 0
                      ? 0.0
                      : static_cast<double>(counts.committed) /
                            static_cast<double>(counts.total_cycles);
  L["sim.probe_frac"] = w.cfg.multicore.cores > 1
                            ? (first_run_s > 0.0 ? probe_s / first_run_s : 0.0)
                            : (serial_total > 0.0
                                   ? get(total, "sim.probe") / serial_total
                                   : 0.0);
  L["sim.run_s.p50"] = median(run_s);
  L["sim.run_s.max"] =
      run_s.empty() ? 0.0 : *std::max_element(run_s.begin(), run_s.end());
  L["sim.engine_overhead_frac"] =
      engine_wall_width1 > 0.0 ? 1.0 - run_total / engine_wall_width1 : 0.0;
  L["util.pool_busy_frac"] =
      engine.wall_s > 0.0
          ? engine.cpu_s / (static_cast<double>(w.cpus) * engine.wall_s)
          : 0.0;
  L["sim.cache_hits"] = static_cast<double>(engine.stats.hits);
  L["sim.cache_misses"] = static_cast<double>(engine.stats.misses);
  const double subs =
      static_cast<double>(engine.stats.hits + engine.stats.misses);
  L["sim.hit_ratio"] =
      subs > 0.0 ? static_cast<double>(engine.stats.hits) / subs : 0.0;
  L["power.calls"] = static_cast<double>(counts.power_calls);
  L["power.ns_per_call"] =
      per(get(self, "power.block_power"), counts.power_calls);
  L["thermal.steps"] = static_cast<double>(counts.thermal_steps);
  L["thermal.ns_per_step"] =
      per(get(self, "thermal.step"), counts.thermal_steps);
  L["thermal.nodes"] = static_cast<double>(
      hs::ModelCache::global().get(w.cfg)->model.network.size());
  L["sensor.ns_per_sample"] =
      per(get(self, "sensor.sample"), counts.sensor_samples);
  L["core.updates"] = static_cast<double>(counts.policy_updates);
  L["core.ns_per_update"] =
      per(get(self, "core.update"), counts.policy_updates);
  L["sim.unattributed_frac"] =
      serial_total > 0.0 ? 1.0 - attributed / serial_total : 0.0;
  L["bench.trace_overhead_frac"] =
      serial_total > 0.0 ? replay_wall / serial_total - 1.0 : 0.0;
  return tr;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::vector<int> allowed = allowed_cpus();
    const std::size_t budget = std::min<std::size_t>(4, allowed.size());
    Workload w = make_workload(args.workload, args.seed, budget);
    apply_injection(w, args.inject);
    const std::vector<int> pinned = pin_to(allowed, w.cpus);

    // Set-up, each from a fresh model cache. One set-up takes well under
    // a millisecond, too short to time steadily, so a sample is the mean
    // over a batch, and sampling spans seconds so that the median does
    // not hinge on one moment of the host. The first (cold) set-up is
    // not timed.
    setup_once(args.workload, args.seed, budget);
    std::vector<double> setup_s;
    std::vector<double> build_ms;
    const Clock::time_point setup_t0 = Clock::now();
    while (setup_s.size() < kSetupSamples || since(setup_t0) < kSetupSeconds) {
      SetupSample sum;
      for (int k = 0; k < kSetupBatch; ++k) {
        const SetupSample s = setup_once(args.workload, args.seed, budget);
        sum.setup_s += s.setup_s;
        sum.build_ms += s.build_ms;
      }
      setup_s.push_back(sum.setup_s / kSetupBatch);
      build_ms.push_back(sum.build_ms / kSetupBatch);
    }

    // Reference sweep: warms the process-wide model cache and yields the
    // outputs run.py checks against the committed reference.
    const Sweep ref = run_sweep(w, w.runner_width);
    std::size_t attempted = w.runs.size();
    std::size_t failed = ref.failed;
    std::vector<std::string> errors;
    if (!ref.error.empty()) errors.push_back(ref.error);

    // Every further sweep must reproduce the reference sweep bit for bit.
    const auto check = [&](const Sweep& s, std::size_t width) {
      attempted += w.runs.size();
      failed += s.failed;
      if (!s.error.empty()) {
        errors.push_back(s.error);
      } else if (ref.error.empty()) {
        const std::size_t bad = mismatches(ref, s);
        if (bad > 0) {
          failed += bad;
          errors.push_back("sweep at width " + std::to_string(width) +
                           " differs from the reference sweep");
        }
      }
    };
    std::vector<Sweep> timed;
    Traced traced;
    if (!args.trace) {
      const Clock::time_point t0 = Clock::now();
      // --seconds 0 makes the reference sweep only (reference capture).
      const std::size_t min_sweeps = args.seconds > 0.0 ? 2 : 0;
      while (since(t0) < args.seconds || timed.size() < min_sweeps) {
        Sweep s = run_sweep(w, w.runner_width);
        check(s, w.runner_width);
        s.points.clear();
        timed.push_back(std::move(s));
      }
    } else if (ref.error.empty()) {
      double wall1 = ref.wall_s;
      if (w.runner_width != 1) {
        const Sweep serial = run_sweep(w, 1);
        check(serial, 1);
        wall1 = serial.wall_s;
      }
      traced = traced_run(w, ref, wall1, args.spans);
      attempted += w.runs.size();
      failed += traced.failed;
      errors.insert(errors.end(), traced.errors.begin(),
                    traced.errors.end());
    }

    std::ofstream file(args.out);
    hydra::util::JsonWriter j(file, 0);
    j.begin_object();
    j.key("workload").value(w.name);
    j.key("seed").value(args.seed);
    j.key("trace").value(args.trace);
    j.key("inject").value(args.inject);
    j.key("host").begin_object();
    j.key("nproc").value(static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN)));
    j.key("allowed_cpus").value(allowed.size());
    j.key("cpu_model").value(cpu_model());
    j.key("compiler").value(HYDRA_BENCH_COMPILER);
    j.key("build_type").value(HYDRA_BENCH_BUILD_TYPE);
    j.end_object();
    j.key("cpu_budget").value(budget);
    j.key("pool_width").value(w.runner_width);
    j.key("pinned_cpus").begin_array();
    for (int c : pinned) j.value(c);
    j.end_array();
    j.key("setup_s").begin_array();
    for (double v : setup_s) j.value(v);
    j.end_array();
    j.key("thermal_build_ms").begin_array();
    for (double v : build_ms) j.value(v);
    j.end_array();
    j.key("sweeps").begin_array();
    for (const Sweep& s : timed) {
      j.begin_object();
      j.key("wall_s").value(s.wall_s);
      j.key("cpu_s").value(s.cpu_s);
      j.key("instructions").value(s.instructions);
      j.key("cycles").value(s.cycles);
      j.end_object();
    }
    j.end_array();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    j.key("peak_rss_mb").value(static_cast<double>(ru.ru_maxrss) / 1024.0);
    j.key("attempted").value(attempted);
    j.key("failed").value(failed);
    j.key("errors").begin_array();
    for (const std::string& e : errors) j.value(e);
    j.end_array();
    j.key("runs").begin_array();
    for (const hs::RunResult& r : ref.runs) write_run(j, r);
    j.end_array();
    j.key("points").begin_array();
    for (const hs::ExperimentResult& r : ref.points) {
      j.begin_object();
      j.key("benchmark").value(r.dtm.benchmark);
      j.key("policy").value(r.dtm.policy);
      j.key("slowdown").value(r.slowdown);
      j.end_object();
    }
    j.end_array();
    if (args.trace) {
      j.key("layers").begin_object();
      for (const auto& [k, v] : traced.layers) j.key(k).value(v);
      j.end_object();
    }
    j.end_object();
    file << '\n';
    if (!file) throw std::runtime_error("cannot write " + args.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
