// hydra_run — scriptable experiment driver.
//
// Runs one DTM experiment (benchmark x policy) and emits the result as
// human-readable text or JSON, making the simulator usable from shell
// pipelines and dashboards without writing C++.
//
// Usage:
//   hydra_run benchmark=<name|all> policy=<name> [key=value ...]
//
// Keys:
//   benchmark     mesa|perlbmk|gzip|bzip2|eon|crafty|vortex|gcc|art|all
//   policy        none|dvs|fg|fg-fixed|clockgate|pi-hyb|hyb|pro-hyb|
//                 local-toggle|fallback
//   format        text|json                      (default text)
//   dvs_stall     true|false                     (default true)
//   dvs_steps     >= 2                           (default 2)
//   v_low_fraction(0,1)                          (default 0.85)
//   run_instructions / warmup_instructions       (defaults as library)
//   time_scale    > 0                            (default 40)
//   crossover     hybrid crossover gate fraction (default 1/3)
//   seed          sensor-noise seed
//   fault_campaign  path to a sensor-fault schedule (see src/fault);
//                   times are relative to the measured window
//   guard         true|false — wrap the policy in the fail-safe
//                 sensor-fault supervisor (default false)
//
// Many-core die (DESIGN.md section 15):
//   cores         core tiles on the die (default 1 = single-core paper
//                 setup; >1 runs the MulticoreSystem with one policy
//                 instance per tile)
//   threads       worker threads stepping tiles within one run; 0 (the
//                 default) uses the global pool, which $HYDRA_THREADS
//                 sizes. Results are bit-identical at any value.
//   workload_threads  software threads on the die (0 = one per core;
//                 fewer leaves idle tiles for the migration policy)
//   per_core_dvs  true|false — per-tile voltage domains vs one global
//                 domain at the max requested level (default true)
//   migration     true|false — thermal-aware thread migration
//   migration_cost_cycles  context-switch stall per migration
//   power_budget  die-level power cap in watts routed through the
//                 budget arbiter (0 disables)
//   trigger       DTM trigger temperature in deg C (also the migration
//                 policy's threshold). Tiled dies run cooler than the
//                 single-core die at equal power density, so multicore
//                 experiments typically lower this below the paper's
//                 81.8 C default.
//   emergency     thermal-violation threshold in deg C
//
// Robustness (see DESIGN.md "Failure model"):
//   cache_dir     crash-safe persistent run-cache directory; defaults to
//                 $HYDRA_CACHE_DIR, empty disables persistence
//   timeout_seconds  per-run wall-clock deadline (0 = none); an expired
//                 run exits nonzero with a typed timeout diagnostic
//   max_attempts  retry budget for runs that fail transiently (default 1)
//
// Unknown keys are rejected with a one-line file:line diagnostic and a
// closest-spelling suggestion; the process exits nonzero.
//
// Observability outputs (any of these enables tracing + metrics for the
// whole run; keys may be spelled with dashes or underscores, and a
// leading `--` is accepted, so `--trace=out.json` works):
//   trace         Chrome trace-event JSON (chrome://tracing, Perfetto)
//   trace_csv     the same events as flat CSV
//   metrics       metrics registry scrape as CSV (kind,name,field,value)
//   summary_json  machine-readable run summary: results + engine cache
//                 stats + merged metrics (uploaded by CI's perf job)
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/fault_campaign.h"

#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/persistent_cache.h"
#include "util/config.h"
#include "util/json.h"
#include "util/table.h"

using namespace hydra;

namespace {

sim::PolicyKind parse_policy(const std::string& name) {
  if (name == "none") return sim::PolicyKind::kNone;
  if (name == "dvs") return sim::PolicyKind::kDvs;
  if (name == "fg") return sim::PolicyKind::kFetchGating;
  if (name == "fg-fixed") return sim::PolicyKind::kFixedFetchGating;
  if (name == "clockgate") return sim::PolicyKind::kClockGating;
  if (name == "pi-hyb") return sim::PolicyKind::kPiHybrid;
  if (name == "hyb") return sim::PolicyKind::kHybrid;
  if (name == "pro-hyb") return sim::PolicyKind::kProactiveHybrid;
  if (name == "local-toggle") return sim::PolicyKind::kLocalToggle;
  if (name == "fallback") return sim::PolicyKind::kFallback;
  throw std::invalid_argument("unknown policy '" + name + "'");
}

void emit_json(util::JsonWriter& w, const sim::ExperimentResult& r) {
  w.begin_object();
  w.key("benchmark").value(r.dtm.benchmark);
  w.key("policy").value(r.dtm.policy);
  w.key("slowdown").value(r.slowdown);
  w.key("wall_seconds").value(r.dtm.wall_seconds);
  w.key("ipc").value(r.dtm.ipc);
  w.key("baseline_ipc").value(r.baseline.ipc);
  w.key("max_true_celsius").value(r.dtm.max_true_celsius);
  w.key("violation_fraction").value(r.dtm.violation_fraction);
  w.key("above_trigger_fraction").value(r.dtm.above_trigger_fraction);
  w.key("mean_gate_fraction").value(r.dtm.mean_gate_fraction);
  w.key("mean_issue_gate_fraction").value(r.dtm.mean_issue_gate_fraction);
  w.key("dvs_low_fraction").value(r.dtm.dvs_low_fraction);
  w.key("clock_gated_fraction").value(r.dtm.clock_gated_fraction);
  w.key("dvs_transitions").value(r.dtm.dvs_transitions);
  w.key("mean_power_watts").value(r.dtm.mean_power_watts);
  w.key("hottest_block").value(r.dtm.hottest_block);
  w.key("solver_guard_trips").value(r.dtm.solver_guard_trips);
  w.key("faulted_samples").value(r.dtm.faulted_samples);
  w.key("sensor_rejections").value(r.dtm.sensor_rejections);
  w.key("quarantine_entries").value(r.dtm.quarantine_entries);
  w.key("failsafe_fraction").value(r.dtm.failsafe_fraction);
  w.key("fault_window_fraction").value(r.dtm.fault_window_fraction);
  w.key("fault_violation_fraction").value(r.dtm.fault_violation_fraction);
  w.key("cores").value(r.dtm.cores);
  w.key("thread_migrations").value(r.dtm.thread_migrations);
  w.key("core_temp_spread_celsius").value(r.dtm.core_temp_spread_celsius);
  w.key("budget_throttled_fraction").value(r.dtm.budget_throttled_fraction);
  w.end_object();
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for write");
  return out;
}

/// Machine-readable run summary: per-point results plus engine-level
/// cache statistics, trace volume and the merged metrics scrape.
void emit_summary(std::ostream& os,
                  const std::vector<sim::ExperimentResult>& results,
                  const sim::RunCache::Stats& cache) {
  util::JsonWriter w(os);
  w.begin_object();
  w.key("results").begin_array();
  for (const auto& r : results) emit_json(w, r);
  w.end_array();
  w.key("run_cache").begin_object();
  w.key("hits").value(cache.hits);
  w.key("misses").value(cache.misses);
  w.key("failures").value(cache.failures);
  w.key("retries").value(cache.retries);
  w.key("timeouts").value(cache.timeouts);
  w.key("computes").value(cache.computes);
  w.key("disk_hits").value(cache.disk_hits);
  w.key("disk_stores").value(cache.disk_stores);
  w.end_object();
  w.key("trace_events").value(obs::tracer().size());
  const obs::MetricsSnapshot snap = obs::metrics().scrape();
  w.key("counters").begin_object();
  for (const auto& [name, count] : snap.counters) {
    w.key(name).value(count);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) {
    w.key(name).value(value);
  }
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config cfg_args =
        util::Config::from_args(std::vector<std::string>(argv + 1,
                                                         argv + argc));
    cfg_args.reject_unknown({
        "benchmark", "policy", "format", "dvs_stall", "dvs_steps",
        "v_low_fraction", "time_scale", "run_instructions",
        "warmup_instructions", "seed", "fault_campaign", "crossover",
        "guard", "trace", "trace_csv", "trace-csv", "metrics",
        "summary_json", "summary-json", "cache_dir", "cache-dir",
        "timeout_seconds", "max_attempts", "cores", "threads",
        "workload_threads", "per_core_dvs", "migration",
        "migration_cost_cycles", "power_budget", "trigger", "emergency",
    });
    const std::string bench = cfg_args.get_string("benchmark", "crafty");
    const std::string policy_name = cfg_args.get_string("policy", "hyb");
    const std::string format = cfg_args.get_string("format", "text");

    sim::SimConfig cfg = sim::default_sim_config();
    cfg.dvs_stall = cfg_args.get_bool("dvs_stall", cfg.dvs_stall);
    cfg.dvs_steps = static_cast<std::size_t>(
        cfg_args.get_int("dvs_steps", static_cast<long long>(cfg.dvs_steps)));
    cfg.v_low_fraction =
        cfg_args.get_double("v_low_fraction", cfg.v_low_fraction);
    cfg.time_scale = cfg_args.get_double("time_scale", cfg.time_scale);
    cfg.run_instructions = static_cast<std::uint64_t>(cfg_args.get_int(
        "run_instructions", static_cast<long long>(cfg.run_instructions)));
    cfg.warmup_instructions = static_cast<std::uint64_t>(
        cfg_args.get_int("warmup_instructions",
                         static_cast<long long>(cfg.warmup_instructions)));
    cfg.sensor.seed = static_cast<std::uint64_t>(
        cfg_args.get_int("seed", static_cast<long long>(cfg.sensor.seed)));
    const std::string campaign_path =
        cfg_args.get_string("fault_campaign", "");
    if (!campaign_path.empty()) {
      cfg.fault_campaign =
          fault::FaultCampaign::from_file(campaign_path,
                                          sim::sensor_names());
    }

    cfg.multicore.cores = static_cast<std::size_t>(
        cfg_args.get_int("cores", static_cast<long long>(cfg.multicore.cores)));
    // Intra-run width; never part of the result.
    const long long threads = cfg_args.get_int(
        "threads", static_cast<long long>(cfg.multicore.threads));
    if (threads < 0) throw std::invalid_argument("threads must be >= 0");
    cfg.multicore.threads = static_cast<std::size_t>(threads);
    cfg.multicore.workload_threads = static_cast<std::size_t>(
        cfg_args.get_int("workload_threads",
                         static_cast<long long>(
                             cfg.multicore.workload_threads)));
    cfg.multicore.per_core_dvs =
        cfg_args.get_bool("per_core_dvs", cfg.multicore.per_core_dvs);
    cfg.multicore.migration =
        cfg_args.get_bool("migration", cfg.multicore.migration);
    cfg.multicore.migration_policy.cost_cycles = static_cast<std::uint64_t>(
        cfg_args.get_int("migration_cost_cycles",
                         static_cast<long long>(
                             cfg.multicore.migration_policy.cost_cycles)));
    cfg.multicore.arbiter.die_budget = util::Watts(
        cfg_args.get_double("power_budget",
                            cfg.multicore.arbiter.die_budget.value()));
    cfg.thresholds.trigger = util::Celsius(cfg_args.get_double(
        "trigger", cfg.thresholds.trigger.value()));
    cfg.thresholds.emergency = util::Celsius(cfg_args.get_double(
        "emergency", cfg.thresholds.emergency.value()));
    if (cfg.thresholds.emergency.value() <= cfg.thresholds.trigger.value()) {
      throw std::runtime_error("emergency must be above trigger");
    }

    sim::PolicyParams params;
    params.hybrid.crossover_gate_fraction =
        cfg_args.get_double("crossover",
                            params.hybrid.crossover_gate_fraction);
    params.guarded = cfg_args.get_bool("guard", false);

    const std::string trace_path = cfg_args.get_string("trace", "");
    const std::string trace_csv_path = cfg_args.get_string(
        "trace_csv", cfg_args.get_string("trace-csv", ""));
    const std::string metrics_path = cfg_args.get_string("metrics", "");
    const std::string summary_path = cfg_args.get_string(
        "summary_json", cfg_args.get_string("summary-json", ""));
    const bool observe = !trace_path.empty() || !trace_csv_path.empty() ||
                         !metrics_path.empty() || !summary_path.empty();
    // Enable before the runner spawns its pool so workers register their
    // named trace lanes on startup.
    if (observe) obs::Observability::instance().enable_all();

    const sim::PolicyKind kind = parse_policy(policy_name);
    sim::ExperimentRunner runner(cfg);

    // Job supervision: deadline + transient-retry budget for every run.
    sim::RunCache::JobOptions job_opts;
    job_opts.timeout = util::Seconds(
        cfg_args.get_double("timeout_seconds", 0.0));
    job_opts.max_attempts = static_cast<int>(
        cfg_args.get_int("max_attempts", 1));
    if (job_opts.max_attempts < 1) {
      throw std::invalid_argument("max_attempts must be >= 1");
    }
    runner.set_job_options(job_opts);

    // Crash-safe persistence is opt-in: an explicit cache_dir key, or
    // the HYDRA_CACHE_DIR environment as the ambient default.
    sim::PersistentRunCache::Options store_opts =
        sim::PersistentRunCache::env_options();
    store_opts.dir = cfg_args.get_string(
        "cache_dir", cfg_args.get_string("cache-dir", store_opts.dir));
    if (!store_opts.dir.empty()) {
      runner.set_store(
          std::make_shared<sim::PersistentRunCache>(std::move(store_opts)));
    }

    std::vector<sim::PointSpec> points;
    if (bench == "all") {
      for (const auto& profile : workload::spec2000_hot_profiles()) {
        points.push_back({profile, kind, params, cfg});
      }
    } else {
      points.push_back({workload::spec2000_profile(bench), kind, params, cfg});
    }
    const std::vector<sim::ExperimentResult> results =
        runner.run_points(points);

    if (format == "json") {
      util::JsonWriter w(std::cout);
      w.begin_array();
      for (const auto& r : results) emit_json(w, r);
      w.end_array();
    } else if (format == "text") {
      util::AsciiTable table;
      const bool with_faults = !campaign_path.empty();
      const bool with_multicore = cfg.multicore.cores > 1;
      std::vector<std::string> header = {"benchmark", "policy", "slowdown",
                                         "Tmax[C]",   "safe",   "gate",
                                         "Vlow time", "switches"};
      if (with_multicore) {
        header.insert(header.end(),
                      {"cores", "migr", "spread[C]", "budget"});
      }
      if (with_faults) {
        header.insert(header.end(),
                      {"faulted", "rejected", "failsafe", "fault viol"});
      }
      table.header(header);
      for (const auto& r : results) {
        std::vector<std::string> row = {
            r.dtm.benchmark, r.dtm.policy,
            util::AsciiTable::num(r.slowdown, 4),
            util::AsciiTable::num(r.dtm.max_true_celsius, 2),
            r.dtm.thermally_safe() ? "yes" : "NO",
            util::AsciiTable::percent(r.dtm.mean_gate_fraction, 1),
            util::AsciiTable::percent(r.dtm.dvs_low_fraction, 1),
            std::to_string(r.dtm.dvs_transitions)};
        if (with_multicore) {
          row.insert(row.end(),
                     {std::to_string(r.dtm.cores),
                      std::to_string(r.dtm.thread_migrations),
                      util::AsciiTable::num(r.dtm.core_temp_spread_celsius, 2),
                      util::AsciiTable::percent(
                          r.dtm.budget_throttled_fraction, 1)});
        }
        if (with_faults) {
          row.insert(row.end(),
                     {std::to_string(r.dtm.faulted_samples),
                      std::to_string(r.dtm.sensor_rejections),
                      util::AsciiTable::percent(r.dtm.failsafe_fraction, 1),
                      util::AsciiTable::percent(
                          r.dtm.fault_violation_fraction, 2)});
        }
        table.row(row);
      }
      table.print(std::cout);
    } else {
      throw std::invalid_argument("unknown format '" + format + "'");
    }

    if (!trace_path.empty()) {
      auto out = open_or_throw(trace_path);
      obs::tracer().write_chrome_json(out);
    }
    if (!trace_csv_path.empty()) {
      auto out = open_or_throw(trace_csv_path);
      obs::tracer().write_csv(out);
    }
    if (!metrics_path.empty()) {
      auto out = open_or_throw(metrics_path);
      obs::metrics().write_csv(out);
    }
    if (!summary_path.empty()) {
      auto out = open_or_throw(summary_path);
      emit_summary(out, results, runner.cache_stats());
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hydra_run: " << e.what() << '\n';
    return 1;
  }
}
