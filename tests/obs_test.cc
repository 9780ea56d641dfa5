// Observability layer: metrics correctness under concurrency, trace
// export well-formedness, and the hot-path contracts (disabled and
// warmed-enabled record calls are allocation-free). The same allocation
// counter also pins the engine's contracts: a warmed thermal step and a
// repeated System::run() make no heap allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "floorplan/ev7.h"
#include "floorplan/multicore.h"
#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/multicore.h"
#include "sim/system.h"
#include "thermal/model_builder.h"
#include "thermal/solver.h"
#include "workload/spec_profiles.h"

// Global allocation counter so the hot-path tests can assert record
// calls and warmed engine paths never allocate.
static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hydra::obs {
namespace {

std::uint64_t allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

TEST(Metrics, CounterConcurrentIncrements) {
  Registry reg;
  reg.set_enabled(true);
  const Counter c = reg.counter("test.hits");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();

  const MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "test.hits");
  EXPECT_EQ(snap.counters[0].second, kThreads * kPerThread);
}

TEST(Metrics, CounterHandleIsSharedByName) {
  Registry reg;
  reg.set_enabled(true);
  const Counter a = reg.counter("same");
  const Counter b = reg.counter("same");
  a.add(2);
  b.add(3);
  const MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 5u);
}

TEST(Metrics, HistogramBucketsAndConcurrentRecords) {
  Registry reg;
  reg.set_enabled(true);
  const Histogram h = reg.histogram("test.latency", {1.0, 2.0, 4.0});

  // Deterministic bucket placement: v lands in the first bucket with
  // v <= bound; past the last bound it lands in the overflow bucket.
  h.record(0.5);  // bucket 0
  h.record(1.0);  // bucket 0 (inclusive upper bound)
  h.record(1.5);  // bucket 1
  h.record(3.0);  // bucket 2
  h.record(9.0);  // overflow
  MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  ASSERT_EQ(hs.buckets.size(), 4u);
  EXPECT_EQ(hs.buckets[0], 2u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[2], 1u);
  EXPECT_EQ(hs.buckets[3], 1u);
  EXPECT_EQ(hs.count, 5u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.5 + 1.0 + 1.5 + 3.0 + 9.0);

  // Concurrent records merge exactly once threads have quiesced.
  reg.reset();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(i % 8));
      }
    });
  }
  for (auto& w : workers) w.join();
  snap = reg.scrape();
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
}

TEST(Metrics, HistogramReboundThrows) {
  Registry reg;
  (void)reg.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW((void)reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW((void)reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("empty", {}), std::invalid_argument);
}

TEST(Metrics, GaugeLastWriterWins) {
  Registry reg;
  reg.set_enabled(true);
  const Gauge g = reg.gauge("test.width");
  g.set(4.0);
  g.set(8.0);
  const MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 8.0);
}

// The reason the layer can be compiled into every hot loop: with the
// registry/tracer disabled, record calls are a relaxed load + branch and
// must never allocate.
TEST(Metrics, DisabledRecordPathIsAllocationFree) {
  Registry reg;
  const Counter c = reg.counter("off.counter");
  const Histogram h = reg.histogram("off.hist", {1.0, 10.0});
  const Gauge g = reg.gauge("off.gauge");
  ASSERT_FALSE(reg.enabled());

  const std::uint64_t before = allocs();
  for (int i = 0; i < 100'000; ++i) {
    c.add();
    h.record(static_cast<double>(i));
    g.set(static_cast<double>(i));
  }
  EXPECT_EQ(allocs() - before, 0u);
}

// Enabled counters stay allocation-free too once the calling thread has
// recorded once (first record registers the thread's shard).
TEST(Metrics, EnabledWarmedRecordPathIsAllocationFree) {
  Registry reg;
  reg.set_enabled(true);
  const Counter c = reg.counter("on.counter");
  const Histogram h = reg.histogram("on.hist", {1.0, 10.0});
  c.add();          // warm: registers this thread's shard
  h.record(1.0);

  const std::uint64_t before = allocs();
  for (int i = 0; i < 100'000; ++i) {
    c.add();
    h.record(static_cast<double>(i));
  }
  EXPECT_EQ(allocs() - before, 0u);

  const MetricsSnapshot snap = reg.scrape();
  EXPECT_EQ(snap.counters[0].second, 100'001u);
}

TEST(Trace, DisabledRecordPathIsAllocationFree) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100'000; ++i) {
    tracer.instant(0, TimeDomain::kSim, "cat", "ev", 1.0);
    tracer.counter(0, TimeDomain::kSim, "track", 1.0, 2.0);
    const ScopedSpan span(tracer, "cat", "span");
  }
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(tracer.size(), 0u);
}

struct StepAllocs {
  std::uint64_t allocs = 0;
  bool sparse = false;  ///< the solver stepped through sparse LDL^T
};

/// Heap allocations over 1000 warmed steps of a solver on `fp`'s model
/// (the first step factorises or builds the operator for this dt).
StepAllocs warmed_step_allocs(const floorplan::Floorplan& fp,
                              thermal::Scheme scheme) {
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  thermal::TransientSolver solver(model.network, util::Celsius(45.0), scheme);
  thermal::Vector power(model.network.size(), 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 1.5;
  const util::Seconds dt(3.3e-6);
  solver.step(power, dt);
  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) solver.step(power, dt);
  return {allocs() - before, solver.sparse_path()};
}

TEST(AllocationContract, BackwardEulerStep28Nodes) {
  const StepAllocs r = warmed_step_allocs(floorplan::ev7_floorplan(),
                                          thermal::Scheme::kBackwardEuler);
  EXPECT_EQ(r.allocs, 0u);
  EXPECT_FALSE(r.sparse);
}

TEST(AllocationContract, FusedStep28Nodes) {
  const StepAllocs r = warmed_step_allocs(floorplan::ev7_floorplan(),
                                          thermal::Scheme::kFusedBE);
  EXPECT_EQ(r.allocs, 0u);
  EXPECT_FALSE(r.sparse);
}

// The 298-node 16-core die is past the crossover: kFusedBE steps sparse.
TEST(AllocationContract, FusedStepSparse16CoreDie) {
  const StepAllocs r = warmed_step_allocs(floorplan::multicore_floorplan(16),
                                          thermal::Scheme::kFusedBE);
  EXPECT_EQ(r.allocs, 0u);
  EXPECT_TRUE(r.sparse);
}

// Scratch buffers, accumulators and the thermal fixed point reuse member
// storage, so a second run of the same System allocates nothing.
TEST(AllocationContract, SecondSystemRun) {
  sim::SimConfig cfg;
  cfg.run_instructions = 120'000;
  cfg.warmup_instructions = 40'000;
  sim::System system(workload::spec2000_profile("gzip"), cfg, nullptr);
  system.run();
  const std::uint64_t before = allocs();
  system.run();
  EXPECT_EQ(allocs() - before, 0u);
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// string literals, with escape handling. Catches truncated or
/// mis-nested output without a JSON parser dependency.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != ch) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

TEST(Trace, ChromeJsonWellFormed) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t sim = tracer.new_lane("gzip/Hyb", TimeDomain::kSim);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "policy_engage", 10.0,
                 "gate", 0.5);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "dvs_transition_start", 20.0,
                 "from_level", 0.0, "to_level", 1.0);
  tracer.counter(sim, TimeDomain::kSim, "Tmax_celsius", 30.0, 82.5);
  { const ScopedSpan span(tracer, "system", "measure", "gzip \"quoted\""); }
  ASSERT_EQ(tracer.size(), 4u);

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();

  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("policy_engage"), std::string::npos);
  EXPECT_NE(json.find("dvs_transition_start"), std::string::npos);
  EXPECT_NE(json.find("Tmax_celsius"), std::string::npos);
  // The dynamic label (with its embedded quotes escaped) replaces the
  // span's static name.
  EXPECT_NE(json.find("gzip \\\"quoted\\\""), std::string::npos);
  // Lane metadata names the sim process.
  EXPECT_NE(json.find("gzip/Hyb"), std::string::npos);
}

TEST(Trace, CsvHasOneRowPerEvent) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t sim = tracer.new_lane("lane", TimeDomain::kSim);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "a", 1.0);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "b", 2.0);
  std::ostringstream out;
  tracer.write_csv(out);
  const std::string csv = out.str();
  std::size_t rows = 0;
  for (const char ch : csv) rows += ch == '\n';
  EXPECT_EQ(rows, 3u);  // header + 2 events
}

TEST(Trace, ClearDropsEventsAndKeepsLanes) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t sim = tracer.new_lane("lane", TimeDomain::kSim);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "a", 1.0);
  EXPECT_EQ(tracer.size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "b", 2.0);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Trace, ConcurrentRecordingLosesNothingOnceJoined) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.instant(0, TimeDomain::kSim, "cat", "ev",
                       static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// Die tiles run the single-core engine's actuation code, so a traced
// many-core run records DTM events on the per-tile "/c<t>" lanes.
TEST(SimTrace, MulticoreTilesRecordDtmEvents) {
  sim::SimConfig cfg;
  cfg.time_scale = 150.0;
  cfg.thermal_interval_cycles = 2'000;
  cfg.warmup_instructions = 300'000;
  cfg.run_instructions = 400'000;
  cfg.thresholds.trigger = util::Celsius(70.0);
  cfg.thresholds.emergency = util::Celsius(74.0);
  cfg.multicore.cores = 2;
  cfg.multicore.threads = 1;
  const sim::PolicyFactory hyb = [cfg] {
    return sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg);
  };
  sim::MulticoreSystem system(workload::spec2000_profile("crafty"), cfg, hyb,
                              "Hyb");
  Tracer& tr = tracer();
  tr.clear();
  tr.set_enabled(true);
  system.run();
  tr.set_enabled(false);
  std::ostringstream out;
  tr.write_csv(out);
  tr.clear();

  std::istringstream rows(out.str());
  std::size_t tile_dtm_events = 0;
  for (std::string row; std::getline(rows, row);) {
    if (row.find("/Hyb/c") == std::string::npos) continue;
    if (row.find(",fetch_gate_duty,") != std::string::npos ||
        row.find(",policy_engage,") != std::string::npos) {
      ++tile_dtm_events;
    }
  }
  EXPECT_GT(tile_dtm_events, 0u);
}

TEST(SimLane, ScopeNestsAndRestores) {
  EXPECT_EQ(SimLaneScope::current(), SimLaneScope::kNoLane);
  {
    SimLaneScope outer(3);
    EXPECT_EQ(SimLaneScope::current(), 3u);
    {
      SimLaneScope inner(7);
      EXPECT_EQ(SimLaneScope::current(), 7u);
    }
    EXPECT_EQ(SimLaneScope::current(), 3u);
  }
  EXPECT_EQ(SimLaneScope::current(), SimLaneScope::kNoLane);
}

}  // namespace
}  // namespace hydra::obs
