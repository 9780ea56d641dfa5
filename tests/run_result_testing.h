// RunResult equality for tests: two results are identical when their
// persistent-format bytes (serialize_run_result) are equal — the check
// perfbench makes against its references, so every field counts. On a
// mismatch the assertion names each differing field.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/persistent_cache.h"
#include "sim/system.h"

namespace hydra::sim {

/// Every RunResult field as (name, printed value), in serialization
/// order; doubles print at round-trip precision.
inline std::vector<std::pair<std::string, std::string>> run_result_fields(
    const RunResult& r) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto add = [&out](const char* name, const auto& value) {
    std::ostringstream os;
    os.precision(17);
    os << value;
    out.emplace_back(name, os.str());
  };
  add("benchmark", r.benchmark);
  add("policy", r.policy);
  add("wall_seconds", r.wall_seconds);
  add("instructions", r.instructions);
  add("cycles", r.cycles);
  add("ipc", r.ipc);
  add("max_true_celsius", r.max_true_celsius);
  add("violation_fraction", r.violation_fraction);
  add("above_trigger_fraction", r.above_trigger_fraction);
  add("dvs_transitions", r.dvs_transitions);
  add("mean_gate_fraction", r.mean_gate_fraction);
  add("mean_issue_gate_fraction", r.mean_issue_gate_fraction);
  add("dvs_low_fraction", r.dvs_low_fraction);
  add("clock_gated_fraction", r.clock_gated_fraction);
  add("mean_power_watts", r.mean_power_watts);
  add("hottest_block", r.hottest_block);
  add("hottest_mean_celsius", r.hottest_mean_celsius);
  add("idle_skip_fraction", r.idle_skip_fraction);
  add("solver_guard_trips", r.solver_guard_trips);
  add("faulted_samples", r.faulted_samples);
  add("sensor_rejections", r.sensor_rejections);
  add("quarantine_entries", r.quarantine_entries);
  add("failsafe_fraction", r.failsafe_fraction);
  add("fault_window_fraction", r.fault_window_fraction);
  add("fault_violation_fraction", r.fault_violation_fraction);
  add("cores", r.cores);
  add("thread_migrations", r.thread_migrations);
  add("core_temp_spread_celsius", r.core_temp_spread_celsius);
  add("budget_throttled_fraction", r.budget_throttled_fraction);
  return out;
}

/// EXPECT_TRUE(identical_run_results(a, b)): byte equality of the
/// serialized results, with a per-field diff as the failure message.
inline ::testing::AssertionResult identical_run_results(const RunResult& a,
                                                        const RunResult& b) {
  if (serialize_run_result(a) == serialize_run_result(b)) {
    return ::testing::AssertionSuccess();
  }
  const auto fa = run_result_fields(a);
  const auto fb = run_result_fields(b);
  ::testing::AssertionResult failure = ::testing::AssertionFailure();
  failure << "serialized RunResults differ:";
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i].second != fb[i].second) {
      failure << "\n  " << fa[i].first << ": " << fa[i].second << " vs "
              << fb[i].second;
    }
  }
  return failure;
}

}  // namespace hydra::sim
