// Traced replay: per-layer cost of one simulation point, measured from
// outside the simulator.
//
// The real System / MulticoreSystem loop is a black box to the
// benchmark, so the traced run re-enacts its call pattern with the
// layers' public entry points and times each call:
//   workload  SyntheticTrace::next, filling a uop buffer
//   arch      Core::cycle / Core::idle_cycles, fed from that buffer
//   power     PowerModel::block_power_into, once per thermal interval
//   thermal   TransientSolver::step, once per thermal interval
//   sensor    SensorBank::sample_into, once per sensor period
//   core      DtmPolicy::update (from sim::make_policy), same period;
//             on a die also MigrationPolicy / BudgetArbiter per barrier
// The replay follows the simulator's event order step for step (chunk
// sizes, DVS transitions, clock-gate quanta, warm-up run-out, and on a
// die the migration stalls and the arbiter's floors), so its measured
// window is the real one: main.cc checks the replayed instruction,
// cycle, DVS-transition and migration counts against the direct run
// and counts any difference as a failed point.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace perfbench {

/// One timed interval. `parent` indexes the enclosing span (-1 at the
/// root); `point` is the simulation point the span belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t point = -1;
};

/// In-memory span log for one traced run. Spans nest strictly (the
/// replay is single-threaded), so a stack gives each span its parent.
class SpanRecorder {
 public:
  void set_point(std::int32_t point) { point_ = point; }

  std::int32_t begin(const char* name) {
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.point = point_;
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Self time (span minus the time its children cover) summed by name,
  /// in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Total span time summed by name, in seconds.
  std::map<std::string, double> total_seconds() const;

  /// One JSON object per line: name, start, end, parent, point.
  void write_jsonl(std::ostream& out) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t point_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.begin(name)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t id_;
};

/// Work counted during one replay.
struct ReplayCounts {
  std::uint64_t uops = 0;            ///< SyntheticTrace::next calls
  std::uint64_t exec_cycles = 0;     ///< Core::cycle calls
  std::uint64_t total_cycles = 0;    ///< executed + idle cycles
  std::uint64_t committed = 0;
  std::uint64_t power_calls = 0;
  std::uint64_t thermal_steps = 0;
  std::uint64_t sensor_samples = 0;
  std::uint64_t policy_updates = 0;
  // The measured window, comparable with the run's RunResult.
  std::uint64_t measured_instructions = 0;
  std::uint64_t measured_cycles = 0;
  std::uint64_t dvs_transitions = 0;
  std::uint64_t migrations = 0;

  ReplayCounts& operator+=(const ReplayCounts& o);
};

/// Replay one run (`kind` == kNone replays the no-DTM baseline under
/// sim::baseline_config(cfg)) and record its spans under one root span.
ReplayCounts replay_point(const hydra::workload::WorkloadProfile& profile,
                          hydra::sim::PolicyKind kind,
                          const hydra::sim::SimConfig& cfg,
                          SpanRecorder& rec);

}  // namespace perfbench
