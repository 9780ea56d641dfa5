// Near-zero-overhead metrics: counters and fixed-bucket histograms
// behind small value handles.
//
// Hot-path contract (the reason this exists instead of a mutex + map):
//  * record calls never allocate and never take a lock — each thread
//    writes its own shard of relaxed atomics, registered once per
//    (thread, registry) the first time that thread records;
//  * when the registry is disabled (the default) every record call is a
//    single relaxed atomic load and a branch, so instrumented hot loops
//    cost ~nothing in ordinary runs and stay allocation-free;
//  * scrape() merges the shards under the registry mutex; it is exact
//    once recording threads have quiesced (futures joined, pool idle)
//    and a consistent under-estimate while they are still running.
//
// Handles are registered by name (find-or-create, cheap but locking) and
// are meant to be cached in function-local statics at the call site:
//
//   static const obs::Counter hits =
//       obs::metrics().counter("run_cache.hits");
//   hits.add();
//
// Capacities are fixed (kMaxCounters etc.) so shards are flat arrays and
// the record path never chases a resizable container; registration past
// capacity throws.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace hydra::obs {

class Registry;

/// Monotone event count. add() is wait-free and allocation-free.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration
/// (value v lands in the first bucket with v <= bound, or the implicit
/// overflow bucket). record() is wait-free and allocation-free.
class Histogram {
 public:
  Histogram() = default;
  void record(double v) const;

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Merged view of one histogram (buckets.size() == bounds.size() + 1;
/// the final bucket is the overflow bucket).
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time merge of every metric in a registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;
};

class Registry {
 public:
  static constexpr std::size_t kMaxCounters = 256;
  static constexpr std::size_t kMaxHistograms = 32;
  /// Finite bucket bounds per histogram (one overflow bucket is added).
  static constexpr std::size_t kMaxBounds = 15;

  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Find-or-register by name. Registration locks and may allocate;
  /// cache the returned handle (it stays valid for the registry's
  /// lifetime). Throws std::length_error past capacity and
  /// std::invalid_argument when a histogram is re-registered with
  /// different bounds or `bounds` is empty/unsorted/too long.
  Counter counter(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot scrape() const;

  /// Flat CSV of the scrape: `kind,name,field,value` rows (counters one
  /// row each; histograms one row per bucket plus count/sum).
  void write_csv(std::ostream& out) const;

  /// Zero every value. Handles stay registered and valid. Only call
  /// while recording threads are quiesced.
  void reset();

 private:
  friend class Counter;
  friend class Histogram;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<std::atomic<std::uint64_t>,
               kMaxHistograms * (kMaxBounds + 1)>
        hist_buckets{};
    std::array<std::atomic<double>, kMaxHistograms> hist_sums{};
  };

  /// This thread's shard, registering it on first use. Never called on
  /// the disabled path.
  Shard& local_shard();

  void add_counter(std::uint32_t id, std::uint64_t n);
  void record_histogram(std::uint32_t id, double v);

  const std::uint64_t serial_;  ///< distinguishes registries in TLS caches

  std::atomic<bool> enabled_{false};

  /// Registration and reset write (WriterLock); scrape reads
  /// (ReaderLock) — scrapes from concurrent observers never serialize
  /// against each other, only against registration.
  mutable util::SharedMutex mu_;
  std::vector<std::string> counter_names_ HYDRA_GUARDED_BY(mu_);
  std::vector<std::string> hist_names_ HYDRA_GUARDED_BY(mu_);
  // Deliberately unguarded: written exactly once at registration,
  // before the Histogram handle escapes, then read lock-free by
  // record_histogram on the hot path (the handle is the happens-before
  // edge — a thread can only record through a handle it was given).
  std::array<std::array<double, kMaxBounds>, kMaxHistograms> hist_bounds_{};
  std::array<std::size_t, kMaxHistograms> hist_bound_count_{};
  std::vector<std::unique_ptr<Shard>> shards_ HYDRA_GUARDED_BY(mu_);
};

}  // namespace hydra::obs
