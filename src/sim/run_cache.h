// Thread-safe memoization of completed simulation runs, with job
// supervision and an optional crash-safe disk tier.
//
// The experiment engine keys every (profile, policy kind, params,
// SimConfig) point by a content hash (see experiment.h) and computes it
// at most once per process: the first submission enqueues the run on the
// thread pool and publishes a shared future; later submissions — from
// any thread, any bench target — get the same future. Results are held
// as shared_ptr<const RunResult>, so callers that need stable addresses
// (ExperimentRunner::baseline returns references) can rely on entries
// never being evicted or reallocated for the cache's lifetime.
//
// Supervision (the fault-tolerance contract):
//   * A job that throws marks its future Failed; get() rethrows the
//     typed exception to exactly the callers joined on that key, and
//     sibling jobs are untouched (the pool contains the unwind).
//   * A Failed entry does not poison the key: the next submission of
//     the same key is treated as a miss and recomputes. (Previously a
//     throwing job left the broken future cached forever.)
//   * JobOptions adds a per-job deadline — enforced cooperatively via a
//     util::CancelToken handed to the job — and bounded retry with
//     doubling backoff for jobs that throw util::TransientError.
//   * With a PersistentRunCache attached, a miss first consults the
//     disk tier inside the job (so shard I/O parallelises across
//     workers) and publishes every fresh compute back to it.
//
// Jobs deliberately capture shared state rather than the RunCache
// itself: a caller may destroy the cache the moment get() returns while
// a sibling job is still in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <unordered_map>

#include "sim/system.h"
#include "util/cancel.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hydra::sim {

class PersistentRunCache;

class RunCache {
 public:
  using ResultPtr = std::shared_ptr<const RunResult>;
  using Future = std::shared_future<ResultPtr>;

  /// Per-job supervision knobs. The defaults mean "no supervision":
  /// no deadline, a single attempt.
  struct JobOptions {
    /// Wall-clock budget for one attempt; <= 0 disables the deadline.
    /// Enforced cooperatively — System::run polls the token per chunk —
    /// so an expired job unwinds with util::TimeoutError within one
    /// chunk, never by killing a thread.
    util::Seconds timeout{0.0};
    /// Total attempts for jobs that throw util::TransientError. Other
    /// exception types never retry (they are deterministic failures).
    int max_attempts = 1;
    /// Sleep before the first retry; doubles per retry, bounded.
    util::Seconds backoff{0.005};
  };

  struct Stats {
    std::uint64_t hits = 0;    ///< submissions served from the cache
    std::uint64_t misses = 0;  ///< submissions that enqueued a run
    std::uint64_t failures = 0;   ///< jobs whose final attempt threw
    std::uint64_t retries = 0;    ///< transient attempts retried
    std::uint64_t timeouts = 0;   ///< failures that were deadline expiries
    std::uint64_t computes = 0;   ///< attempts that invoked the job body
    std::uint64_t disk_hits = 0;    ///< misses served by the disk tier
    std::uint64_t disk_stores = 0;  ///< fresh results spilled to disk
  };

  /// Future for the run keyed by `key`. On a miss — including a cached
  /// entry whose job Failed — `compute` is enqueued on `pool` under the
  /// supervision in `opts`, and the (shared) future is published before
  /// returning, so concurrent submitters of the same key join one run.
  /// The job's CancelToken reports the per-attempt deadline; long runs
  /// must poll it (System::run does). Exceptions from the final attempt
  /// are rethrown from the future's get().
  Future submit(std::uint64_t key, util::ThreadPool& pool,
                std::function<RunResult(const util::CancelToken&)> compute,
                const JobOptions& opts);

  /// Attach the disk tier consulted/fed by misses. Affects only jobs
  /// enqueued after the call. Pass nullptr to detach.
  void set_store(std::shared_ptr<PersistentRunCache> store);

  Stats stats() const;

 private:
  /// Lifecycle of a cached entry, advanced by the job itself. Shared
  /// with the job via shared_ptr so it outlives the cache if needed.
  enum State : int { kInFlight = 0, kDone = 1, kFailed = 2 };

  struct Entry {
    Future future;
    std::shared_ptr<std::atomic<int>> state;
  };

  /// Counters the supervised job updates from worker threads. Heap-held
  /// and shared with every job for the same lifetime reason as State.
  struct SharedCounters {
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> computes{0};
    std::atomic<std::uint64_t> disk_hits{0};
    std::atomic<std::uint64_t> disk_stores{0};
  };

  mutable util::Mutex mu_;
  std::unordered_map<std::uint64_t, Entry> runs_ HYDRA_GUARDED_BY(mu_);
  Stats stats_ HYDRA_GUARDED_BY(mu_);
  std::shared_ptr<PersistentRunCache> store_ HYDRA_GUARDED_BY(mu_);
  // Not guarded: set once at construction, and the counters it points
  // to are atomics shared with in-flight jobs.
  std::shared_ptr<SharedCounters> counters_ =
      std::make_shared<SharedCounters>();
};

}  // namespace hydra::sim
