#include "sim/run_cache.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "sim/persistent_cache.h"

namespace hydra::sim {

namespace {

// Retry backoff never sleeps longer than this per attempt, no matter
// how many doublings max_attempts allows.
constexpr double kMaxBackoffSeconds = 0.25;

}  // namespace

RunCache::Future RunCache::submit(
    std::uint64_t key, util::ThreadPool& pool,
    std::function<RunResult(const util::CancelToken&)> compute,
    const JobOptions& opts) {
  Future future;
  {
    const util::LockGuard lock(mu_);
    static const obs::Counter hit_counter =
        obs::metrics().counter("run_cache.hits");
    static const obs::Counter miss_counter =
        obs::metrics().counter("run_cache.misses");
    auto it = runs_.find(key);
    if (it != runs_.end() &&
        it->second.state->load(std::memory_order_acquire) != kFailed) {
      ++stats_.hits;
      hit_counter.add();
      return it->second.future;
    }
    // Either a true miss or a Failed entry: recompute. Replacing a
    // Failed entry is what keeps one bad attempt from poisoning the key
    // for the rest of the process.
    ++stats_.misses;
    miss_counter.add();
    auto promise = std::make_shared<std::promise<ResultPtr>>();
    auto state = std::make_shared<std::atomic<int>>(kInFlight);
    future = promise->get_future().share();
    runs_.insert_or_assign(key, Entry{future, state});
    // The job captures shared state only — never `this`. The submitter
    // may destroy the RunCache as soon as get() returns while sibling
    // jobs are still draining.
    pool.submit([promise = std::move(promise), state = std::move(state),
                 counters = counters_, store = store_, key,
                 compute = std::move(compute), opts]() mutable {
      // Disk tier first: done inside the job so the submit path never
      // blocks on disk, and shard file reads (which the store performs
      // outside its index lock) parallelise across workers.
      if (store) {
        if (ResultPtr from_disk = store->load(key)) {
          counters->disk_hits.fetch_add(1, std::memory_order_relaxed);
          state->store(kDone, std::memory_order_release);
          promise->set_value(std::move(from_disk));
          return;
        }
      }
      // Clamp the caller-supplied initial backoff too: the sleep runs
      // on a pool worker, so even the first retry must respect the cap.
      double backoff_s = std::min(opts.backoff.value(), kMaxBackoffSeconds);
      for (int attempt = 1;; ++attempt) {
        try {
          util::CancelToken token;
          if (opts.timeout.value() > 0.0) {
            token.set_deadline_after(opts.timeout);
          }
          counters->computes.fetch_add(1, std::memory_order_relaxed);
          auto result = std::make_shared<const RunResult>(compute(token));
          // Spill BEFORE unblocking waiters: once get() returns, the
          // caller may treat the result as durable (kill the process,
          // restart warm), so the entry must already be on disk. A
          // disk-tier problem must never fail a run whose compute
          // succeeded, so the spill gets its own containment: save()
          // absorbs ordinary stream errors itself, and anything that
          // still escapes (bad_alloc during serialization,
          // filesystem_error from path construction) just leaves the
          // run memory-only.
          if (store) {
            try {
              store->save(key, *result);
              counters->disk_stores.fetch_add(1, std::memory_order_relaxed);
            } catch (...) {
              static const obs::Counter spill_failures =
                  obs::metrics().counter("run_cache.disk_spill_failures");
              spill_failures.add();
            }
          }
          state->store(kDone, std::memory_order_release);
          promise->set_value(result);
          return;
        } catch (const util::TransientError&) {
          if (attempt < opts.max_attempts) {
            counters->retries.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff_s));
            backoff_s = std::min(backoff_s * 2.0, kMaxBackoffSeconds);
            continue;
          }
          counters->failures.fetch_add(1, std::memory_order_relaxed);
          state->store(kFailed, std::memory_order_release);
          promise->set_exception(std::current_exception());
          return;
        } catch (const util::TimeoutError&) {
          static const obs::Counter timeout_counter =
              obs::metrics().counter("run_cache.job_timeouts");
          timeout_counter.add();
          counters->timeouts.fetch_add(1, std::memory_order_relaxed);
          counters->failures.fetch_add(1, std::memory_order_relaxed);
          state->store(kFailed, std::memory_order_release);
          promise->set_exception(std::current_exception());
          return;
        } catch (...) {
          static const obs::Counter failure_counter =
              obs::metrics().counter("run_cache.job_failures");
          failure_counter.add();
          counters->failures.fetch_add(1, std::memory_order_relaxed);
          state->store(kFailed, std::memory_order_release);
          promise->set_exception(std::current_exception());
          return;
        }
      }
    });
  }
  return future;
}

void RunCache::set_store(std::shared_ptr<PersistentRunCache> store) {
  const util::LockGuard lock(mu_);
  store_ = std::move(store);
}

RunCache::Stats RunCache::stats() const {
  Stats s;
  {
    const util::LockGuard lock(mu_);
    s = stats_;
  }
  s.failures = counters_->failures.load(std::memory_order_relaxed);
  s.retries = counters_->retries.load(std::memory_order_relaxed);
  s.timeouts = counters_->timeouts.load(std::memory_order_relaxed);
  s.computes = counters_->computes.load(std::memory_order_relaxed);
  s.disk_hits = counters_->disk_hits.load(std::memory_order_relaxed);
  s.disk_stores = counters_->disk_stores.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hydra::sim
