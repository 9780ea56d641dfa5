#include "util/thread_pool.h"

#include <cstdlib>

namespace hydra::util {

namespace {
std::atomic<void (*)(std::size_t)> g_worker_start_hook{nullptr};
}  // namespace

void ThreadPool::set_worker_start_hook(void (*hook)(std::size_t)) {
  g_worker_start_hook.store(hook, std::memory_order_release);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    // Pair the flag with the sleep mutex so no worker can re-check the
    // predicate and block between our store and the notify.
    const LockGuard lock(sleep_mu_);
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  const std::size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    // Bind the queue once so the lock expression and the guarded access
    // name the same object — the analysis matches capabilities by
    // expression, not by value.
    Queue& target = *queues_[q];
    const LockGuard lock(target.mu);
    target.jobs.push_back(std::move(job));
  }
  pending_.fetch_add(1, std::memory_order_release);
  wake_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& job) {
  // Own deque first (front = submission order)...
  {
    Queue& own = *queues_[self];
    const LockGuard lock(own.mu);
    if (!own.jobs.empty()) {
      job = std::move(own.jobs.front());
      own.jobs.pop_front();
      return true;
    }
  }
  // ...then steal from the back of a sibling's.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    Queue& victim = *queues_[(self + k) % queues_.size()];
    const LockGuard lock(victim.mu);
    if (!victim.jobs.empty()) {
      job = std::move(victim.jobs.back());
      victim.jobs.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  if (auto* hook = g_worker_start_hook.load(std::memory_order_acquire)) {
    hook(self);
  }
  while (true) {
    std::function<void()> job;
    if (try_pop(self, job)) {
      pending_.fetch_sub(1, std::memory_order_acquire);
      // Contain anything that escapes a raw job: letting it propagate
      // would std::terminate the process and take every sibling job
      // down with it. Supervised work (RunCache, async) captures its
      // own exceptions and reports them through futures; this is the
      // backstop for everything else, and it keeps the worker alive.
      try {
        job();
      } catch (...) {
      }
      continue;
    }
    LockGuard lock(sleep_mu_);
    // The predicate reads only atomics, so it is safe under the lambda-
    // body analysis (lambdas are checked as separate functions).
    wake_.wait(lock, [this] {
      return stop_.load() || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load() && pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  struct BarrierState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    Mutex mu;
    CondVar all_done;
    std::exception_ptr first_error HYDRA_GUARDED_BY(mu);
  };
  const auto state = std::make_shared<BarrierState>();
  const std::size_t total = n;
  const auto drain = [state, total, &fn] {
    for (;;) {
      const std::size_t i =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        fn(i);
      } catch (...) {
        const LockGuard lock(state->mu);
        if (!state->first_error) {
          state->first_error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total) {
        // Pair with the mutex so the waiter cannot re-check the
        // predicate and block between our increment and the notify.
        { const LockGuard lock(state->mu); }
        state->all_done.notify_all();
      }
    }
  };
  // Helpers reference fn, which outlives them: every helper job has
  // finished claiming before the barrier below releases the caller, and
  // a job that loses the race entirely (next already >= total) touches
  // only `state`, which it co-owns.
  const std::size_t helpers = std::min(total - 1, size());
  for (std::size_t h = 0; h < helpers; ++h) submit(drain);
  drain();  // the caller claims too — the no-deadlock guarantee
  {
    LockGuard lock(state->mu);
    state->all_done.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == total;
    });
    if (state->first_error) std::rethrow_exception(state->first_error);
  }
}

std::size_t ThreadPool::configured_width() {
  if (const char* env = std::getenv("HYDRA_THREADS");
      env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_width());
  return pool;
}

}  // namespace hydra::util
