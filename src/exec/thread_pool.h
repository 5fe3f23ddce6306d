// Dependency-free fixed-size thread pool.
//
// Two layers run on it: the TRIAL loop (exec/parallel_trials.h) —
// independent seeded run_broadcast calls that share nothing but the
// (const) graph and protocol factory — and the step engine's intra-step
// sharding (sim/soa_engine.h, run_options::step_threads), which forks one
// step's phase 1 and phase 2 over a run-lifetime pool and merges the
// shards in order. This pool is the minimal substrate for both:
//
//   * a fixed set of workers created up front (no growth, no work stealing);
//   * submit() enqueues a task, wait_idle() blocks until every submitted
//     task has finished;
//   * tasks must not throw — callers that can fail wrap their body in
//     try/catch and carry the first std::exception_ptr back to the
//     submitting thread (see exec/parallel_trials.cpp).
//
// Thread-count resolution for the whole library also lives here:
// `resolve_threads` turns a requested count (e.g. trial_options::threads)
// into an actual one, honoring the RADIOCAST_THREADS environment default.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace radiocast::exec {

/// max(1, std::thread::hardware_concurrency()) — never 0, even when the
/// platform cannot report a count.
int hardware_threads();

/// The RADIOCAST_THREADS environment default: a positive integer enables
/// that many workers, "0" or "auto" means hardware_threads(), and an
/// unset/empty/unparsable value means 1 (serial — the safe default).
int env_threads();

/// Resolves a requested thread count: `requested` > 0 is taken literally,
/// `requested` == 0 defers to env_threads(). Negative counts are a
/// precondition violation. The result is always ≥ 1.
int resolve_threads(int requested);

/// Worker threads spawned by every thread_pool in this process so far —
/// lets tests count the pools a code path builds.
std::int64_t threads_spawned();

/// Fixed-size worker pool. Construction spawns the workers; destruction
/// drains the queue and joins them.
class thread_pool {
 public:
  /// Spawns `threads` ≥ 1 workers.
  explicit thread_pool(int threads);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw (wrap fallible work and carry
  /// an exception_ptr out instead); a task that does throw terminates the
  /// process, which is the least-surprising failure mode for a worker.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed. The pool is
  /// reusable afterwards: submit/wait_idle rounds can repeat.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task ready / stop
  std::condition_variable idle_cv_;  // signals wait_idle: everything done
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently running tasks
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace radiocast::exec
