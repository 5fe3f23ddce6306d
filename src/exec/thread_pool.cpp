#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/assert.h"

namespace radiocast::exec {

namespace {
std::atomic<std::int64_t> g_threads_spawned{0};
}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int env_threads() {
  const char* env = std::getenv("RADIOCAST_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const std::string value(env);
  if (value == "auto") return hardware_threads();
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || parsed < 0) return 1;
  if (parsed == 0) return hardware_threads();
  return static_cast<int>(parsed);
}

int resolve_threads(int requested) {
  RC_REQUIRE_MSG(requested >= 0,
                 "thread count must be >= 0 (0 = RADIOCAST_THREADS default)");
  return requested > 0 ? requested : env_threads();
}

std::int64_t threads_spawned() { return g_threads_spawned.load(); }

thread_pool::thread_pool(int threads) {
  RC_REQUIRE(threads >= 1);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  g_threads_spawned += threads;
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void thread_pool::submit(std::function<void()> task) {
  RC_REQUIRE(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    RC_CHECK_MSG(!stop_, "submit on a stopping thread_pool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void thread_pool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace radiocast::exec
