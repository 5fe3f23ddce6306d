// The sharded step loop must not heap-allocate per step.
//
// This executable replaces the global operator new with a counting one, so
// it lives apart from the other suites. It runs the same sharded Decay
// broadcast capped at 100 and at 200 steps: setup allocates the same in
// both, so the difference is what the extra 100 steps allocate. A fork/join
// that wrapped each phase's shard body in a heap-allocated callable would
// cost about two allocations per step here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/runner.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

// Every replaceable form whose default would pair with another allocator's
// delete (std::inplace_merge, for one, uses the nothrow form); the array
// and aligned forms keep their defaults, which pair among themselves.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace radiocast {
namespace {

TEST(StepAllocTest, ShardedStepsDoNotAllocatePerStep) {
  rng gen(7);
  const graph g = make_gnp_connected(4000, 0.01, gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);

  struct counted {
    std::int64_t steps = 0;
    std::int64_t allocations = 0;
  };
  const auto run_capped = [&](std::int64_t cap) {
    run_options opts;
    opts.max_steps = cap;
    opts.step_threads = 2;
    opts.step_shard_grain = 1;
    const std::int64_t before = g_allocations.load();
    const run_result r = run_broadcast(g, *proto, opts);
    return counted{r.steps, g_allocations.load() - before};
  };

  const counted at_100 = run_capped(100);
  const counted at_200 = run_capped(200);
  // The longer run really steps on: this broadcast completes at step 199.
  ASSERT_EQ(at_100.steps, 100);
  ASSERT_GE(at_200.steps - at_100.steps, 90);
  EXPECT_LT(at_200.allocations - at_100.allocations, 50)
      << "allocations: " << at_100.allocations << " over " << at_100.steps
      << " steps, " << at_200.allocations << " over " << at_200.steps;
}

}  // namespace
}  // namespace radiocast
