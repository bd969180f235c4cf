// Heap-allocation budget of a warm simulated step. Every launch of the
// simulated machine used to allocate (core sets, mask rebuilds, the policy's
// batch vector, trace growth) — over 15,000 allocations per ResNet-50 step.
// The step loop, the admission policy and SimMachine now reuse their
// buffers, so once a step has run, the next one allocates only a fixed
// handful of per-step objects (the result vector, its traces, the ready
// trackers), independent of the op count. This binary replaces the global
// operator new with a per-thread counter (testing/alloc_counter.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/runtime.hpp"
#include "models/zoo.hpp"
#include "testing/alloc_counter.hpp"

namespace opsched {
namespace {

using testing::thread_allocations;

/// A warm step may allocate at most this much, whatever its op count
/// (resnet50_host has 733 ops; four tenants launch 2,932).
constexpr std::uint64_t kStepBudget = 32;

class SimAllocTest : public ::testing::Test {
 protected:
  SimAllocTest() : graph_(models::build_resnet50_host()), rt_(MachineSpec::knl()) {
    rt_.profile(graph_);
  }

  Graph graph_;
  Runtime rt_;
};

TEST_F(SimAllocTest, CounterSeesAllocations) {
  const std::uint64_t before = thread_allocations();
  auto* p = new int(7);
  std::vector<int> v(16);
  EXPECT_EQ(thread_allocations() - before, 2u);
  delete p;
}

TEST_F(SimAllocTest, WarmSingleTenantStepStaysWithinBudget) {
  for (int warm = 0; warm < 2; ++warm) (void)rt_.run_step(graph_);

  const std::uint64_t before = thread_allocations();
  const StepResult r = rt_.run_step(graph_);
  const std::uint64_t allocations = thread_allocations() - before;

  EXPECT_EQ(r.ops_run, graph_.size());
  EXPECT_LE(allocations, kStepBudget)
      << allocations << " allocations for " << r.ops_run << " launches";
}

TEST_F(SimAllocTest, WarmFourTenantStepStaysWithinBudget) {
  const std::vector<const Graph*> graphs(4, &graph_);
  TenantSet set;
  set.ids = {7, 3, 11, 5};
  set.weights = {1.0, 2.0, 1.0, 1.0};
  for (int warm = 0; warm < 2; ++warm) (void)rt_.run_step_multi(graphs, set);

  const std::uint64_t before = thread_allocations();
  const std::vector<StepResult> r = rt_.run_step_multi(graphs, set);
  const std::uint64_t allocations = thread_allocations() - before;

  std::size_t launches = 0;
  for (const StepResult& s : r) launches += s.ops_run;
  EXPECT_EQ(launches, 4 * graph_.size());
  EXPECT_LE(allocations, kStepBudget)
      << allocations << " allocations for " << launches << " launches";
}

}  // namespace
}  // namespace opsched
