// HostCorunExecutor + HostGraphProgram: the native execution path.
//  - numerical equivalence: a scheduled (parallel, co-run) step's outputs
//    match a fully serial reference execution bit-for-bit;
//  - determinism: the step checksum is identical across repeated runs and
//    across scheduling policies;
//  - structure: every op runs exactly once, co-runs actually happen, and
//    the trace is well formed.
#include "core/host_corun.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "core/runtime.hpp"
#include "models/models.hpp"
#include "ops/reference.hpp"

namespace opsched {
namespace {

/// Thread ids of this process, from /proc/self/task (Linux only).
std::set<std::string> live_threads() {
  std::set<std::string> tids;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec))
    tids.insert(it->path().filename().string());
  return tids;
}

class HostCorunTest : public ::testing::Test {
 protected:
  /// Host-profiled runtime over the given program's graph.
  std::unique_ptr<Runtime> make_runtime(HostGraphProgram& program,
                                        unsigned strategies = kStrategyAll) {
    RuntimeOptions opt;
    opt.strategies = strategies;
    auto rt = std::make_unique<Runtime>(MachineSpec::knl(), opt);
    rt->profile_host(program, /*repeats=*/1);
    return rt;
  }
};

TEST_F(HostCorunTest, RunsEveryOpOnceWithWellFormedTrace) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  const StepResult r = rt->run_step_host(program);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_EQ(r.trace.size(), 2 * g.size());
  EXPECT_GT(r.time_ms, 0.0);
  EXPECT_TRUE(std::isfinite(r.checksum));
  EXPECT_NE(r.checksum, 0.0);
}

TEST_F(HostCorunTest, WideLayersCoRunOnAMultiCoreMap) {
  // Single-core CI hosts cannot co-run for real, so schedule over a
  // virtual 4-core map: widths stay the controller's, concurrency is OS
  // timeslicing, and the scheduling structure (what this test pins) is
  // exactly what a 4-core host would produce.
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  TeamPool pool(4);
  HostCorunOptions host;
  host.cores = 4;
  HostCorunExecutor exec(rt->controller(), pool, rt->options(), host);
  const StepResult r = exec.run_step(program);
  EXPECT_EQ(r.ops_run, g.size());
  // The wide backward layers of the CNN must actually co-run.
  EXPECT_GT(r.corun_launches, 0u);
  EXPECT_GT(r.trace.max_corun(), 1);
  EXPECT_GT(exec.calibration(), 0.0);
}

TEST_F(HostCorunTest, ScheduledStepMatchesSerialReferenceBitForBit) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram scheduled(g);
  HostGraphProgram serial(g);  // same seed -> identical inputs

  auto rt = make_runtime(scheduled);
  (void)rt->run_step_host(scheduled);
  for (const Node& node : g.nodes()) serial.run_node_reference(node.id);

  for (const Node& node : g.nodes()) {
    const Tensor& a = scheduled.output(node.id);
    const Tensor& b = serial.output(node.id);
    ASSERT_EQ(a.size(), b.size()) << node.label;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << "node " << node.id << " (" << node.label << ", binding "
        << host_binding_name(scheduled.binding(node.id))
        << ") diverged from the serial reference";
  }
  EXPECT_DOUBLE_EQ(scheduled.step_checksum(), serial.step_checksum());
}

TEST_F(HostCorunTest, ChecksumDeterministicAcrossRunsAndPolicies) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  const StepResult adaptive1 = rt->run_step_host(program);
  const StepResult adaptive2 = rt->run_step_host(program);
  const StepResult fifo = rt->run_step_host_fifo(program, 2, 2);
  const StepResult reco = rt->run_step_host_recommendation(program);
  // Scheduling order and widths vary run to run (real timing); the outputs
  // must not.
  EXPECT_DOUBLE_EQ(adaptive1.checksum, adaptive2.checksum);
  EXPECT_DOUBLE_EQ(adaptive1.checksum, fifo.checksum);
  EXPECT_DOUBLE_EQ(adaptive1.checksum, reco.checksum);
}

TEST_F(HostCorunTest, SerialStrategiesExecuteOneOpAtATime) {
  const Graph g = build_mnist_host(2);
  HostGraphProgram program(g);
  auto rt = make_runtime(program, kStrategyS12);
  const StepResult r = rt->run_step_host(program);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_EQ(r.corun_launches, 0u);
  EXPECT_EQ(r.overlay_launches, 0u);
  EXPECT_LE(r.trace.max_corun(), 1);
}

TEST_F(HostCorunTest, FifoBaselineRunsEveryOpAndRespectsInterOp) {
  const Graph g = build_mnist_host(2);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  const StepResult r = rt->run_step_host_fifo(program, 2, 2);
  EXPECT_EQ(r.ops_run, g.size());
  EXPECT_LE(r.trace.max_corun(), 2);
}

TEST_F(HostCorunTest, DispatchBatchWidthsProduceBitIdenticalChecksums) {
  // Satellite of the hot-path rebuild: taking up to k admission decisions
  // per dispatcher wake (next_launch_batch) only reorders launches, and no
  // scheduling order may affect outputs. Pin k = 1 (the historical
  // decision-per-wake loop) and k = 4 against the serial reference.
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);

  HostGraphProgram serial(g);  // same seed -> identical inputs
  for (const Node& node : g.nodes()) serial.run_node_reference(node.id);
  const double ref = serial.step_checksum();

  TeamPool pool(4);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("decision_batch " + std::to_string(k));
    HostCorunOptions host;
    host.cores = 4;
    host.decision_batch = k;
    HostCorunExecutor exec(rt->controller(), pool, rt->options(), host);
    const StepResult r = exec.run_step(program);
    EXPECT_EQ(r.ops_run, g.size());
    EXPECT_DOUBLE_EQ(r.checksum, ref);
    // The dispatcher's own decision time is measured and sane.
    EXPECT_GE(r.sched_ms, 0.0);
    EXPECT_LT(r.sched_ms, r.time_ms);
  }
}

TEST_F(HostCorunTest, NoStepSpawnsAThreadAfterWarmUp) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts threads through /proc/self/task";
#else
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  auto rt = make_runtime(program);
  // TeamPool creates a team on a (width, span)'s first use; that is
  // Strategy 2's cost, not the executor's, and which spans a step uses
  // depends on timing. So create every team an adaptive step on a 4-core
  // map can ask for up front (each span, primary and overlay slot) and
  // leave only the executor's own threads to watch.
  constexpr std::size_t kCores = 4;
  TeamPool pool(kCores);
  for (unsigned mask = 1; mask < (1u << kCores); ++mask) {
    CoreSet span(kCores);
    for (std::size_t c = 0; c < kCores; ++c)
      if ((mask >> c) & 1u) span.add(c);
    for (const std::size_t slot : {0, 1})
      pool.team_pinned(span.count(), span, slot);
  }
  HostCorunOptions host;
  host.cores = kCores;
  HostCorunExecutor exec(rt->controller(), pool, rt->options(), host);
  const auto both_paths = [&] {
    EXPECT_EQ(exec.run_step(program).ops_run, g.size());
    EXPECT_EQ(exec.run_step_fifo(program, 2, 2).ops_run, g.size());
  };
  for (int i = 0; i < 3; ++i) both_paths();

  // A thread spawned and joined inside one step leaves the count as it
  // was, so a sampler also watches for any thread id it has not seen.
  const std::set<std::string> warm = live_threads();
  std::atomic<bool> stop{false};
  std::set<std::string> strangers;
  std::thread sampler([&] {
    const std::string self = std::to_string(::syscall(SYS_gettid));
    while (!stop.load()) {
      for (const std::string& tid : live_threads())
        if (tid != self && warm.count(tid) == 0) strangers.insert(tid);
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 20; ++i) both_paths();
  stop.store(true);
  sampler.join();
  EXPECT_TRUE(strangers.empty())
      << strangers.size() << " thread(s) started during the steps";
  EXPECT_EQ(live_threads().size(), warm.size());
#endif
}

TEST_F(HostCorunTest, ExactBindingsCoverSchedulableKinds) {
  const Graph g = build_mnist_host(4);
  HostGraphProgram program(g);
  // The MNIST host model is sized so the schedulable (conv/matmul/pool/
  // bias/relu/adam/xent) nodes all bind to exact kernels; only layout-ish
  // kinds (ToTf, Split, MaxPoolGrad, AvgPoolGrad) may fall back.
  for (const Node& node : g.nodes()) {
    switch (node.kind) {
      case OpKind::kConv2D:
      case OpKind::kConv2DBackpropFilter:
      case OpKind::kConv2DBackpropInput:
      case OpKind::kMatMul:
      case OpKind::kMatMulGrad:
      case OpKind::kMaxPool:
      case OpKind::kBiasAdd:
      case OpKind::kBiasAddGrad:
      case OpKind::kRelu:
      case OpKind::kReluGrad:
      case OpKind::kApplyAdam:
      case OpKind::kSparseSoftmaxCrossEntropy:
      case OpKind::kAddN:
        EXPECT_NE(program.binding(node.id), HostBinding::kSurrogate)
            << node.label;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(program.exact_bindings(), g.size() / 2);
}

TEST_F(HostCorunTest, ParallelKernelOutputsAreWidthIndependent) {
  // The determinism story rests on this invariant; pin it directly on a
  // conv node at several team widths.
  const Graph g = build_mnist_host(2);
  HostGraphProgram p1(g), p2(g);
  ThreadTeam t1(1), t4(4);
  for (const Node& node : g.nodes()) {
    p1.run_node(node.id, t1);
    p2.run_node(node.id, t4);
    const Tensor& a = p1.output(node.id);
    const Tensor& b = p2.output(node.id);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << node.label << " differs between width 1 and 4";
  }
}

}  // namespace
}  // namespace opsched
