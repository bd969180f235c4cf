// Golden simulated schedules: every per-tenant trace event and step counter
// of a fixed probe folded into one digest per model and pinned. The other
// simulator tests check run-to-run determinism; this one checks that the
// schedule itself (which op launches when, at what co-run level, with what
// accounting) is unchanged across refactors of the step loop. A digest
// change means the simulated schedule changed — update the pin only for a
// deliberate behaviour change.
//
// Probe per model: Strategies S12 / S123 / All, each on a fresh Runtime,
// two steps each of
//   - the single-tenant step,
//   - a weighted 4-tenant co-located step (weights 1, 2, 1, 3),
//   - a TenantSet step with stable ids, weights and a latency floor.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/runtime.hpp"
#include "models/models.hpp"

namespace opsched {
namespace {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const StepResult& r) {
    for (const TraceEvent& e : r.trace.events()) {
      add(e.time_ms);
      add(static_cast<std::uint64_t>(e.node));
      add(static_cast<std::uint64_t>(e.is_launch));
      add(static_cast<std::uint64_t>(e.kind));
      add(static_cast<std::uint64_t>(e.corun_after));
    }
    add(static_cast<std::uint64_t>(r.ops_run));
    add(static_cast<std::uint64_t>(r.corun_launches));
    add(static_cast<std::uint64_t>(r.overlay_launches));
    add(static_cast<std::uint64_t>(r.cache_hits));
    add(static_cast<std::uint64_t>(r.guard_fallbacks));
    add(r.time_ms);
    add(r.service_ms);
    add(r.mean_corun);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t probe_digest(const std::string& model) {
  const Graph g = build_model(model);
  const std::vector<const Graph*> four = {&g, &g, &g, &g};
  TenantSet set;
  set.ids = {7, 3, 11, 5};
  set.weights = {1.0, 2.0, 1.0, 1.0};
  set.floors = {0, 16, 0, 0};

  Digest d;
  for (const unsigned strategies :
       {unsigned{kStrategyS12}, unsigned{kStrategyS123},
        unsigned{kStrategyAll}}) {
    RuntimeOptions opt;
    opt.strategies = strategies;
    Runtime rt(MachineSpec::knl(), opt);
    rt.profile(g);
    for (int step = 0; step < 2; ++step) d.add(rt.run_step(g));
    for (int step = 0; step < 2; ++step) {
      for (const StepResult& r :
           rt.run_step_multi(four, std::vector<double>{1.0, 2.0, 1.0, 3.0}))
        d.add(r);
    }
    for (int step = 0; step < 2; ++step) {
      for (const StepResult& r : rt.run_step_multi(four, set)) d.add(r);
    }
    d.add(static_cast<std::uint64_t>(rt.scheduler().recorded_bad_pairs()));
  }
  return d.value();
}

TEST(GoldenSchedule, Resnet50) {
  EXPECT_EQ(probe_digest("resnet50"), 0x2fdd10d4312fec43ULL);
}

TEST(GoldenSchedule, Dcgan) {
  EXPECT_EQ(probe_digest("dcgan"), 0xdcdf3dd6031498abULL);
}

TEST(GoldenSchedule, InceptionV3) {
  EXPECT_EQ(probe_digest("inception_v3"), 0x9c5534ba36459c90ULL);
}

TEST(GoldenSchedule, Lstm) {
  EXPECT_EQ(probe_digest("lstm"), 0x10d56ce3a3b4ce36ULL);
}

}  // namespace
}  // namespace opsched
