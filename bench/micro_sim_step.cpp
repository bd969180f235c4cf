// Micro-benchmark of the simulated machine's control plane: what one
// simulated launch costs in wall-clock time, and how many heap allocations
// a warm simulated step makes. A simulated step takes no real time of its
// own, so every nanosecond here is scheduler and simulator bookkeeping —
// the cost that bounds fleet_sim-style replays on the virtual clock.
//   ns_per_launch    wall ns per launched op, over warm steps
//   allocs_per_step  operator new calls per warm step (this thread only)
//   step_us          wall us per warm step
// One population runs a single tenant, the other a weighted 4-tenant
// TenantSet of the same graph. The allocation count uses the counting
// operator new of tests/testing/alloc_counter.cpp, linked into this binary.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "all_benchmarks.hpp"
#include "core/runtime.hpp"
#include "models/models.hpp"
#include "testing/alloc_counter.hpp"
#include "util/clock.hpp"
#include "util/table.hpp"

namespace opsched::bench {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

void run(Context& ctx) {
  const std::string model = ctx.param("model", "resnet50_host");
  const int steps = std::max(1, ctx.param_int("steps", 20));
  const Graph g = build_model(model);

  ctx.header("Micro: simulated step control plane",
             model + " (" + std::to_string(g.size()) +
                 " ops) on the simulated KNL, " + std::to_string(steps) +
                 " warm steps per population");

  TablePrinter table(
      {"tenants", "ns/launch", "allocs/step", "step_us"});
  for (const std::size_t tenants : {std::size_t{1}, std::size_t{4}}) {
    Runtime rt(MachineSpec::knl());
    rt.profile(g);
    const std::vector<const Graph*> graphs(tenants, &g);
    TenantSet set;
    for (std::size_t t = 0; t < tenants; ++t) {
      set.ids.push_back(t);
      set.weights.push_back(1.0 + static_cast<double>(t % 2));
    }
    const auto step = [&] {
      std::size_t launches = 0;
      for (const StepResult& r : rt.run_step_multi(graphs, set))
        launches += r.ops_run;
      if (launches != tenants * g.size())
        throw std::runtime_error("micro_sim_step: step dropped ops");
      return launches;
    };
    for (int warm = 0; warm < 2; ++warm) step();

    std::vector<double> ns_launch, allocs, step_us;
    for (int s = 0; s < steps; ++s) {
      const std::uint64_t a0 = testing::thread_allocations();
      const double t0 = wall_time_ms();
      const std::size_t launches = step();
      const double ms = wall_time_ms() - t0;
      allocs.push_back(
          static_cast<double>(testing::thread_allocations() - a0));
      ns_launch.push_back(ms * 1e6 / static_cast<double>(launches));
      step_us.push_back(ms * 1e3);
    }

    const std::string tag = "/tenants=" + std::to_string(tenants);
    ctx.metric("ns_per_launch" + tag, median(ns_launch), "ns");
    ctx.metric("allocs_per_step" + tag, median(allocs), "count");
    ctx.metric("step_us" + tag, median(step_us), "us");
    table.add_row({std::to_string(tenants), fmt_double(median(ns_launch), 0),
                   fmt_double(median(allocs), 0),
                   fmt_double(median(step_us), 0)});
  }

  table.print(ctx.out());
  ctx.out() << "Wall time only: the simulated step's virtual-clock results "
               "are pinned by core_golden_schedule_test.\n";
}

}  // namespace

void register_micro_sim_step(Registry& reg) {
  Benchmark b;
  b.name = "micro_sim_step";
  b.figure = "micro";
  b.description =
      "wall ns per simulated launch and heap allocations per warm step";
  b.default_params = {{"model", "resnet50_host"}, {"steps", "20"}};
  b.fn = run;
  reg.add(std::move(b));
}

}  // namespace opsched::bench
