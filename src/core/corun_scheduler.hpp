// CorunScheduler: the simulated-machine half of the adaptive step loop
// (core/step_loop.hpp) — one training step of N co-located tenants on the
// SimMachine under Strategies 1-4 (paper Section III-D). The loop and the
// AdmissionPolicy decide what runs next and at what width; this class only
// maps those decisions onto the simulator:
//   - idle cores are the machine's cores without a primary occupant;
//   - a launch is SimMachine::launch (exclusive, or overlay for Strategy 4);
//   - completions arrive one at a time from SimMachine::advance, which
//     moves the virtual clock;
//   - a running op's remaining time is its remaining work at its current
//     rate, and a completion is judged against its interference-free time.
// The simulator decides one launch per snapshot (decision batch 1), so
// every decision sees the rates of all earlier launches.
#pragma once

#include <vector>

#include "core/concurrency_controller.hpp"
#include "core/step_loop.hpp"
#include "machine/sim_machine.hpp"

namespace opsched {

/// Lifetime: the scheduler keeps a reference to `controller`, which must
/// outlive it (Runtime owns both and guarantees this; standalone users must
/// too). `options` is copied at construction.
///
/// Thread-safety: NOT thread-safe (see AdaptiveStepLoop); concurrent steps
/// need one scheduler per thread. The referenced ConcurrencyController is
/// only read.
class CorunScheduler : public AdaptiveStepLoop {
 public:
  CorunScheduler(const ConcurrencyController& controller,
                 RuntimeOptions options)
      : AdaptiveStepLoop(controller, options, /*decision_batch=*/1) {}

  /// Runs every node of `g` to completion on `machine` (which is reset
  /// first). Deterministic for fixed inputs.
  StepResult run_step(const Graph& g, SimMachine& machine);

  /// Runs N tenants' graphs to completion CO-LOCATED on `machine` (reset
  /// first), ops interleaving across tenants under the weighted-deficit
  /// admission walk. `weights[t]` is tenant t's relative claim on contended
  /// cores (missing/non-positive entries default to 1.0). Returns one
  /// StepResult per tenant, in input order: time_ms is the tenant's
  /// makespan (virtual step start to its last completion), service_ms the
  /// machine time its ops consumed, trace its private event log (co-run
  /// levels count ALL tenants' in-flight ops). Deterministic for fixed
  /// inputs.
  std::vector<StepResult> run_step_multi(
      const std::vector<const Graph*>& graphs, SimMachine& machine,
      const std::vector<double>& weights = {});

  /// Stable-identity form for churn-tolerant serving: slot t of `graphs`
  /// carries stable id set.ids[t] (the serving layer passes job ids), so
  /// learned state and — with set.preserve_service — the fairness deficit
  /// follow the job across between-step tenant-set reconfigurations. The
  /// weights overload is this one with TenantSet::slots (ids = slot
  /// indices, per-step service reset).
  std::vector<StepResult> run_step_multi(
      const std::vector<const Graph*>& graphs, SimMachine& machine,
      const TenantSet& set);

 private:
  std::size_t width() const override { return machine_->spec().num_cores; }
  double now_ms() const override { return machine_->now_ms(); }
  CoreSet idle_cores() const override { return machine_->idle_cores(); }
  void running_views(std::vector<RunningOpView>& out) const override;
  std::optional<OpCompletion> launch(std::size_t slot, InFlightOp& op,
                                     const Node& node,
                                     const Candidate& c) override;
  void wait(std::vector<OpCompletion>& out) override;
  double settle(const InFlightOp&, const OpCompletion& c) override {
    return c.solo_ms;
  }

  SimMachine* machine_ = nullptr;  // the machine of the running step
};

}  // namespace opsched
