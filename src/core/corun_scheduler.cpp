#include "core/corun_scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace opsched {

StepResult CorunScheduler::run_step(const Graph& g, SimMachine& machine) {
  std::vector<StepResult> results = run_step_multi({&g}, machine);
  return std::move(results.front());
}

std::vector<StepResult> CorunScheduler::run_step_multi(
    const std::vector<const Graph*>& graphs, SimMachine& machine,
    const std::vector<double>& weights) {
  return run_step_multi(graphs, machine,
                        TenantSet::slots(graphs.size(), weights));
}

std::vector<StepResult> CorunScheduler::run_step_multi(
    const std::vector<const Graph*>& graphs, SimMachine& machine,
    const TenantSet& set) {
  machine.reset();
  // The machine's own (all-tenant) trace stays a live surface for
  // machine-level consumers (FifoExecutor, sim_machine_test); clearing it
  // here only stops growth across steps. The per-tenant traces returned in
  // the results are recorded by the step loop at the same event points.
  machine.trace().clear();
  machine_ = &machine;
  return run_step_loop(graphs, set);
}

void CorunScheduler::running_views(std::vector<RunningOpView>& out) const {
  for (const auto& task : machine_->running()) {
    const InFlightOp& op = in_flight()[slot_of(
        task.cores, task.launch_kind == LaunchKind::kOverlay)];
    RunningOpView v;
    v.tenant = op.tenant;
    v.key = op.key;
    v.op_token = op.op_token;
    v.remaining_ms = task.remaining_ms / task.rate;
    v.threads = static_cast<int>(task.cores.count());
    out.push_back(v);
  }
}

std::optional<OpCompletion> CorunScheduler::launch(std::size_t,
                                                   InFlightOp& op,
                                                   const Node& node,
                                                   const Candidate& c) {
  machine_->launch(node, c.threads, c.mode, op.cores,
                   op.overlay ? LaunchKind::kOverlay : LaunchKind::kExclusive);
  op.mem_intensity = machine_->running().back().mem_intensity;
  return std::nullopt;
}

void CorunScheduler::wait(std::vector<OpCompletion>& out) {
  const auto comp = machine_->advance();
  if (!comp.has_value()) {
    throw std::logic_error(
        "CorunScheduler: deadlock — nothing running but nodes remain");
  }
  out.push_back(OpCompletion{
      slot_of(comp->cores, comp->launch_kind == LaunchKind::kOverlay),
      comp->finish_ms, comp->actual_ms, comp->solo_ms});
}

}  // namespace opsched
