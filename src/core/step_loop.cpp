#include "core/step_loop.hpp"

#include <algorithm>
#include <stdexcept>

namespace opsched {

bool AdaptiveStepLoop::any_ready() const {
  return std::any_of(ready_.begin(), ready_.end(),
                     [](const ReadyQueue& q) { return !q.empty(); });
}

const std::vector<RunningOpView>& AdaptiveStepLoop::snapshot() {
  views_.clear();
  running_views(views_);
  return views_;
}

std::vector<StepResult> AdaptiveStepLoop::run_step_loop(
    const std::vector<const Graph*>& graphs, const TenantSet& set) {
  const std::size_t tenants = graphs.size();
  if (tenants == 0) return {};
  if (set.ids.size() != tenants) {
    throw std::invalid_argument(
        "run_step_multi: TenantSet/graphs size mismatch");
  }
  policy_.configure_tenants(set);

  graphs_ = &graphs;
  results_.assign(tenants, StepResult{});
  trackers_.clear();
  trackers_.reserve(tenants);
  // Resized, not reassigned: each queue keeps its storage from the
  // previous step.
  ready_.resize(tenants);
  tenant_views_.resize(tenants);
  remaining_ = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    trackers_.emplace_back(*graphs[t]);
    ready_[t].assign(trackers_[t].initially_ready().begin(),
                     trackers_[t].initially_ready().end());
    tenant_views_[t] = TenantReadyView{graphs[t], &ready_[t]};
    remaining_ += trackers_[t].remaining();
    // A launch and a completion event per node.
    results_[t].trace.reserve(2 * graphs[t]->size());
  }
  last_completion_.assign(tenants, 0.0);
  sched_ms_ = 0.0;
  in_flight_.resize(2 * width());
  for (InFlightOp& op : in_flight_) op.live = false;
  in_flight_count_ = 0;

  const bool s4 = (options_.strategies & kStrategy4) != 0;
  while (remaining_ > 0) {
    admit();
    if (s4 && overlays_supported() && any_ready() &&
        idle_cores().count() < AdmissionPolicy::kOverlayTriggerIdleCores) {
      overlay();
    }
    if (remaining_ == 0) break;  // everything finished inline
    if (in_flight_count_ == 0) {
      if (any_ready()) continue;  // inline completions refilled a queue
      throw std::logic_error(
          "adaptive step: deadlock — nothing running but nodes remain");
    }
    done_.clear();
    wait(done_);
    for (const OpCompletion& c : done_) complete(c);
  }

  for (std::size_t t = 0; t < tenants; ++t) {
    results_[t].time_ms = last_completion_[t];
    results_[t].mean_corun = results_[t].trace.mean_corun();
    results_[t].sched_ms = sched_ms_;
  }
  graphs_ = nullptr;
  return std::move(results_);
}

void AdaptiveStepLoop::admit() {
  for (;;) {
    const CoreSet idle = idle_cores();
    if (idle.empty() || !any_ready()) return;
    // One snapshot and one policy call admit up to decision_batch_
    // launches; decision i already models picks 0..i-1 as running.
    const double d0 = now_ms();
    round_stats_.clear();
    policy_.next_launch_batch(tenant_views_, static_cast<int>(idle.count()),
                              snapshot(), &round_stats_, decision_batch_,
                              batch_);
    sched_ms_ += now_ms() - d0;
    // Per-queue attribution, wait rounds included: each tenant's counters
    // reflect the walk over its own queue, whoever wins the round.
    for (std::size_t t = 0; t < round_stats_.size(); ++t) {
      results_[t].cache_hits += round_stats_[t].cache_hits;
      results_[t].guard_fallbacks += round_stats_[t].guard_fallbacks;
    }
    if (batch_.empty()) return;  // wait for a completion
    CoreSet avail = idle;
    for (const MultiAdmissionDecision& d : batch_) {
      const CoreSet span = avail.take_lowest(static_cast<std::size_t>(
          std::max(1, d.decision.candidate.threads)));
      avail = avail.minus(span);
      launch_op(d.tenant, d.decision, span, /*overlay=*/false);
    }
  }
}

void AdaptiveStepLoop::overlay() {
  for (;;) {
    // Overlays only pay off on cores whose primary is compute-bound: a
    // memory-bound primary has no spare core cycles and the overlay only
    // adds bandwidth pressure.
    CoreSet compute_bound(width());
    CoreSet overlaid(width());
    for (const InFlightOp& op : in_flight_) {
      if (!op.live) continue;
      if (op.overlay) {
        overlaid = overlaid.union_with(op.cores);
      } else if (op.mem_intensity <
                 AdmissionPolicy::kComputeBoundMemIntensity) {
        compute_bound = compute_bound.union_with(op.cores);
      }
    }
    const CoreSet eligible = compute_bound.minus(overlaid);
    if (eligible.empty() || !any_ready()) return;

    const double d0 = now_ms();
    const auto d = policy_.next_overlay_multi(
        tenant_views_, static_cast<int>(eligible.count()), snapshot());
    sched_ms_ += now_ms() - d0;
    if (!d.has_value()) return;
    launch_op(d->tenant, d->decision,
              eligible.take_lowest(static_cast<std::size_t>(
                  std::max(1, d->decision.candidate.threads))),
              /*overlay=*/true);
  }
}

void AdaptiveStepLoop::launch_op(std::size_t tenant,
                                 const AdmissionDecision& d,
                                 const CoreSet& span, bool overlay) {
  const NodeId node_id = ready_[tenant][d.ready_pos];
  ready_[tenant].erase(d.ready_pos);
  const Node& node = (*graphs_)[tenant]->node(node_id);
  const std::size_t slot = slot_of(span, overlay);

  InFlightOp& op = in_flight_[slot];
  op.corunners.clear();
  for (const InFlightOp& other : in_flight_) {
    if (other.live)
      op.corunners.push_back(TenantOpKey{other.tenant, other.key});
  }
  op.live = true;
  op.tenant = tenant;
  op.node = node_id;
  op.key = OpKey::of(node);
  op.op_token = d.op_token;
  op.cores = span;
  op.overlay = overlay;
  const bool corun = in_flight_count_ > 0;
  ++in_flight_count_;

  StepResult& stats = results_[tenant];
  stats.trace.record(now_ms(), /*is_launch=*/true, node_id, node.kind,
                     static_cast<int>(in_flight_count_));
  ++stats.ops_run;
  if (overlay) ++stats.overlay_launches;
  if (overlay || corun) ++stats.corun_launches;

  if (const auto inline_done = launch(slot, op, node, d.candidate))
    complete(*inline_done);
}

void AdaptiveStepLoop::complete(const OpCompletion& c) {
  InFlightOp& op = in_flight_[c.slot];
  op.live = false;
  --in_flight_count_;

  // Interference recorder: excessive co-run slowdown marks all pairs.
  const double expected_ms = settle(op, c);
  if (!op.overlay && !op.corunners.empty() &&
      c.actual_ms > expected_ms * options_.interference_bad_ratio) {
    policy_.record_interference(TenantOpKey{op.tenant, op.key},
                                op.corunners);
  }

  StepResult& stats = results_[op.tenant];
  stats.service_ms += c.actual_ms;
  // max, not overwrite: host completions can arrive out of clock order.
  last_completion_[op.tenant] =
      std::max(last_completion_[op.tenant], c.end_ms);
  stats.trace.record(c.end_ms, /*is_launch=*/false, op.node,
                     (*graphs_)[op.tenant]->node(op.node).kind,
                     static_cast<int>(in_flight_count_));

  newly_ready_.clear();
  trackers_[op.tenant].mark_done(op.node, newly_ready_);
  for (NodeId id : newly_ready_) ready_[op.tenant].push_back(id);
  --remaining_;
}

}  // namespace opsched
