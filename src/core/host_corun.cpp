#include "core/host_corun.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "ops/work_profile.hpp"
#include "threading/launch_pad.hpp"
#include "util/clock.hpp"

namespace opsched {

namespace {

/// Machine-agnostic memory-intensity proxy for the Strategy 4 eligibility
/// test (the simulator asks its CostModel; the host has no MachineSpec).
/// Bytes are weighted against flops at a typical host compute/bandwidth
/// ratio; only the AdmissionPolicy::kComputeBoundMemIntensity cut-off
/// consumes the value, so the constant's precision is not load-bearing.
double host_mem_intensity(const Node& node) {
  const WorkProfile w = work_profile(node);
  const double tc = w.flops;
  const double tm = w.bytes * 16.0;
  if (tc + tm <= 0.0) return 0.0;
  return tm / (tc + tm);
}

/// Sharded completion posting: one cache-line-aligned slot per launch lane,
/// so launcher threads finishing concurrently each write their own line and
/// never contend a shared mutex/deque. A lane (an adaptive span's lane or a
/// FIFO slot) has at most one op in flight — it stays busy until the
/// dispatcher consumes the completion — so a slot is written at most once
/// between reads by construction.
///
/// Wakeup is a Dekker handshake on (posted_, sleeping_): posters bump
/// posted_ then check whether the dispatcher announced it was going to
/// sleep; the dispatcher announces, then re-checks posted_ under the mutex
/// before actually sleeping. Both sides use seq_cst so at least one of them
/// observes the other — the mutex is only ever touched on the empty-board
/// edge, never on the per-completion fast path.
class CompletionBoard {
 public:
  explicit CompletionBoard(std::size_t lanes) : slots_(lanes) {}

  /// Launcher side. Wait-free except when the dispatcher is asleep.
  void post(std::size_t lane, double end_ms) {
    Slot& s = slots_[lane];
    s.end_ms = end_ms;
    s.full.store(true, std::memory_order_release);
    posted_.fetch_add(1, std::memory_order_seq_cst);
    if (sleeping_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_one();
    }
  }

  /// Dispatcher side: blocks until more than `consumed` posts happened.
  void wait(std::size_t consumed) {
    if (posted_.load(std::memory_order_seq_cst) > consumed) return;
    sleeping_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return posted_.load(std::memory_order_seq_cst) > consumed;
      });
    }
    sleeping_.store(false, std::memory_order_relaxed);
  }

  /// Dispatcher side: claims lane's completion if one is posted.
  bool take(std::size_t lane, double& end_ms) {
    Slot& s = slots_[lane];
    if (!s.full.load(std::memory_order_acquire)) return false;
    end_ms = s.end_ms;
    s.full.store(false, std::memory_order_relaxed);
    return true;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<bool> full{false};
    double end_ms = 0.0;
  };
  std::vector<Slot> slots_;
  std::atomic<std::size_t> posted_{0};
  std::atomic<bool> sleeping_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace

HostCorunExecutor::HostCorunExecutor(const ConcurrencyController& controller,
                                     TeamPool& pool, RuntimeOptions options,
                                     HostCorunOptions host)
    : AdaptiveStepLoop(controller, options,
                       std::max<std::size_t>(1, host.decision_batch)),
      controller_(controller),
      pool_(pool),
      host_(host),
      cores_(host.cores == 0 ? pool.max_width()
                             : std::min(host.cores, pool.max_width())) {
  if (cores_ == 0)
    throw std::invalid_argument("HostCorunExecutor: zero-width pool");
  // Launch lanes: lane 2c runs the primary whose span starts at core c,
  // lane 2c+1 the overlay riding on core c. The mapping is collision-free
  // while an op is in flight (its span's lowest core stays busy), and it is
  // what makes per-lane completion slots and per-lane team caches work.
  lane_teams_.resize(2 * cores_);
}

void HostCorunExecutor::attach_observability(obs::Registry* reg,
                                             obs::TraceCollector* trace,
                                             std::uint32_t trace_pid,
                                             const std::string& instance) {
  metrics_ = reg;
  trace_ = trace;
  trace_pid_ = trace_pid;
  trace_named_tenants_ = 0;
  m_inline_launches_ = nullptr;
  m_team_launches_ = nullptr;
  m_overlay_launches_ = nullptr;
  m_launch_ms_ = nullptr;
  m_lanes_inflight_ = nullptr;
  if (reg != nullptr) {
    const auto qual = [&](const char* name) {
      return instance.empty() ? std::string(name)
                              : obs::label(name, "shard", instance);
    };
    m_inline_launches_ = reg->counter(qual("host_inline_launches_total"));
    m_team_launches_ = reg->counter(qual("host_team_launches_total"));
    m_overlay_launches_ = reg->counter(qual("host_overlay_launches_total"));
    m_launch_ms_ = reg->histogram(qual("host_launch_ms"));
    m_lanes_inflight_ = reg->histogram(
        qual("host_lanes_inflight"),
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  }
  policy_.attach_metrics(reg, instance);
}

struct HostCorunExecutor::Step {
  Step(const std::vector<HostGraphProgram*>& programs, std::size_t cores)
      : programs(programs),
        board(2 * cores),
        primary_busy(cores),
        overlaid(cores),
        pad(2 * cores) {}

  const std::vector<HostGraphProgram*>& programs;
  const double t0 = wall_time_ms();
  /// Sharded completion board shared with the launchers.
  CompletionBoard board;
  std::size_t consumed = 0;
  CoreSet primary_busy;
  CoreSet overlaid;
  /// Declared after the state its jobs capture so its destructor joins the
  /// launcher threads first.
  LaunchPad pad;
};

StepResult HostCorunExecutor::run_step(HostGraphProgram& program) {
  std::vector<StepResult> results = run_step_multi({&program});
  return std::move(results.front());
}

std::vector<StepResult> HostCorunExecutor::run_step_multi(
    const std::vector<HostGraphProgram*>& programs,
    const std::vector<double>& weights) {
  return run_step_multi(programs, TenantSet::slots(programs.size(), weights));
}

std::vector<StepResult> HostCorunExecutor::run_step_multi(
    const std::vector<HostGraphProgram*>& programs, const TenantSet& set) {
  const std::size_t tenants = programs.size();
  // Trace track metadata: one track per tenant×lane (primary + overlay
  // sub-track per core), named once per population growth.
  if (trace_ != nullptr && trace_named_tenants_ < tenants) {
    for (std::size_t t = trace_named_tenants_; t < tenants; ++t) {
      for (std::size_t c = 0; c < cores_; ++c) {
        const auto tid = static_cast<std::uint32_t>(t * 2 * cores_ + 2 * c);
        const std::string base =
            "tenant " + std::to_string(t) + " core " + std::to_string(c);
        trace_->set_track_name(trace_pid_, tid, base);
        trace_->set_track_name(trace_pid_, tid + 1, base + " ovl");
      }
    }
    trace_named_tenants_ = tenants;
  }

  std::vector<const Graph*> graphs;
  graphs.reserve(tenants);
  for (HostGraphProgram* program : programs)
    graphs.push_back(&program->graph());
  Step step(programs, cores_);
  step_ = &step;
  std::vector<StepResult> results = run_step_loop(graphs, set);
  step_ = nullptr;
  for (std::size_t t = 0; t < tenants; ++t)
    results[t].checksum = programs[t]->step_checksum();
  return results;
}

double HostCorunExecutor::now_ms() const {
  return wall_time_ms() - step_->t0;
}

CoreSet HostCorunExecutor::idle_cores() const {
  return CoreSet::all(cores_).minus(step_->primary_busy).minus(
      step_->overlaid);
}

void HostCorunExecutor::running_views(std::vector<RunningOpView>& out) const {
  // Remaining time is predicted_ms minus elapsed wall-clock converted back
  // to the controller's timescale through the learned calibration (1.0
  // until the first completion: the guard only compares these values
  // against each other, so a uniform scale error is harmless).
  const double now = wall_time_ms();
  const double calib = calib_ > 0.0 ? calib_ : 1.0;
  for (const InFlightOp& op : in_flight()) {
    if (!op.live) continue;
    RunningOpView r;
    r.key = op.key;
    r.tenant = op.tenant;
    r.op_token = op.op_token;
    r.threads = static_cast<int>(op.cores.count());
    const double elapsed_model = (now - op.start_ms) / calib;
    r.remaining_ms = std::max(0.0, op.predicted_ms - elapsed_model);
    out.push_back(r);
  }
}

std::optional<OpCompletion> HostCorunExecutor::launch(std::size_t slot,
                                                      InFlightOp& op,
                                                      const Node& node,
                                                      const Candidate& c) {
  Step& step = *step_;
  HostGraphProgram& program = *step.programs[op.tenant];
  const double l0 = metrics_ != nullptr ? wall_time_ms() : 0.0;
  const CoreSet& span = op.cores;
  op.predicted_ms =
      c.time_ms > 0.0 ? c.time_ms : controller_.predicted_time_ms(node);
  const bool s4 =
      overlays_supported() && (options_.strategies & kStrategy4) != 0;
  if (s4) op.mem_intensity = host_mem_intensity(node);

  // A saturating launch — empty machine, op takes every core — excludes
  // any co-runner until it completes, so the dispatcher runs it inline:
  // the async detour (launcher handoff + condvar round-trip) would sit on
  // the critical path for nothing. FIFO executors pipeline that latency
  // behind their second slot; without this, serial phases of the adaptive
  // schedule would pay pure overhead against them. Only when no Strategy-4
  // overlay could ride on it (overlays need the dispatcher free): S4 off
  // or unsupported, or nothing else ready in ANY tenant's queue.
  const bool inline_run = !op.overlay && step.primary_busy.empty() &&
                          step.overlaid.empty() && !(s4 && any_ready()) &&
                          span.count() == cores_;

  // One pinned team per disjoint span. Overlays use slot 1 so an overlay
  // whose (width, span) coincides with its primary's never shares the
  // primary's (busy) team. Width-1 ops on the dispatcher-inline path use
  // the workerless inline team — the dispatcher runs the kernel body
  // itself, skipping the per-op dispatch round-trip that dominates tiny
  // single-threaded ops. Async width-1 launches keep a pinned pool team:
  // an inline team inherits the launcher thread's (absent) affinity,
  // which would put the op on an OS-chosen core instead of its span.
  // The per-lane cache makes the steady state (same op pattern -> same
  // lane -> same span/width) a pointer compare instead of a pool lookup,
  // and keeps re-waking the workers already pinned there.
  ThreadTeam* team;
  if (inline_run && span.count() == 1) {
    team = &inline1_;
  } else {
    LaneTeam& cached = lane_teams_[slot];
    const std::size_t team_slot = op.overlay ? 1 : 0;
    if (cached.team != nullptr && cached.width == span.count() &&
        cached.slot == team_slot && cached.span == span) {
      team = cached.team;
    } else {
      team = &pool_.team_pinned(span.count(), span, team_slot);
      cached = LaneTeam{team, span.count(), team_slot, span};
    }
  }
  if (op.overlay) {
    step.overlaid = step.overlaid.union_with(span);
  } else {
    step.primary_busy = step.primary_busy.union_with(span);
  }
  op.start_ms = wall_time_ms();
  if (metrics_ != nullptr) {
    if (op.overlay) {
      m_overlay_launches_->inc();
    } else if (inline_run) {
      m_inline_launches_->inc();
    } else {
      m_team_launches_->inc();
    }
    m_lanes_inflight_->observe(static_cast<double>(in_flight_count()));
    // Dispatch handoff cost: team resolution and lane setup up to the
    // kernel handoff — kernel time excluded on every path.
    m_launch_ms_->observe(wall_time_ms() - l0);
  }
  const NodeId node_id = node.id;
  if (inline_run) {
    program.run_node(node_id, *team);
    const double end = wall_time_ms();
    return OpCompletion{slot, end - step.t0, end - op.start_ms};
  }
  // Same-lane posting: the launcher that owns this span's lane runs the
  // op and writes its own completion slot — no shared queue anywhere.
  step.pad.launch_on(slot, [&program, &board = step.board, node_id, slot,
                            team] {
    program.run_node(node_id, *team);
    board.post(slot, wall_time_ms());
  });
  return std::nullopt;
}

void HostCorunExecutor::wait(std::vector<OpCompletion>& out) {
  Step& step = *step_;
  step.board.wait(step.consumed);
  for (std::size_t lane = 0; lane < 2 * cores_; ++lane) {
    double end = 0.0;
    if (step.board.take(lane, end)) {
      ++step.consumed;
      out.push_back(OpCompletion{lane, end - step.t0,
                                 end - in_flight()[lane].start_ms});
    }
  }
}

double HostCorunExecutor::settle(const InFlightOp& op,
                                 const OpCompletion& c) {
  double expected_ms = std::numeric_limits<double>::infinity();
  if (op.predicted_ms > 0.0) {
    // Interference is judged against the calibration as it stood BEFORE
    // this sample: folding the slow sample into the EWMA first would
    // dilute the 2.5x bad-pair threshold toward unreachable.
    if (calib_ > 0.0) expected_ms = op.predicted_ms * calib_;
    // Overlays are excluded from the calibration: they run up to ~2.5x
    // slow BY DESIGN, and folding that in would inflate every later
    // expectation (recorder threshold, throughput-guard views).
    if (!op.overlay) {
      const double ratio = c.actual_ms / op.predicted_ms;
      calib_ = calib_ == 0.0 ? ratio
                             : (1.0 - host_.calibration_alpha) * calib_ +
                                   host_.calibration_alpha * ratio;
    }
  }

  Step& step = *step_;
  if (op.overlay) {
    step.overlaid = step.overlaid.minus(op.cores);
  } else {
    step.primary_busy = step.primary_busy.minus(op.cores);
  }

  // One wall-clock span per completed op, on its tenant×lane track.
  if (trace_ != nullptr) {
    const Node& node = step.programs[op.tenant]->graph().node(op.node);
    obs::TraceSpan span;
    span.name = node.label.empty() ? std::string(op_kind_name(node.kind))
                                   : node.label;
    span.cat = op.overlay ? "op.overlay" : "op";
    span.pid = trace_pid_;
    span.tid = static_cast<std::uint32_t>(op.tenant * 2 * cores_ + c.slot);
    span.start_ms = op.start_ms;
    span.dur_ms = c.actual_ms;
    trace_->span(std::move(span));
  }
  return expected_ms;
}

StepResult HostCorunExecutor::run_step_fifo(HostGraphProgram& program,
                                            int inter_op, int intra_op) {
  const Graph& g = program.graph();
  StepResult stats;
  const double t0 = wall_time_ms();

  const auto slots = static_cast<std::size_t>(std::max(1, inter_op));
  const auto width = static_cast<std::size_t>(std::clamp<int>(
      intra_op, 1, static_cast<int>(pool_.max_width())));

  ReadyTracker tracker(g);
  std::deque<NodeId> ready(tracker.initially_ready().begin(),
                           tracker.initially_ready().end());

  CompletionBoard board(slots);
  std::size_t consumed = 0;
  std::vector<NodeId> slot_node(slots, kInvalidNode);
  std::vector<double> slot_start(slots, 0.0);
  std::size_t busy = 0;
  LaunchPad pad(slots);

  while (tracker.remaining() > 0) {
    for (std::size_t s = 0; s < slots && !ready.empty(); ++s) {
      if (slot_node[s] != kInvalidNode) continue;
      const NodeId node_id = ready.front();
      ready.pop_front();
      slot_node[s] = node_id;
      const bool corun = busy > 0;
      ++busy;
      // Unpinned team (empty affinity), one live team per FIFO slot: the
      // OS scatters the threads, as with TensorFlow's executor.
      ThreadTeam& team = pool_.team_pinned(width, CoreSet(cores_), s);
      slot_start[s] = wall_time_ms();
      stats.trace.record(slot_start[s] - t0, /*is_launch=*/true, node_id,
                         g.node(node_id).kind, static_cast<int>(busy));
      ++stats.ops_run;
      if (corun) ++stats.corun_launches;
      // Slot s always rides launcher lane s: FIFO slots are long-lived, so
      // the same launcher keeps serving the same team.
      pad.launch_on(s, [&program, &board, node_id, s, &team] {
        program.run_node(node_id, team);
        board.post(s, wall_time_ms());
      });
    }

    if (busy == 0) {
      throw std::logic_error(
          "HostCorunExecutor: FIFO deadlock — nothing running but nodes "
          "remain");
    }
    board.wait(consumed);
    for (std::size_t s = 0; s < slots; ++s) {
      double end = 0.0;
      if (!board.take(s, end)) continue;
      ++consumed;
      const NodeId done = slot_node[s];
      slot_node[s] = kInvalidNode;
      --busy;
      stats.service_ms += end - slot_start[s];
      stats.trace.record(end - t0, /*is_launch=*/false, done,
                         g.node(done).kind, static_cast<int>(busy));
      std::vector<NodeId> newly;
      tracker.mark_done(done, newly);
      for (NodeId nid : newly) ready.push_back(nid);
    }
  }

  stats.time_ms = wall_time_ms() - t0;
  stats.mean_corun = stats.trace.mean_corun();
  stats.checksum = program.step_checksum();
  return stats;
}

StepResult HostCorunExecutor::run_step_recommendation(
    HostGraphProgram& program) {
  return run_step_fifo(program, 1, static_cast<int>(cores_));
}

}  // namespace opsched
