#include "core/host_corun.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ops/work_profile.hpp"
#include "threading/spin.hpp"
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
/// so lanes finishing concurrently each write their own line and
/// never contend a shared queue. A lane (an adaptive span's lane or a
/// FIFO slot) has at most one op in flight — it stays busy until the
/// dispatcher consumes the completion — so a slot is written at most once
/// between reads by construction.
///
/// posted_ counts posts: the dispatcher polls it for a spin window, then
/// parks on it, and a post pays for a futex wake only when the dispatcher
/// is parked (threading/spin.hpp).
class CompletionBoard {
 public:
  explicit CompletionBoard(std::size_t lanes) : slots_(lanes) {}

  /// Lane side. Wait-free except when the dispatcher is asleep.
  void post(std::size_t lane, double end_ms) {
    Slot& s = slots_[lane];
    s.end_ms = end_ms;
    s.full.store(true, std::memory_order_release);
    posted_.bump();
  }

  /// Dispatcher side: blocks until more than `consumed` posts happened.
  /// A lane marks its slot full before it bumps posted_, so the dispatcher
  /// may take a completion whose bump has not landed yet and run
  /// `consumed` ahead of posted_; the signed difference keeps it waiting
  /// until the count catches up and passes it.
  void wait(std::size_t consumed) {
    const auto target = static_cast<std::uint32_t>(consumed);
    std::uint32_t posted = posted_.load();
    while (static_cast<std::int32_t>(posted - target) <= 0)
      posted = posted_.await_change(posted);
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
  WaitWord posted_;  // wraps; compared with consumed mod 2^32
};

/// One launch lane: a thread that lives as long as its executor, pinned to
/// one core or left to the OS. It leads the team of each op handed to it
/// (runs chunk 0 itself), then posts the completion to its board slot and
/// polls for its next op for a spin window before it parks. A
/// lane holds one op at a time: the dispatcher hands it the next only after
/// taking the previous completion off the board, which also orders the job
/// fields between the two threads.
class Lane {
 public:
  Lane(CompletionBoard& board, std::size_t index,
       std::optional<std::size_t> core)
      : board_(board), index_(index), thread_([this, core] {
          if (core) pin_this_thread(*core);
          loop();
        }) {}
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  ~Lane() {
    post(Job{});  // program == nullptr: exit
    thread_.join();
  }

  void launch(HostGraphProgram& program, NodeId node, ThreadTeam& team) {
    post(Job{&program, node, &team});
  }

 private:
  struct Job {
    HostGraphProgram* program = nullptr;
    NodeId node = kInvalidNode;
    ThreadTeam* team = nullptr;
  };

  void post(const Job& job) {
    job_ = job;
    seq_.bump();
  }

  void loop() {
    std::uint32_t seen = 0;
    for (;;) {
      seen = seq_.await_change(seen);
      const Job job = job_;
      if (job.program == nullptr) return;
      job.program->run_node(job.node, *job.team);
      board_.post(index_, wall_time_ms());
    }
  }

  CompletionBoard& board_;
  const std::size_t index_;
  Job job_;
  WaitWord seq_;  // one bump per job
  std::thread thread_;  // last: starts once the rest is initialised
};

}  // namespace

struct HostCorunExecutor::Lanes {
  /// `count` lanes; lane i is pinned to core i / 2 when `pinned`.
  Lanes(std::size_t count, bool pinned) : board(count) {
    lanes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      lanes.push_back(std::make_unique<Lane>(
          board, i,
          pinned ? std::optional<std::size_t>(i / 2) : std::nullopt));
    }
  }

  void launch(std::size_t lane, HostGraphProgram& program, NodeId node,
              ThreadTeam& team) {
    ++launched;
    lanes[lane]->launch(program, node, team);
  }

  /// Blocks until at least one completion is posted, then hands every
  /// posted one to done(lane, end_ms).
  template <typename F>
  void collect(F&& done) {
    board.wait(consumed);
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      double end = 0.0;
      if (board.take(lane, end)) {
        ++consumed;
        done(lane, end);
      }
    }
  }

  /// Waits out every op still running, dropping the completions.
  void drain() {
    while (consumed < launched) collect([](std::size_t, double) {});
  }

  CompletionBoard board;  // before the lanes, which post to it
  std::vector<std::unique_ptr<Lane>> lanes;
  std::size_t launched = 0;
  std::size_t consumed = 0;
};

HostCorunExecutor::~HostCorunExecutor() = default;

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
  // what makes per-lane completion slots, per-lane team caches and pinning
  // the lane to its span's first core work.
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
      : programs(programs), primary_busy(cores), overlaid(cores) {}

  const std::vector<HostGraphProgram*>& programs;
  const double t0 = wall_time_ms();
  CoreSet primary_busy;
  CoreSet overlaid;
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
  if (lanes_ == nullptr) lanes_ = std::make_unique<Lanes>(2 * cores_, true);
  Step step(programs, cores_);
  step_ = &step;
  std::vector<StepResult> results;
  try {
    results = run_step_loop(graphs, set);
  } catch (...) {
    // The programs are only borrowed for this call: let every op still on
    // a lane finish before the exception leaves.
    lanes_->drain();
    step_ = nullptr;
    throw;
  }
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
  // the async detour (lane wake + completion wake) would sit on the
  // critical path for nothing. FIFO executors pipeline that latency
  // behind their second slot; without this, serial phases of the adaptive
  // schedule would pay pure overhead against them. Only when no Strategy-4
  // overlay could ride on it (overlays need the dispatcher free): S4 off
  // or unsupported, or nothing else ready in ANY tenant's queue.
  const bool inline_run = !op.overlay && step.primary_busy.empty() &&
                          step.overlaid.empty() && !(s4 && any_ready()) &&
                          span.count() == cores_;

  // One pinned team per disjoint span. Overlays use slot 1 so an overlay
  // whose (width, span) coincides with its primary's never shares the
  // primary's (busy) team. The team is led by whoever launches it — the
  // dispatcher inline, else the lane pinned to the span's lowest core —
  // and its helpers are pinned to the rest of the span, so a width-1 op
  // runs on its leader alone, with no handoff at all. The per-lane cache
  // makes the steady state (same op pattern -> same lane -> same
  // span/width) a pointer compare instead of a pool lookup, and keeps
  // re-waking the helpers already pinned there.
  ThreadTeam* team;
  LaneTeam& cached = lane_teams_[slot];
  const std::size_t team_slot = op.overlay ? 1 : 0;
  if (cached.team != nullptr && cached.width == span.count() &&
      cached.slot == team_slot && cached.span == span) {
    team = cached.team;
  } else {
    team = &pool_.team_pinned(span.count(), span, team_slot);
    cached = LaneTeam{team, span.count(), team_slot, span};
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
  // The lane that owns this span's first core leads the op and writes its
  // own completion slot — no shared queue anywhere.
  lanes_->launch(slot, program, node_id, *team);
  return std::nullopt;
}

void HostCorunExecutor::wait(std::vector<OpCompletion>& out) {
  const double t0 = step_->t0;
  lanes_->collect([&](std::size_t lane, double end) {
    out.push_back(
        OpCompletion{lane, end - t0, end - in_flight()[lane].start_ms});
  });
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

  if (fifo_lanes_ == nullptr || fifo_lanes_->lanes.size() < slots)
    fifo_lanes_ = std::make_unique<Lanes>(slots, false);
  Lanes& lanes = *fifo_lanes_;
  std::vector<NodeId> slot_node(slots, kInvalidNode);
  std::vector<double> slot_start(slots, 0.0);
  std::size_t busy = 0;

  // The program is only borrowed for this call: on an exception, let every
  // op still on a lane finish before it leaves, so no stale completion
  // reaches the next step.
  try {
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
        // Slot s always rides lane s: FIFO slots are long-lived, so the same
        // lane keeps leading the same team.
        lanes.launch(s, program, node_id, team);
      }

      if (busy == 0) {
        throw std::logic_error(
            "HostCorunExecutor: FIFO deadlock — nothing running but nodes "
            "remain");
      }
      lanes.collect([&](std::size_t s, double end) {
        const NodeId done = slot_node[s];
        slot_node[s] = kInvalidNode;
        --busy;
        stats.service_ms += end - slot_start[s];
        stats.trace.record(end - t0, /*is_launch=*/false, done,
                           g.node(done).kind, static_cast<int>(busy));
        std::vector<NodeId> newly;
        tracker.mark_done(done, newly);
        for (NodeId nid : newly) ready.push_back(nid);
      });
    }
  } catch (...) {
    lanes.drain();
    throw;
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
