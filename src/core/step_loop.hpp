// AdaptiveStepLoop: the one multi-tenant adaptive step loop — the paper's
// operation scheduler that replaces TensorFlow's executor (Section III-D):
// a ready queue per tenant, Strategies 1-4 through the shared
// AdmissionPolicy, and completion-driven launches. Both execution
// substrates run it:
//   - CorunScheduler: the simulated KNL (SimMachine, virtual clock);
//   - HostCorunExecutor: real threads running real kernels (wall clock).
//
// Per wake (step start and after every completion batch):
//   Strategies 1-3: while cores are idle, ask the policy for a batch of
//   launches against one running-view snapshot and launch each on the
//   lowest idle cores. The simulator decides one launch per snapshot
//   (decision batch 1): batching decides later picks against a snapshot
//   that has not seen the earlier picks' real rates, which changes the
//   simulated schedule. The host amortizes the snapshot over
//   HostCorunOptions::decision_batch picks, which never changes numerics.
//   Strategy 4: when fewer than kOverlayTriggerIdleCores cores are idle,
//   overlay the smallest ready ops onto the cores of compute-bound
//   primaries that carry no overlay yet.
// Completions return their cores, book service and makespan, feed the
// interference recorder (overlays exempt: they slow down by design) and
// release newly-ready successors into their tenant's queue.
//
// A substrate supplies only what differs between a simulated and a
// physical machine: which cores are idle, how an op launches, how
// completions arrive, the remaining time of the running ops, and the
// interference-free time a completion is judged against.
#pragma once

#include <optional>
#include <vector>

#include "core/admission_policy.hpp"
#include "machine/sim_machine.hpp"  // EventTrace

namespace opsched {

/// Outcome of one training step — simulated (CorunScheduler, FifoExecutor)
/// or native (HostCorunExecutor). On the simulated path `time_ms` is
/// virtual clock time; on the host path it is wall-clock time and
/// `checksum` carries the deterministic step checksum.
struct StepResult {
  double time_ms = 0.0;
  EventTrace trace;
  /// Scheduler statistics for the step.
  std::size_t ops_run = 0;
  std::size_t corun_launches = 0;    // launches while something else ran
  std::size_t overlay_launches = 0;  // Strategy 4 overlays
  std::size_t cache_hits = 0;        // decision-cache reuses
  std::size_t guard_fallbacks = 0;   // S2 delta-guard rewrites
  double mean_corun = 0.0;
  /// Host executors only: deterministic checksum over every node's outputs
  /// (0.0 on the simulated path, which never touches tensor values).
  double checksum = 0.0;
  /// Sum of the completed ops' individual durations (wall on the host path,
  /// virtual on the simulated one). On the multi-tenant paths this is the
  /// machine time each tenant actually consumed — the basis of the fairness
  /// metrics; time_ms is the tenant's makespan, which overlaps with other
  /// tenants'.
  double service_ms = 0.0;
  /// Host executors only: wall time the dispatcher spent INSIDE admission
  /// decisions this step (building running views + policy calls), i.e. the
  /// scheduler overhead the micro_dispatch bench divides by time_ms. 0.0 on
  /// the simulated path, whose decisions take no virtual time.
  double sched_ms = 0.0;
};

/// One op in flight during an adaptive step. The loop keeps them in a
/// slot table indexed by 2 * (lowest core of the span) + overlay, which is
/// collision-free: a primary's lowest core stays busy until it completes,
/// and a core carries at most one overlay.
struct InFlightOp {
  bool live = false;
  std::size_t tenant = 0;
  NodeId node = kInvalidNode;
  OpKey key;
  /// Policy arena id from the admission decision (see RunningOpView).
  std::uint32_t op_token = kNoOpToken;
  CoreSet cores;
  bool overlay = false;
  /// The ops in flight when this one launched (interference recorder).
  std::vector<TenantOpKey> corunners;
  // Filled by the substrate at launch.
  double mem_intensity = 0.0;  // Strategy 4 eligibility of a primary
  double predicted_ms = 0.0;   // host: controller-timescale prediction
  double start_ms = 0.0;       // host: wall-clock launch time
};

/// One finished op, as its substrate reports it.
struct OpCompletion {
  std::size_t slot = 0;
  double end_ms = 0.0;     // on the step clock (now_ms)
  double actual_ms = 0.0;  // the op's own duration
  double solo_ms = 0.0;    // simulator: interference-free duration
};

/// Thread-safety: NOT thread-safe. A step mutates the learned state (the
/// embedded AdmissionPolicy's decision cache and interference record), so
/// steps must be driven from one thread at a time.
class AdaptiveStepLoop {
 public:
  virtual ~AdaptiveStepLoop() = default;

  /// Bad-interference pairs recorded so far (survives across steps, as in
  /// the paper: "Our runtime can record such cases and avoid co-running
  /// such operations in the future training steps").
  std::size_t recorded_bad_pairs() const {
    return policy_.recorded_bad_pairs();
  }

  /// Clears learned state (decision cache + interference record).
  void reset_learning() { policy_.reset_learning(); }

  /// Forgets stable tenant id `id`'s learned state and fairness deficit
  /// (see AdmissionPolicy::retire_tenant) — the serving layer calls this
  /// when a job leaves for good.
  void retire_tenant(std::size_t id) { policy_.retire_tenant(id); }

  /// The Strategy 1-4 admission logic this loop drives (each substrate
  /// owns its own instance). Exposed for the drift tests.
  const AdmissionPolicy& policy() const noexcept { return policy_; }

 protected:
  AdaptiveStepLoop(const ConcurrencyController& controller,
                   RuntimeOptions options, std::size_t decision_batch)
      : options_(options),
        policy_(controller, options),
        decision_batch_(decision_batch) {}

  /// Runs every tenant's graph to completion, co-located on the substrate;
  /// one StepResult per tenant in input order (time_ms = the tenant's
  /// makespan on the step clock). Throws std::invalid_argument when `set`
  /// does not match `graphs`.
  std::vector<StepResult> run_step_loop(const std::vector<const Graph*>& graphs,
                                        const TenantSet& set);

  // ---- substrate half ----------------------------------------------------
  /// Cores the substrate schedules over.
  virtual std::size_t width() const = 0;
  /// The step clock: virtual time, or wall time since step start.
  virtual double now_ms() const = 0;
  /// Cores free for a primary launch.
  virtual CoreSet idle_cores() const = 0;
  /// Whether Strategy 4 may overlay at all on this machine.
  virtual bool overlays_supported() const { return true; }
  /// Appends the in-flight ops as the policy sees them.
  virtual void running_views(std::vector<RunningOpView>& out) const = 0;
  /// Starts `op` (already booked in `slot`) at `c`'s width on `op.cores`;
  /// returns its completion when it ran to completion inline.
  virtual std::optional<OpCompletion> launch(std::size_t slot, InFlightOp& op,
                                             const Node& node,
                                             const Candidate& c) = 0;
  /// Blocks until at least one in-flight op completed; appends them all.
  virtual void wait(std::vector<OpCompletion>& out) = 0;
  /// Releases a completed op's resources; returns the duration it was
  /// expected to take alone, against which the interference recorder
  /// judges its actual duration.
  virtual double settle(const InFlightOp& op, const OpCompletion& c) = 0;

  /// The in-flight slot of the op launched on `cores`.
  static std::size_t slot_of(const CoreSet& cores, bool overlay) {
    return 2 * cores.lowest() + (overlay ? 1 : 0);
  }
  const std::vector<InFlightOp>& in_flight() const noexcept {
    return in_flight_;
  }
  std::size_t in_flight_count() const noexcept { return in_flight_count_; }
  /// True while any tenant has a ready op queued.
  bool any_ready() const;

  RuntimeOptions options_;
  AdmissionPolicy policy_;

 private:
  /// Strategies 1-3: launches until the policy asks to wait.
  void admit();
  /// Strategy 4: overlays until nothing eligible remains.
  void overlay();
  void launch_op(std::size_t tenant, const AdmissionDecision& d,
                 const CoreSet& span, bool overlay);
  void complete(const OpCompletion& c);
  /// Refreshes views_ from the substrate.
  const std::vector<RunningOpView>& snapshot();

  std::size_t decision_batch_;

  // Per-step state (buffers are reused across steps).
  const std::vector<const Graph*>* graphs_ = nullptr;
  std::vector<StepResult> results_;
  std::vector<ReadyTracker> trackers_;
  std::vector<ReadyQueue> ready_;
  std::vector<TenantReadyView> tenant_views_;
  std::vector<double> last_completion_;
  std::size_t remaining_ = 0;
  double sched_ms_ = 0.0;
  std::vector<InFlightOp> in_flight_;
  std::size_t in_flight_count_ = 0;
  std::vector<RunningOpView> views_;
  std::vector<AdmissionStats> round_stats_;
  std::vector<MultiAdmissionDecision> batch_;
  std::vector<OpCompletion> done_;
  std::vector<NodeId> newly_ready_;
};

}  // namespace opsched
