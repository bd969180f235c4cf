// HostCorunExecutor: the native half of the adaptive step loop
// (core/step_loop.hpp) — one training step on REAL threads running REAL
// tensor kernels (ops/kernels.hpp via HostGraphProgram), scheduled by the
// same loop and Strategy 1-4 AdmissionPolicy that drive the simulator's
// CorunScheduler. This class supplies what a physical machine does
// differently:
//   - a core map of the host (idle / primary / overlaid);
//   - launches: every admitted op gets a ThreadTeam of the chosen width
//     pinned to a disjoint span of host cores (TeamPool::team_pinned) and
//     is handed to the lane of the span's lowest core, so the dispatcher
//     never blocks on a kernel — except a saturating launch on an
//     otherwise-empty machine, which runs inline on the dispatcher. Lanes
//     are threads that live as long as the executor; a lane leads the team
//     it launches (runs chunk 0 itself), so a width-w op occupies w threads.
//     The leader of an inline launch is the dispatcher, which is not
//     pinned: its chunk 0 may share a core with one of the team's helpers;
//   - completions: lanes post to a sharded completion board the
//     dispatcher drains, several per wake;
//   - time: a running op's remaining time and a completion's expected time
//     come from an online calibration between the controller's predicted
//     timescale and host wall-clock, which the Strategy 3 throughput guard
//     and the interference recorder consume.
// Strategy 4 overlays small ops onto the cores of compute-bound primaries
// (hyper-thread-context sharing on the real machine; plain core sharing
// when SMT is off — either way, real contention).
//
// Multi-tenancy: run_step_multi schedules N independent training graphs
// (one HostGraphProgram per tenant) over ONE shared core map, ops
// interleaving under the policy's weighted-deficit walk. Single-step
// run_step is the N=1 case of the same loop.
//
// What it measures: real step wall-clock under runtime concurrency control,
// including every cost the simulator only models — team reuse vs. spawn,
// cache contention between co-runners, dispatch serialization. See
// docs/HOST_EXECUTION.md for how this path relates to the simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/step_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ops/host_program.hpp"
#include "threading/team_pool.hpp"

namespace opsched {

struct HostCorunOptions {
  /// Cores the executor schedules over; 0 means the pool's max width.
  std::size_t cores = 0;
  /// EWMA weight of the newest (wall ms / predicted ms) calibration sample.
  double calibration_alpha = 0.3;
  /// Admission decisions taken per dispatcher wake (AdmissionPolicy::
  /// next_launch_batch's max_launches): up to this many launches share one
  /// running-view snapshot and one walk set-up instead of paying them per
  /// launch. 1 reproduces the historical decision-per-wake loop exactly;
  /// any value yields bit-identical step checksums (scheduling order never
  /// affects results — the differential suite pins this).
  std::size_t decision_batch = 4;
};

/// Lifetime: keeps references to `controller` and `pool`; both must outlive
/// the executor. The HostGraphPrograms passed to the run_step entry points
/// are only borrowed for the call.
///
/// Thread-safety: the run_step entry points must be called from one thread
/// at a time. The executor starts its lane threads on its first step of
/// each kind and joins them when it is destroyed; no step spawns a thread
/// after that, apart from the teams TeamPool creates on a (width, span)'s
/// first use.
class HostCorunExecutor : public AdaptiveStepLoop {
 public:
  HostCorunExecutor(const ConcurrencyController& controller, TeamPool& pool,
                    RuntimeOptions options, HostCorunOptions host = {});
  ~HostCorunExecutor() override;

  /// One adaptive step (Strategies per options.strategies) over
  /// program.graph(). Returns wall-clock StepResult with the deterministic
  /// step checksum filled in.
  StepResult run_step(HostGraphProgram& program);

  /// One CO-LOCATED adaptive step over N tenants: every program's graph
  /// runs to completion on the shared core map, ops interleaving across
  /// tenants under the weighted-deficit admission walk. `weights[t]` is
  /// tenant t's relative claim on contended cores (missing/non-positive
  /// entries default to 1.0). Returns one StepResult per tenant, in input
  /// order: time_ms is that tenant's makespan (step start to its last
  /// completion), service_ms the kernel wall-time it consumed, checksum its
  /// private deterministic step checksum.
  std::vector<StepResult> run_step_multi(
      const std::vector<HostGraphProgram*>& programs,
      const std::vector<double>& weights = {});

  /// Stable-identity form for churn-tolerant serving: slot t of `programs`
  /// carries stable id set.ids[t] (the serving layer passes job ids), so
  /// learned state and — with set.preserve_service — the fairness deficit
  /// follow the job across between-step tenant-set reconfigurations. The
  /// weights overload is this one with TenantSet::slots (ids = slot
  /// indices, per-step service reset).
  std::vector<StepResult> run_step_multi(
      const std::vector<HostGraphProgram*>& programs, const TenantSet& set);

  /// Baseline step under a uniform (inter_op, intra_op) FIFO policy: ready
  /// ops run in arrival order, at most `inter_op` concurrently, each on an
  /// UNPINNED team of `intra_op` threads — the OS scatters them, as with
  /// TensorFlow's executor.
  StepResult run_step_fifo(HostGraphProgram& program, int inter_op,
                           int intra_op);

  /// The paper's recommendation baseline (inter=1, intra=all cores).
  StepResult run_step_recommendation(HostGraphProgram& program);

  /// Attaches fleet telemetry. `reg` (may be null) receives the host_*
  /// metric family — launch counters by mode, dispatch handoff latency,
  /// lane occupancy — qualified with {shard="<instance>"} when `instance`
  /// is non-empty; the embedded AdmissionPolicy's policy_* family attaches
  /// alongside. `trace` (may be null) receives one wall-clock span per
  /// completed op under process `trace_pid`, one track per tenant×lane
  /// ("tenant T core C [+ovl]"). Both are observers: attaching never
  /// changes a scheduling decision or a checksum.
  void attach_observability(obs::Registry* reg, obs::TraceCollector* trace,
                            std::uint32_t trace_pid = 1,
                            const std::string& instance = "");

  /// Wall-ms per predicted-ms learned so far (0 until the first
  /// completion). Exposed for tests and the benchmarks' sanity output.
  double calibration() const noexcept { return calib_; }

  std::size_t cores() const noexcept { return cores_; }

 private:
  /// Per-step dispatcher state (programs, clock origin, core map).
  struct Step;
  /// Lane threads and the completion board they post to.
  struct Lanes;

  std::size_t width() const override { return cores_; }
  double now_ms() const override;
  CoreSet idle_cores() const override;
  bool overlays_supported() const override { return cores_ >= 2; }
  void running_views(std::vector<RunningOpView>& out) const override;
  std::optional<OpCompletion> launch(std::size_t slot, InFlightOp& op,
                                     const Node& node,
                                     const Candidate& c) override;
  void wait(std::vector<OpCompletion>& out) override;
  double settle(const InFlightOp& op, const OpCompletion& c) override;

  /// Persistent-team affinity: the last team each lane launched, so a lane
  /// re-running the same (width, span) skips the TeamPool lock + hash and
  /// keeps waking the workers already pinned (and cache-warm) there.
  struct LaneTeam {
    ThreadTeam* team = nullptr;
    std::size_t width = 0;
    std::size_t slot = 0;
    CoreSet span;
  };

  const ConcurrencyController& controller_;
  TeamPool& pool_;
  HostCorunOptions host_;
  std::size_t cores_;
  Step* step_ = nullptr;  // the running step's state
  /// Adaptive lanes: lanes 2c and 2c+1 are pinned to core c and lead the
  /// primary and the overlay whose span starts there.
  std::unique_ptr<Lanes> lanes_;
  /// FIFO lanes, one per slot, unpinned; grown to the widest inter_op seen.
  std::unique_ptr<Lanes> fifo_lanes_;
  double calib_ = 0.0;  // EWMA of wall/predicted; 0 = no sample yet
  std::vector<LaneTeam> lane_teams_;  // one per lane, persists across steps

  /// Telemetry cells resolved at attach_observability time (all null when
  /// detached); see that method for the contract.
  obs::Registry* metrics_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  std::uint32_t trace_pid_ = 1;
  obs::Counter* m_inline_launches_ = nullptr;
  obs::Counter* m_team_launches_ = nullptr;
  obs::Counter* m_overlay_launches_ = nullptr;
  obs::Histogram* m_launch_ms_ = nullptr;
  obs::Histogram* m_lanes_inflight_ = nullptr;
  /// Highest tenant count already given trace track names, so track
  /// metadata is emitted once per population growth instead of per step.
  std::size_t trace_named_tenants_ = 0;
};

}  // namespace opsched
