// train_host: one client in a closed loop drives one ResNet-50 training job
// (resnet50_host, batch 2, 733 ops) on real kernels: Runtime::profile_host
// once, then one timed Runtime::run_step_host call per step. Kernel-bound —
// the dispatcher is ~2% of a step and no serve layer runs — so kernel,
// team-handoff and co-run (Strategy 3/4) changes show here.
//
// Set-up profiles cold; the timed phase runs on a runtime warm-started from
// the stored host profile (see common.hpp).
//
// Every step's checksum must equal the serial reference
// (HostGraphProgram::run_node_reference over the whole graph).
#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "core/runtime.hpp"
#include "models/zoo.hpp"

namespace perfbench {
namespace {

using opsched::Graph;
using opsched::HostGraphProgram;
using opsched::Runtime;
using opsched::StepResult;

constexpr std::int64_t kBatch = kTrainHostBatch;
constexpr int kWarmupSteps = 8;
/// The client's work is cut into jobs of this many steps (the closed-loop
/// analogue of a training job's turnaround).
constexpr std::size_t kStepsPerJob = 5;
/// Every step does the same work, but on a shared machine other processes
/// slow stretches of a run by 10-30% for several seconds at a time. The
/// untraced run is therefore cut into windows of this many steps (whole
/// jobs), and the end-to-end metrics are taken over the faster half of the
/// windows, ranked by their median call time.
constexpr std::size_t kWindowSteps = 40;
/// The client's deadline for a step, as a multiple of the run's median step:
/// slo_attainment is then the share of steps free of jitter beyond it.
constexpr double kDeadlineFactor = 1.5;
constexpr double kStepTailPct = 95.0;
constexpr double kJobTailPct = 80.0;
/// Traced runs alternate untraced and traced slices of this length, so the
/// tracing overhead is not confounded with slow drift in host speed.
constexpr double kSliceS = 1.0;

struct Setup {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<HostGraphProgram> program;  // borrows *graph
  std::unique_ptr<Runtime> runtime;
  opsched::ProfilingReport profile;
  double profile_s = 0.0;

  /// Frees dependents before what they borrow.
  void release() {
    runtime.reset();
    program.reset();
    graph.reset();
  }
};

/// Graph build, tensor binding, profiling and warm-up steps — the work
/// setup_s times. Profiles cold when `profile` is empty, else starts from
/// the stored profile at that path. Warm-up checksums are checked like timed
/// ones.
Setup set_up(std::uint64_t seed, double reference, const std::string& profile,
             Report& report, BenchSpans& spans) {
  Setup s;
  s.graph = std::make_unique<Graph>(opsched::models::build_resnet50_host(kBatch));
  s.program = std::make_unique<HostGraphProgram>(*s.graph, seed);
  s.runtime = std::make_unique<Runtime>(opsched::MachineSpec::knl());
  if (!profile.empty()) load_host_profile(*s.runtime, profile);
  const double p0 = now_s();
  s.profile = s.runtime->profile_host(*s.program, /*repeats=*/1);
  const double p1 = now_s();
  s.profile_s = p1 - p0;
  spans.add("Runtime::profile_host", "perf", 0, p0, p1);
  for (int i = 0; i < kWarmupSteps; ++i) {
    const StepResult r = s.runtime->run_step_host(*s.program);
    report.check(r.checksum == reference,
                 "train_host: warm-up checksum differs from serial reference");
  }
  return s;
}

/// Per-step books of one slice kind (untraced or traced).
struct Books {
  std::vector<double> step_ms, request_ms;
  double time_ms = 0.0, service_ms = 0.0, sched_ms = 0.0;
  double corun = 0.0, overlay = 0.0, guard = 0.0;

  void add(const StepResult& r, double request) {
    step_ms.push_back(r.time_ms);
    request_ms.push_back(request);
    time_ms += r.time_ms;
    service_ms += r.service_ms;
    sched_ms += r.sched_ms;
    corun += static_cast<double>(r.corun_launches);
    overlay += static_cast<double>(r.overlay_launches);
    guard += static_cast<double>(r.guard_fallbacks);
  }
};

/// Which of the whole windows of `call_ms` (kWindowSteps calls each) are
/// the faster half by median.
std::vector<bool> fast_windows(const std::vector<double>& call_ms) {
  const std::size_t n = call_ms.size() / kWindowSteps;
  std::vector<double> medians;
  for (std::size_t w = 0; w < n; ++w) {
    const auto first =
        call_ms.begin() + static_cast<std::ptrdiff_t>(w * kWindowSteps);
    medians.push_back(median_of({first, first + kWindowSteps}));
  }
  std::vector<double> sorted = medians;
  std::sort(sorted.begin(), sorted.end());
  std::vector<bool> fast(n, false);
  for (std::size_t w = 0; w < n; ++w)
    fast[w] = medians[w] <= sorted[(n - 1) / 2];
  return fast;
}

/// The elements of `xs` whose window (`per_window` elements each) is kept.
std::vector<double> kept(const std::vector<double>& xs, std::size_t per_window,
                         const std::vector<bool>& fast) {
  std::vector<double> out;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (i / per_window < fast.size() && fast[i / per_window])
      out.push_back(xs[i]);
  return out;
}

}  // namespace

Report run_train_host(const Options& opt) {
  Report report;
  opsched::obs::TraceCollector trace;
  opsched::obs::Registry registry;
  BenchSpans spans(opt.trace ? &trace : nullptr);

  const double reference = serial_reference(
      opsched::models::build_resnet50_host(kBatch), opt.seed);

  std::vector<double> setup_s, profile_s;
  Setup s;
  opsched::ProfilingReport cold;
  for (int k = 0; k < kSetups; ++k) {
    s.release();  // free the previous set-up before timing the next
    const double t0 = now_s();
    s = set_up(opt.seed, reference, "", report, spans);
    setup_s.push_back(now_s() - t0);
    profile_s.push_back(s.profile_s);
    cold = s.profile;
  }
  s.release();
  s = set_up(opt.seed, reference, opt.host_profile, report, spans);
  report.check(s.profile.unique_ops == 0,
               "train_host: the stored host profile misses some ops");
  Runtime& rt = *s.runtime;

  Books untraced, traced;
  std::vector<double> turnaround_ms;
  double job_start = now_s();
  std::size_t job_steps = 0;
  bool tracing = false;
  double slice_end = 0.0;

  const double begin = now_s();
  const double end = begin + opt.seconds;
  for (double t = begin; t < end; t = now_s()) {
    if (opt.trace && t >= slice_end) {
      tracing = !tracing;
      slice_end = t + kSliceS;
      rt.host_executor().attach_observability(tracing ? &registry : nullptr,
                                              tracing ? &trace : nullptr, 1);
    }
    const double a = now_s();
    const StepResult r = rt.run_step_host(*s.program);
    const double b = now_s();
    if (tracing) spans.add("Runtime::run_step_host", "step", 0, a, b);

    ++report.attempted;
    if (r.checksum != reference) ++report.failed;
    (tracing ? traced : untraced).add(r, (b - a) * 1e3);
    if (++job_steps == kStepsPerJob) {
      turnaround_ms.push_back((b - job_start) * 1e3);
      job_start = b;
      job_steps = 0;
    }
  }
  rt.host_executor().attach_observability(nullptr, nullptr);

  report.check(report.failed == 0,
               "train_host: step checksum differs from serial reference");
  report.fact("train_host.reference_checksum", reference);
  report.fact("train_host.nodes", static_cast<double>(s.graph->size()));

  if (!opt.trace) {
    const std::vector<bool> fast = fast_windows(untraced.request_ms);
    const std::vector<double> call_ms =
        kept(untraced.request_ms, kWindowSteps, fast);
    double call_s = 0.0;
    for (double ms : call_ms) call_s += ms * 1e-3;
    report.fact("train_host.windows", static_cast<double>(fast.size()));
    report.fact("train_host.all_windows_request_ms_p50",
                median_of(untraced.request_ms));

    EndToEnd e;
    e.setup_s = median_of(setup_s);
    e.train_samples_per_s =
        static_cast<double>(call_ms.size() * kBatch) / call_s;
    e.step_ms = summarize(kept(untraced.step_ms, kWindowSteps, fast),
                          kStepTailPct, "step_ms", report);
    e.request_ms = summarize(call_ms, kStepTailPct, "request_ms", report);
    const double deadline = kDeadlineFactor * e.request_ms.p50;
    e.slo_attainment =
        static_cast<double>(std::count_if(
            call_ms.begin(), call_ms.end(),
            [&](double ms) { return ms <= deadline; })) /
        static_cast<double>(call_ms.size());
    report.fact("train_host.deadline_ms", deadline);
    e.job_turnaround_ms =
        summarize(kept(turnaround_ms, kWindowSteps / kStepsPerJob, fast),
                  kJobTailPct, "job_turnaround_ms", report);
    e.replay_requests_per_s = static_cast<double>(call_ms.size()) / call_s;
    e.peak_rss_mb = peak_rss_mb();
    report.set_end_to_end(e);
    return report;
  }

  const double steps = static_cast<double>(traced.step_ms.size());
  const double cores = static_cast<double>(rt.host_executor().cores());
  PerLayer p;
  p.perf_profile_s = median_of(profile_s);
  p.perf_profiled_ops = static_cast<double>(cold.unique_ops);
  p.perf_samples = static_cast<double>(cold.total_samples);
  p.ops_kernel_ms_per_step = traced.service_ms / steps;
  p.ops_core_busy_share = traced.service_ms / (traced.time_ms * cores);
  p.core_dispatch_ms_per_step = traced.sched_ms / steps;
  p.core_dispatch_share = traced.sched_ms / traced.time_ms;
  read_registry(registry.snapshot(), p);
  p.core_corun_launches_per_step = traced.corun / steps;
  p.core_overlay_launches_per_step = traced.overlay / steps;
  p.core_guard_fallbacks_per_step = traced.guard / steps;
  const double base = median_of(untraced.step_ms);
  const double with = median_of(traced.step_ms);
  p.trace_overhead_pct = (with - base) / base * 100.0;
  report.fact("trace.untraced_step_ms_p50", base);
  report.fact("trace.traced_step_ms_p50", with);
  report.fact("trace.spans", static_cast<double>(trace.size()));
  if (!opt.trace_out.empty()) trace.write(opt.trace_out);
  report.set_per_layer(p);
  return report;
}

}  // namespace perfbench
