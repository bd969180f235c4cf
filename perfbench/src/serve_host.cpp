// serve_host: an open loop on the wall clock through one SchedulerService on
// the host substrate, driven inline (run_cycle) by this thread. The mix:
//   - one inference tenant, the forward view of resnet50_host at batch 1
//     with a width floor, fed by a seeded Poisson trace well below capacity;
//   - beside it a closed loop of mnist_host training jobs: one job is always
//     resident, and the next is submitted the moment the previous completes,
//     so job turnaround is measured under inference interference.
// Batch-1 ops are small, so dispatch, team handoff and the service cycle are
// a larger share of each request than on train_host. Set-up profiles cold;
// the timed phase starts from the stored host profile (see common.hpp).
//
// Not in BENCHMARK.json: on a shared 4-core host its request tail spread
// wider than any bound the benchmark may set (see README.md); run it with
// run.py or steady.py --workloads serve_host.
//
// Checks: the service runs with verify_checksums on, every job's checksum
// equals its serial reference, every job ends terminal, every request is
// answered or counted as failed.
#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "core/runtime.hpp"
#include "models/models.hpp"
#include "models/zoo.hpp"
#include "serve/service.hpp"
#include "serve/traffic.hpp"
#include "util/clock.hpp"

namespace perfbench {
namespace {

using opsched::Graph;
using opsched::Runtime;
namespace serve = opsched::serve;

constexpr std::int64_t kTrainBatch = kServeTrainBatch;
constexpr int kTrainSteps = 25;
constexpr double kRateRps = 20.0;
constexpr double kDeadlineMs = 40.0;
constexpr int kWidthFloor = 2;
constexpr int kWarmupRequests = 6;
constexpr double kRequestTailPct = 90.0;
constexpr double kStepTailPct = 95.0;
constexpr double kJobTailPct = 80.0;
constexpr std::uint64_t kInferSeed = 0x1f00ULL;

struct Inputs {
  Graph train;
  Graph infer;
  double train_reference = 0.0;
  double infer_reference = 0.0;
};

serve::JobSpec training_job(const Graph& g, std::uint64_t seed) {
  serve::JobSpec spec;
  spec.name = "mnist_host";
  spec.graph = g;
  spec.steps = kTrainSteps;
  spec.seed = seed;
  return spec;
}

serve::JobSpec inference_job(const Graph& g, serve::ArrivalTrace arrivals) {
  serve::JobSpec spec;
  spec.name = "resnet50_host/forward";
  spec.kind = serve::JobKind::kInference;
  spec.graph = g;
  spec.arrivals = std::move(arrivals);
  spec.deadline_ms = kDeadlineMs;
  spec.width_floor = kWidthFloor;
  spec.seed = kInferSeed;
  return spec;
}

struct Setup {
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<serve::SchedulerService> service;  // borrows *runtime
  serve::JobId train_job = serve::kInvalidJob;

  void release() {
    service.reset();
    runtime.reset();
  }
};

/// Graph build, runtime and service construction, the first admissions
/// (which profile both graphs: cold when `profile` is empty, else nothing,
/// from the stored profile at that path) and a short warm-up request burst.
Setup set_up(const Options& opt, const std::string& profile,
             opsched::obs::Registry* registry,
             opsched::obs::TraceCollector* trace, Report& report) {
  Setup s;
  const Graph train = opsched::build_mnist_host(kTrainBatch);
  const Graph infer =
      opsched::models::zoo_find("resnet50_host")->build_forward(1);
  s.runtime = std::make_unique<Runtime>(opsched::MachineSpec::knl());
  if (!profile.empty()) load_host_profile(*s.runtime, profile);
  serve::ServiceOptions so;
  so.substrate = serve::Substrate::kHost;
  so.clock = serve::ClockMode::kWall;
  so.verify_checksums = true;
  // The mix always co-runs: admit the next training job beside the
  // inference tenant whatever their profiled widths add up to.
  so.admission.capacity_factor = 4.0;
  so.metrics = registry;
  so.trace = trace;
  s.service = std::make_unique<serve::SchedulerService>(*s.runtime, so);
  s.train_job = s.service->submit(training_job(train, opt.seed));
  serve::ArrivalTrace warm;
  for (int i = 0; i < kWarmupRequests; ++i) warm.push_back(5.0 * i);
  const serve::JobId w = s.service->submit(inference_job(infer, warm));
  while (!serve::job_state_terminal(s.service->job_record(w).state))
    s.service->run_cycle();
  report.check(s.service->job_record(w).state == serve::JobState::kCompleted,
               "serve_host: warm-up inference job did not complete");
  return s;
}

/// One timed open-loop phase on a set-up service.
struct Phase {
  std::vector<double> request_ms, request_wait_ms, step_ms, turnaround_ms;
  std::vector<double> cycle_overhead_ms;
  double control_ms = 0.0;  // run_cycle wall not covered by the step
  std::size_t requests = 0, on_time = 0, cycles = 0, idle_cycles = 0;
  std::size_t train_steps = 0;
  double wall_s = 0.0;
  /// Control-plane ms spent serving the first and the last tenth of the
  /// trace's requests.
  double first_tenth_ms = 0.0, last_tenth_ms = 0.0;
};

Phase run_phase(Setup& s, const Inputs& in, const Options& opt,
                double seconds, std::uint64_t trace_seed, BenchSpans& spans,
                Report& report) {
  serve::SchedulerService& svc = *s.service;
  Phase ph;
  const serve::ArrivalTrace arrivals =
      serve::poisson_trace(kRateRps, seconds * 1e3, trace_seed);
  ph.requests = arrivals.size();
  const std::size_t tenth = std::max<std::size_t>(1, arrivals.size() / 10);
  report.attempted += arrivals.size();

  serve::JobId train = s.train_job;
  serve::JobRecord train_rec = svc.job_record(train);
  bool train_timed = false;  // submitted inside this phase
  const serve::JobId inf = svc.submit(inference_job(in.infer, arrivals));
  serve::JobRecord inf_rec = svc.job_record(inf);

  const double begin = opsched::wall_time_ms();
  const double give_up = begin + (2.0 * seconds + 5.0) * 1e3;
  while (!serve::job_state_terminal(inf_rec.state)) {
    const double a = opsched::wall_time_ms();
    if (a > give_up && svc.cancel(inf))
      report.check(false, "serve_host: open loop fell behind its trace");
    const bool stepped = svc.run_cycle();
    const double b = opsched::wall_time_ms();
    spans.add("SchedulerService::run_cycle", "serve", 0, a * 1e-3, b * 1e-3);
    ++ph.cycles;
    if (!stepped) ++ph.idle_cycles;

    const serve::JobRecord inf_now = svc.job_record(inf);
    serve::JobRecord train_now = svc.job_record(train);
    const double inf_step = inf_now.run_ms - inf_rec.run_ms;
    const double train_step = train_now.run_ms - train_rec.run_ms;
    if (train_now.steps_done > train_rec.steps_done) {
      ph.step_ms.push_back(train_step);
      ++ph.train_steps;
    }
    const double makespan = std::max(inf_step, train_step);
    const double control = stepped ? std::max(0.0, (b - a) - makespan) : 0.0;
    ph.control_ms += control;
    if (stepped) ph.cycle_overhead_ms.push_back(control);
    if (inf_now.steps_done > inf_rec.steps_done) {
      const auto idx = static_cast<std::size_t>(inf_rec.steps_done);
      const double latency = b - (inf_now.submit_ms + arrivals[idx]);
      ph.request_ms.push_back(latency);
      ph.request_wait_ms.push_back(std::max(0.0, latency - inf_step));
      if (latency <= kDeadlineMs) ++ph.on_time;
      if (idx < tenth) ph.first_tenth_ms += control;
      if (idx >= arrivals.size() - tenth) ph.last_tenth_ms += control;
    }
    if (train_now.state == serve::JobState::kCompleted) {
      report.check(train_now.checksum == in.train_reference,
                   "serve_host: training checksum differs from serial "
                   "reference");
      if (train_timed) ph.turnaround_ms.push_back(train_now.turnaround_ms());
      // Closed loop: the next training job arrives as this one completes.
      // Jobs never overlap, so they share one seed and one reference.
      train = svc.submit(training_job(in.train, opt.seed));
      train_now = svc.job_record(train);
      train_timed = true;
    }
    inf_rec = inf_now;
    train_rec = train_now;
  }
  ph.wall_s = (opsched::wall_time_ms() - begin) * 1e-3;
  s.train_job = train;

  report.check(inf_rec.checksum == in.infer_reference,
               "serve_host: inference checksum differs from serial reference");
  const auto answered = static_cast<std::size_t>(inf_rec.steps_done);
  report.check(answered == arrivals.size(),
               "serve_host: requests left unanswered");
  report.failed += arrivals.size() - std::min(answered, arrivals.size());

  // The closed loop leaves one training job running: cancel it, and check
  // that every job the phase saw ended terminal.
  svc.cancel(train);
  while (!serve::job_state_terminal(svc.job_record(train).state))
    svc.run_cycle();
  for (const serve::JobRecord& r : svc.snapshot().jobs)
    report.check(serve::job_state_terminal(r.state),
                 "serve_host: a job did not end terminal");
  return ph;
}

}  // namespace

Report run_serve_host(const Options& opt) {
  Report report;
  opsched::obs::TraceCollector trace;
  opsched::obs::Registry registry;
  BenchSpans no_spans(nullptr);

  Inputs in;
  in.train = opsched::build_mnist_host(kTrainBatch);
  in.infer = opsched::models::zoo_find("resnet50_host")->build_forward(1);
  in.train_reference = serial_reference(in.train, opt.seed);
  in.infer_reference = serial_reference(in.infer, kInferSeed);
  report.fact("serve_host.rate_rps", kRateRps);
  report.fact("serve_host.deadline_ms", kDeadlineMs);

  std::vector<double> setup_s, profile_s;
  double profiled_ops = 0.0, samples = 0.0;
  Setup s;
  for (int k = 0; k < kSetups; ++k) {
    s.release();
    const double t0 = now_s();
    s = set_up(opt, "", nullptr, nullptr, report);
    setup_s.push_back(now_s() - t0);
    double profile_ms = 0.0;
    profiled_ops = 0.0;
    for (const serve::JobRecord& r : s.service->snapshot().jobs) {
      profile_ms += r.profile_ms;
      profiled_ops += static_cast<double>(r.profiled_ops);
    }
    profile_s.push_back(profile_ms * 1e-3);
    samples = static_cast<double>(s.runtime->database().total_samples());
  }
  s.release();

  if (!opt.trace) {
    s = set_up(opt, opt.host_profile, nullptr, nullptr, report);
    const Phase ph =
        run_phase(s, in, opt, opt.seconds, opt.seed, no_spans, report);
    EndToEnd e;
    e.setup_s = median_of(setup_s);
    e.train_samples_per_s =
        static_cast<double>(ph.train_steps * kTrainBatch) / ph.wall_s;
    e.step_ms = summarize(ph.step_ms, kStepTailPct, "step_ms", report);
    e.request_ms =
        summarize(ph.request_ms, kRequestTailPct, "request_ms", report);
    e.slo_attainment = static_cast<double>(ph.on_time) /
                       static_cast<double>(ph.requests);
    e.job_turnaround_ms =
        summarize(ph.turnaround_ms, kJobTailPct, "job_turnaround_ms", report);
    e.replay_requests_per_s =
        static_cast<double>(ph.request_ms.size()) / (ph.control_ms * 1e-3);
    e.peak_rss_mb = peak_rss_mb();
    report.set_end_to_end(e);
    return report;
  }

  // Traced run: the untraced half first, then a second service with the
  // registry and trace attached for the other half, on its own trace seed.
  s = set_up(opt, opt.host_profile, nullptr, nullptr, report);
  const Phase plain =
      run_phase(s, in, opt, opt.seconds / 2, opt.seed, no_spans, report);
  s.release();
  const double t0 = now_s();
  s = set_up(opt, opt.host_profile, &registry, &trace, report);
  const double traced_setup_s = now_s() - t0;
  BenchSpans traced_spans(&trace);
  const Phase ph = run_phase(s, in, opt, opt.seconds / 2, opt.seed + 7,
                             traced_spans, report);
  const serve::ServiceSnapshot snap = s.service->snapshot();
  const opsched::obs::MetricsSnapshot& m = snap.metrics;

  double service_ms = 0.0, corun = 0.0, overlay = 0.0;
  for (const serve::JobRecord& r : snap.jobs) {
    service_ms += r.service_ms;
    corun += static_cast<double>(r.corun_launches);
    overlay += static_cast<double>(r.overlay_launches);
  }
  const double steps = static_cast<double>(snap.steps_run);
  const MergedHistogram step_hist =
      histogram_total(m, "serve_step_ms");
  const MergedHistogram decision_hist =
      histogram_total(m, "policy_decision_ms");
  const double cores = static_cast<double>(s.service->capacity_cores());

  PerLayer p;
  p.perf_profile_s = median_of(profile_s);
  p.perf_profiled_ops = profiled_ops;
  p.perf_samples = samples;
  p.ops_kernel_ms_per_step = service_ms / steps;
  p.ops_core_busy_share = service_ms / (step_hist.sum * cores);
  p.core_dispatch_ms_per_step = decision_hist.sum / steps;
  p.core_dispatch_share = decision_hist.sum / step_hist.sum;
  read_registry(m, p);
  p.core_corun_launches_per_step = corun / steps;
  p.core_overlay_launches_per_step = overlay / steps;
  p.serve_cycles = static_cast<double>(ph.cycles);
  p.serve_idle_cycles = static_cast<double>(ph.idle_cycles);
  p.serve_cycle_overhead_ms_p50 = median_of(ph.cycle_overhead_ms);
  p.serve_request_wait_ms_p50 = median_of(ph.request_wait_ms);
  p.serve_reconfigurations = static_cast<double>(snap.reconfigurations);
  const double tenth =
      static_cast<double>(std::max<std::size_t>(1, ph.requests / 10));
  p.serve_wall_us_per_request_first = ph.first_tenth_ms * 1e3 / tenth;
  p.serve_wall_us_per_request_last = ph.last_tenth_ms * 1e3 / tenth;
  const double base = median_of(plain.request_ms);
  const double with = median_of(ph.request_ms);
  p.trace_overhead_pct = (with - base) / base * 100.0;
  report.fact("trace.untraced_request_ms_p50", base);
  report.fact("trace.traced_request_ms_p50", with);
  report.fact("trace.traced_setup_s", traced_setup_s);
  report.fact("trace.spans", static_cast<double>(trace.size()));
  if (!opt.trace_out.empty()) trace.write(opt.trace_out);
  report.set_per_layer(p);
  return report;
}

}  // namespace perfbench
