// fleet_sim: a 4-shard ClusterService of simulated KNL machines on the
// virtual clock, driven inline (run_pump) by this thread. mnist_host
// training jobs arrive as a seeded open-loop stream across the whole trace,
// one at a seeded instant in each of kJobs equal slots; four inference
// tenants (resnet50_host forward, batch 1) follow seeded diurnal traces.
// Set-up builds every graph and trace and profiles the graphs once; each
// replay then runs a fresh fleet whose shards start from that profile. No
// kernels or worker threads run: all wall time goes to the cluster, the
// service, AdmissionPolicy and the simulator, so replay_requests_per_s is
// the control plane's cost. Every virtual-clock metric is a pure function of
// the seed: the run replays the same inputs several times and fails unless
// the books agree bit for bit.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "core/runtime.hpp"
#include "models/models.hpp"
#include "models/zoo.hpp"
#include "serve/cluster_service.hpp"
#include "serve/traffic.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using opsched::Graph;
namespace serve = opsched::serve;

constexpr std::size_t kShards = 4;
constexpr std::size_t kTenants = 4;
constexpr double kTraceMs = 120000.0;
/// Set-up warms up on the first this-many ms of the trace.
constexpr double kWarmupMs = 4000.0;
/// Untraced timed replays replay the first this-many ms of the trace.
constexpr double kTimedMs = 30000.0;
constexpr double kDeadlineMs = 100.0;
constexpr int kWidthFloor = 8;
/// Training jobs per trace, one per equal slot of the trace (stratified
/// arrivals keep the offered load the same from seed to seed).
constexpr std::size_t kJobs = 360;
constexpr int kJobSteps = 100;
constexpr std::int64_t kTrainBatch = 8;
constexpr double kRequestTailPct = 95.0;
constexpr double kStepTailPct = 90.0;
constexpr double kJobTailPct = 90.0;
/// Replays timed per run at least, whatever --seconds says.
constexpr int kMinTimedReplays = 3;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Inputs {
  /// Profiled once at set-up; every replay's shards start from a copy.
  opsched::PerfDatabase profile;
  opsched::ProfilingReport profiling;
  double profile_s = 0.0;
  std::vector<serve::JobSpec> tenants;
  /// Training jobs in arrival order, with their virtual arrival times.
  std::vector<serve::JobSpec> jobs;
  std::vector<double> job_arrival_ms;
  std::size_t requests = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const Graph infer = opsched::models::zoo_forward("resnet50_host", 1);
  const serve::DiurnalEnvelope env{/*base_rps=*/5.0, /*peak_rps=*/15.0,
                                   /*period_ms=*/10000.0,
                                   /*burst_fraction=*/0.25};
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::JobSpec spec;
    spec.name = "infer" + std::to_string(t);
    spec.kind = serve::JobKind::kInference;
    spec.graph = infer;
    spec.arrivals = serve::diurnal_trace(env, kTraceMs, mix(seed * 8 + t));
    spec.deadline_ms = kDeadlineMs;
    spec.width_floor = kWidthFloor;
    in.requests += spec.arrivals.size();
    in.tenants.push_back(std::move(spec));
  }
  const Graph train = opsched::build_mnist_host(kTrainBatch);
  const double slot = kTraceMs / static_cast<double>(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    const std::uint64_t r = mix(seed * 1000003 + j);
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;  // [0, 1)
    in.job_arrival_ms.push_back((static_cast<double>(j) + u) * slot);
    serve::JobSpec spec;
    spec.name = "train" + std::to_string(j);
    spec.graph = train;
    spec.steps = kJobSteps;
    spec.weight = j % 3 == 0 ? 2.0 : 1.0;
    spec.seed = r;
    in.jobs.push_back(std::move(spec));
  }
  opsched::Runtime rt(opsched::MachineSpec::knl());
  const double t0 = now_s();
  in.profiling = rt.profile_multi({&infer, &train});
  in.profile_s = now_s() - t0;
  in.profile = rt.database();
  return in;
}

/// One replay of the whole trace through a fresh fleet.
struct Replay {
  serve::FleetSnapshot snap;
  double wall_s = 0.0;
  std::size_t pumps = 0;
  std::vector<double> pump_ms;
  /// Per pump: wall seconds since the replay began and the trace size after
  /// it (traced replays only), to attribute wall time to served requests.
  std::vector<std::pair<double, std::size_t>> marks;
};

Replay replay(const Inputs& in, opsched::obs::Registry* registry,
              opsched::obs::TraceCollector* trace, BenchSpans& spans) {
  serve::ClusterServiceOptions opt;
  opt.num_shards = kShards;
  opt.service.substrate = serve::Substrate::kSimulated;
  opt.service.clock = serve::ClockMode::kVirtual;
  opt.service.admission.max_corun_jobs = 3;
  opt.metrics = registry;
  opt.trace = trace;
  serve::ClusterService cluster(opsched::MachineSpec::knl(), opt);
  for (std::size_t s = 0; s < kShards; ++s) {
    cluster.shard_runtime(s).database() = in.profile;
    // The service attaches the registry to the host executor's policy only;
    // the simulated scheduler hands out its (non-const) policy read-only, so
    // the per-layer policy_* cells are attached here. Telemetry never
    // changes a decision, and same_books() checks that on every replay.
    if (registry != nullptr)
      const_cast<opsched::AdmissionPolicy&>(
          cluster.shard_runtime(s).scheduler().policy())
          .attach_metrics(registry, std::to_string(s));
  }

  Replay r;
  const double begin = now_s();
  for (const serve::JobSpec& spec : in.tenants) cluster.submit(spec);
  std::size_t next = 0;
  while (true) {
    // Open loop on the virtual clock: a job is submitted once the fleet's
    // clock (the furthest shard) reaches its arrival time.
    double fleet_now = 0.0;
    for (std::size_t s = 0; s < kShards; ++s)
      fleet_now = std::max(fleet_now, cluster.shard(s).now_ms());
    while (next < in.jobs.size() && in.job_arrival_ms[next] <= fleet_now)
      cluster.submit(in.jobs[next++]);
    const double a = now_s();
    const bool progressed = cluster.run_pump();
    const double b = now_s();
    ++r.pumps;
    if (trace != nullptr) {
      spans.add("ClusterService::run_pump", "cluster", 0, a, b);
      r.pump_ms.push_back((b - a) * 1e3);
      r.marks.emplace_back(b - begin, trace->size());
    }
    if (!progressed) {
      if (next == in.jobs.size()) break;
      // An idle fleet does not advance its clock: release the next
      // arrival now (deterministically) instead of waiting for it.
      cluster.submit(in.jobs[next++]);
    }
  }
  r.wall_s = now_s() - begin;
  r.snap = cluster.snapshot();
  return r;
}

/// The first `ms` of `in`'s traffic: the set-up's warm-up replay.
Inputs prefix(const Inputs& in, double ms) {
  Inputs out;
  out.profile = in.profile;
  for (serve::JobSpec spec : in.tenants) {
    const auto cut = std::lower_bound(spec.arrivals.begin(),
                                      spec.arrivals.end(), ms);
    spec.arrivals.erase(cut, spec.arrivals.end());
    if (spec.arrivals.empty()) continue;
    out.requests += spec.arrivals.size();
    out.tenants.push_back(std::move(spec));
  }
  for (std::size_t j = 0; j < in.jobs.size() && in.job_arrival_ms[j] < ms; ++j) {
    out.jobs.push_back(in.jobs[j]);
    out.job_arrival_ms.push_back(in.job_arrival_ms[j]);
  }
  return out;
}

/// The books two replays of one seed must agree on exactly.
bool same_books(const serve::FleetSnapshot& a, const serve::FleetSnapshot& b) {
  if (a.jobs.size() != b.jobs.size() || a.completed != b.completed ||
      a.steps_run != b.steps_run || a.placements != b.placements ||
      a.migrations != b.migrations || a.reconfigurations != b.reconfigurations ||
      a.stepped_service_ms != b.stepped_service_ms || a.now_ms != b.now_ms)
    return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const serve::JobRecord& x = a.jobs[i].record;
    const serve::JobRecord& y = b.jobs[i].record;
    if (a.jobs[i].shard != b.jobs[i].shard || x.finish_ms != y.finish_ms ||
        x.submit_ms != y.submit_ms || x.service_ms != y.service_ms ||
        x.slo_hits != y.slo_hits || x.p50_latency_ms != y.p50_latency_ms)
      return false;
  }
  return true;
}

/// Output checks on one replay's books: every job terminal and completed,
/// every request answered, machine time conserved between the jobs' books
/// and the shards' step books.
void check_books(const Inputs& in, const serve::FleetSnapshot& snap,
                 Report& report) {
  report.check(snap.completed == in.tenants.size() + in.jobs.size(),
               "fleet_sim: not every job completed");
  double jobs_service = 0.0;
  for (const serve::FleetJob& fj : snap.jobs) {
    jobs_service += fj.record.service_ms;
    report.check(fj.record.steps_done == fj.record.steps_total,
                 "fleet_sim: job " + fj.record.name + " left work undone");
  }
  double stepped = 0.0;
  for (const serve::ServiceSnapshot& s : snap.shards)
    stepped += s.stepped_service_ms;
  report.check(std::abs(jobs_service - stepped) <= 1e-9 * std::abs(stepped),
               "fleet_sim: jobs' service_ms does not sum to stepped_service_ms");
}

/// Virtual-clock distributions read from a traced replay's serve spans.
struct VirtualSeries {
  std::vector<double> request_ms, request_wait_ms;
};

VirtualSeries read_spans(const std::vector<opsched::obs::TraceSpan>& spans) {
  VirtualSeries v;
  // Step makespans by (shard pid, end time): the step that answered a
  // request ends exactly when the request does.
  std::map<std::pair<std::uint32_t, double>, double> steps;
  for (const opsched::obs::TraceSpan& s : spans) {
    if (s.cat != "step" || s.pid == BenchSpans::kPid) continue;
    steps[{s.pid, s.start_ms + s.dur_ms}] = s.dur_ms;
  }
  for (const opsched::obs::TraceSpan& s : spans) {
    if (s.cat != "request") continue;
    v.request_ms.push_back(s.dur_ms);
    const auto it = steps.find({s.pid, s.start_ms + s.dur_ms});
    if (it != steps.end())
      v.request_wait_ms.push_back(std::max(0.0, s.dur_ms - it->second));
  }
  return v;
}

}  // namespace

Report run_fleet_sim(const Options& opt) {
  Report report;
  BenchSpans no_spans(nullptr);

  // Set-up: build every graph and trace from the seed, profile the graphs,
  // and warm up on a replay of the trace's first seconds. Repeated
  // kSetups times; setup_s is the median.
  std::vector<double> setup_s, profile_s;
  Inputs in;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    in = make_inputs(opt.seed);
    const Inputs warm = prefix(in, kWarmupMs);
    const Replay r = replay(warm, nullptr, nullptr, no_spans);
    setup_s.push_back(now_s() - t0);
    profile_s.push_back(in.profile_s);
    check_books(warm, r.snap, report);
  }
  report.fact("fleet_sim.requests", static_cast<double>(in.requests));
  report.fact("fleet_sim.training_jobs", static_cast<double>(in.jobs.size()));

  // The reference replay: the service's own spans (virtual-clock stamped)
  // give per-request and per-step series; tracing never changes the books.
  opsched::obs::TraceCollector ref_trace;
  const Replay ref = replay(in, nullptr, &ref_trace, no_spans);
  check_books(in, ref.snap, report);
  const VirtualSeries vs = read_spans(ref_trace.spans());
  report.check(vs.request_ms.size() == in.requests,
               "fleet_sim: trace holds a span per request");
  report.attempted = in.requests + in.jobs.size() + in.tenants.size();

  // Timed replays until the time is up. Untraced runs replay the trace's
  // first kTimedMs, short enough for many replays per run; every replay
  // after the first must book exactly what the first did. Traced runs
  // alternate untraced and traced replays of the whole trace (so
  // per-request cost can be compared along it) and take the
  // per-layer books from the traced ones.
  const Inputs timed = opt.trace ? in : prefix(in, kTimedMs);
  serve::FleetSnapshot first_books;
  opsched::obs::TraceCollector trace;
  std::unique_ptr<opsched::obs::Registry> registry;
  BenchSpans spans(&trace);
  std::vector<double> untraced_s, traced_s, pump_ms;
  Replay last_traced;
  const double end = now_s() + opt.seconds;
  for (int i = 0; now_s() < end || i < kMinTimedReplays; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) {  // keep only the last traced replay's spans and counts
      trace.clear();
      spans = BenchSpans(&trace);
      registry = std::make_unique<opsched::obs::Registry>();
    }
    Replay r = traced ? replay(timed, registry.get(), &trace, spans)
                      : replay(timed, nullptr, nullptr, no_spans);
    if (i == 0) {
      check_books(timed, r.snap, report);
      first_books = r.snap;
    }
    report.check(same_books(r.snap, opt.trace ? ref.snap : first_books),
                 "fleet_sim: replay books differ between replays");
    (traced ? traced_s : untraced_s).push_back(r.wall_s);
    if (traced) {
      pump_ms.insert(pump_ms.end(), r.pump_ms.begin(), r.pump_ms.end());
      last_traced = std::move(r);
    }
  }

  const serve::FleetSnapshot& snap = ref.snap;
  // A training job's step time is its mean makespan share per step: what
  // co-location made its steps cost.
  std::vector<double> turnaround_ms, wait_ms, step_ms;
  std::size_t hits = 0, train_steps = 0;
  double train_ms = 0.0;
  for (const serve::FleetJob& fj : snap.jobs) {
    const serve::JobRecord& rec = fj.record;
    if (rec.kind == serve::JobKind::kInference) {
      hits += rec.slo_hits;
      continue;
    }
    turnaround_ms.push_back(rec.turnaround_ms());
    wait_ms.push_back(rec.wait_ms());
    train_steps += static_cast<std::size_t>(rec.steps_done);
    train_ms += rec.turnaround_ms();
    step_ms.push_back(rec.run_ms / rec.steps_done);
  }

  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = median_of(setup_s);
    // Samples per second a training job sees over its turnaround.
    e.train_samples_per_s =
        static_cast<double>(train_steps * kTrainBatch) / (train_ms * 1e-3);
    e.step_ms = summarize(step_ms, kStepTailPct, "step_ms", report);
    e.request_ms =
        summarize(vs.request_ms, kRequestTailPct, "request_ms", report);
    e.slo_attainment =
        static_cast<double>(hits) / static_cast<double>(in.requests);
    e.job_turnaround_ms =
        summarize(turnaround_ms, kJobTailPct, "job_turnaround_ms", report);
    // The fastest replay: every replay does the same work, and load from
    // other processes only ever adds time (replays of one run ranged over
    // 1.1-1.9 s in stretches of several seconds), so the minimum is the
    // steady estimate of the control plane's own cost.
    e.replay_requests_per_s =
        static_cast<double>(timed.requests) /
        *std::min_element(untraced_s.begin(), untraced_s.end());
    e.peak_rss_mb = peak_rss_mb();
    report.fact("fleet_sim.timed_requests", static_cast<double>(timed.requests));
    report.fact("fleet_sim.timed_replays", static_cast<double>(untraced_s.size()));
    report.fact("fleet_sim.replay_s_median", median_of(untraced_s));
    report.fact("fleet_sim.replay_s_max",
                *std::max_element(untraced_s.begin(), untraced_s.end()));
    report.set_end_to_end(e);
    return report;
  }

  const serve::FleetSnapshot& tsnap = last_traced.snap;
  PerLayer p;
  double profiled_ops = 0.0, corun = 0.0, overlay = 0.0;
  for (const serve::FleetJob& fj : tsnap.jobs) {
    profiled_ops += static_cast<double>(fj.record.profiled_ops);
    corun += static_cast<double>(fj.record.corun_launches);
    overlay += static_cast<double>(fj.record.overlay_launches);
  }
  const double steps = static_cast<double>(tsnap.steps_run);
  std::vector<double> busy;
  for (const serve::ServiceSnapshot& s : tsnap.shards)
    busy.push_back(s.stepped_service_ms);
  p.perf_profile_s = median_of(profile_s);
  p.perf_profiled_ops =
      static_cast<double>(in.profiling.unique_ops) + profiled_ops;
  p.perf_samples = static_cast<double>(in.profile.total_samples());
  read_registry(tsnap.metrics, p);
  p.core_corun_launches_per_step = corun / steps;
  p.core_overlay_launches_per_step = overlay / steps;
  const double cycles = static_cast<double>(last_traced.pumps * kShards);
  p.serve_cycles = cycles;
  p.serve_idle_cycles = cycles - steps;
  std::vector<double> per_cycle;
  for (double ms : last_traced.pump_ms)
    per_cycle.push_back(ms / static_cast<double>(kShards));
  p.serve_cycle_overhead_ms_p50 = median_of(per_cycle);
  p.serve_request_wait_ms_p50 = median_of(vs.request_wait_ms);
  p.serve_reconfigurations = static_cast<double>(tsnap.reconfigurations);

  // Wall time per request in the first and the last tenth of the trace:
  // walk the traced replay's pumps in order, counting the request spans each
  // pump appended.
  const std::vector<opsched::obs::TraceSpan> spans_out = trace.spans();
  const std::size_t tenth = std::max<std::size_t>(1, in.requests / 10);
  std::size_t served = 0, span_at = 0;
  double prev_wall = 0.0, first_s = 0.0, last_s = 0.0;
  for (const auto& [wall, size] : last_traced.marks) {
    std::size_t n = 0;
    for (; span_at < size && span_at < spans_out.size(); ++span_at)
      n += spans_out[span_at].cat == "request" ? 1 : 0;
    const double dt = wall - prev_wall;
    prev_wall = wall;
    if (n == 0) continue;
    if (served < tenth) first_s += dt;
    if (served + n > in.requests - tenth) last_s += dt;
    served += n;
  }
  p.serve_wall_us_per_request_first = first_s * 1e6 / static_cast<double>(tenth);
  p.serve_wall_us_per_request_last = last_s * 1e6 / static_cast<double>(tenth);

  p.cluster_pump_ms_p50 = median_of(pump_ms);
  p.cluster_placements = static_cast<double>(tsnap.placements);
  p.cluster_migrations = static_cast<double>(tsnap.migrations);
  p.cluster_shard_busy_jain = opsched::jain_index(busy);
  p.cluster_job_wait_ms_p50 = median_of(wait_ms);
  const double base = median_of(untraced_s);
  const double with = median_of(traced_s);
  p.trace_overhead_pct = (with - base) / base * 100.0;
  report.fact("trace.untraced_replay_s", base);
  report.fact("trace.traced_replay_s", with);
  report.fact("trace.spans", static_cast<double>(spans_out.size()));
  if (!opt.trace_out.empty()) trace.write(opt.trace_out);
  report.set_per_layer(p);
  return report;
}

}  // namespace perfbench
