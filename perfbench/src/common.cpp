#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "models/models.hpp"
#include "models/zoo.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace json = opsched::json;

void load_host_profile(opsched::Runtime& rt, const std::string& path) {
  if (path.empty())
    throw std::invalid_argument("host workloads need --host-profile FILE");
  rt.database().load_json_file(path);
}

void write_host_profile(const std::string& path) {
  const opsched::Graph graphs[] = {
      opsched::models::build_resnet50_host(kTrainHostBatch),
      opsched::build_mnist_host(kServeTrainBatch),
      opsched::models::zoo_forward("resnet50_host", 1)};
  std::vector<std::unique_ptr<opsched::HostGraphProgram>> owned;
  std::vector<opsched::HostGraphProgram*> programs;
  for (const opsched::Graph& g : graphs) {
    owned.push_back(std::make_unique<opsched::HostGraphProgram>(g));
    programs.push_back(owned.back().get());
  }
  opsched::Runtime rt(opsched::MachineSpec::knl());
  rt.profile_host_multi(programs, /*repeats=*/3);
  rt.database().save_json_file(path);
}

double serial_reference(const opsched::Graph& g, std::uint64_t seed) {
  opsched::HostGraphProgram ref(g, seed);
  for (const opsched::Node& node : g.nodes()) ref.run_node_reference(node.id);
  return ref.step_checksum();
}

void Report::check(bool ok, const std::string& what) {
  if (!ok && std::find(errors_.begin(), errors_.end(), what) == errors_.end())
    errors_.push_back(what);
}

void Report::fact(const std::string& name, double value) {
  facts_.emplace_back(name, json::number(value));
}

void Report::fact(const std::string& name, const std::string& value) {
  std::string quoted = json::escape(value);
  quoted.insert(quoted.begin(), '"');
  quoted.push_back('"');
  facts_.emplace_back(name, std::move(quoted));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, "{\"value\": " + json::number(value) +
                                  ", \"unit\": \"" + unit + "\"}");
}

void Report::timing(const std::string& base, const Timing& t) {
  metric(base + "_p50", t.p50, "ms");
  metric(base + "_tail", t.tail, "ms");
  fact(base + ".samples", static_cast<double>(t.n));
  fact(base + ".tail_pct", t.tail_pct);
}

void Report::set_end_to_end(const EndToEnd& e) {
  metric("setup_s", e.setup_s, "s");
  metric("peak_rss_mb", e.peak_rss_mb, "MB");
  metric("train_samples_per_s", e.train_samples_per_s, "1/s");
  timing("step_ms", e.step_ms);
  timing("request_ms", e.request_ms);
  metric("slo_attainment", e.slo_attainment, "frac");
  timing("job_turnaround_ms", e.job_turnaround_ms);
  metric("replay_requests_per_s", e.replay_requests_per_s, "1/s");
}

void Report::set_per_layer(const PerLayer& p) {
  metric("perf.profile_s", p.perf_profile_s, "s");
  metric("perf.profiled_ops", p.perf_profiled_ops, "count");
  metric("perf.samples", p.perf_samples, "count");
  metric("ops.kernel_ms_per_step", p.ops_kernel_ms_per_step, "ms");
  metric("ops.core_busy_share", p.ops_core_busy_share, "frac");
  metric("core.dispatch_ms_per_step", p.core_dispatch_ms_per_step, "ms");
  metric("core.dispatch_share", p.core_dispatch_share, "frac");
  metric("threading.launch_ms_mean", p.threading_launch_ms_mean, "ms");
  metric("core.decisions", p.core_decisions, "count");
  metric("core.decision_us_mean", p.core_decision_us_mean, "us");
  metric("core.cache_hit_ratio", p.core_cache_hit_ratio, "frac");
  metric("core.corun_launches_per_step", p.core_corun_launches_per_step,
         "count");
  metric("core.overlay_launches_per_step", p.core_overlay_launches_per_step,
         "count");
  metric("core.guard_fallbacks_per_step", p.core_guard_fallbacks_per_step,
         "count");
  metric("serve.cycles", p.serve_cycles, "count");
  metric("serve.idle_cycles", p.serve_idle_cycles, "count");
  metric("serve.cycle_overhead_ms_p50", p.serve_cycle_overhead_ms_p50, "ms");
  metric("serve.request_wait_ms_p50", p.serve_request_wait_ms_p50, "ms");
  metric("serve.reconfigurations", p.serve_reconfigurations, "count");
  metric("serve.wall_us_per_request_first",
         p.serve_wall_us_per_request_first, "us");
  metric("serve.wall_us_per_request_last", p.serve_wall_us_per_request_last,
         "us");
  metric("cluster.pump_ms_p50", p.cluster_pump_ms_p50, "ms");
  metric("cluster.placements", p.cluster_placements, "count");
  metric("cluster.migrations", p.cluster_migrations, "count");
  metric("cluster.shard_busy_jain", p.cluster_shard_busy_jain, "frac");
  metric("cluster.job_wait_ms_p50", p.cluster_job_wait_ms_p50, "ms");
  metric("trace.overhead_pct", p.trace_overhead_pct, "%");
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics_[i].first
        << "\": " << metrics_[i].second;
  }
  out << "}, \"facts\": {";
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json::escape(facts_[i].first)
        << "\": " << facts_[i].second;
  }
  out << "}, \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json::escape(errors_[i]) << "\"";
  }
  out << "]}";
  return out.str();
}

Timing summarize(const std::vector<double>& xs, double tail_pct,
                 const std::string& what, Report& report) {
  Timing t;
  t.n = xs.size();
  t.tail_pct = tail_pct;
  if (xs.empty()) {
    report.check(false, what + ": no samples");
    return t;
  }
  t.p50 = opsched::percentile(xs, 50.0);
  t.tail = opsched::percentile(xs, tail_pct);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double x) { return x > t.tail; }));
  report.check(beyond >= 10, what + ": fewer than ten samples beyond p" +
                                 json::number(tail_pct) + " (n=" +
                                 std::to_string(xs.size()) + ")");
  return t;
}

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : opsched::median(xs);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

bool matches(const std::string& name, const std::string& base) {
  return name == base ||
         (name.size() > base.size() && name.compare(0, base.size(), base) == 0 &&
          name[base.size()] == '{');
}

}  // namespace

std::uint64_t counter_total(const opsched::obs::MetricsSnapshot& snap,
                            const std::string& base) {
  std::uint64_t total = 0;
  for (const opsched::obs::MetricPoint& m : snap.metrics) {
    if (m.kind == opsched::obs::MetricKind::kCounter && matches(m.name, base))
      total += m.counter;
  }
  return total;
}

MergedHistogram histogram_total(const opsched::obs::MetricsSnapshot& snap,
                                const std::string& base) {
  MergedHistogram h;
  for (const opsched::obs::MetricPoint& m : snap.metrics) {
    if (m.kind != opsched::obs::MetricKind::kHistogram || !matches(m.name, base))
      continue;
    if (h.counts.empty()) {
      h.bounds = m.bounds;
      h.counts.assign(m.counts.size(), 0);
    }
    if (m.counts.size() != h.counts.size()) continue;  // foreign bounds
    for (std::size_t i = 0; i < m.counts.size(); ++i) h.counts[i] += m.counts[i];
    h.count += m.count;
    h.sum += m.sum;
  }
  return h;
}

void read_registry(const opsched::obs::MetricsSnapshot& snap, PerLayer& p) {
  const auto mean = [](const MergedHistogram& h) {
    return h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
  };
  p.threading_launch_ms_mean = mean(histogram_total(snap, "host_launch_ms"));
  p.core_decisions =
      static_cast<double>(counter_total(snap, "policy_decisions_total"));
  p.core_decision_us_mean =
      mean(histogram_total(snap, "policy_decision_ms")) * 1e3;
  const double hits =
      static_cast<double>(counter_total(snap, "policy_cache_hits_total"));
  const double misses =
      static_cast<double>(counter_total(snap, "policy_cache_misses_total"));
  p.core_cache_hit_ratio = hits / std::max(1.0, hits + misses);
}

BenchSpans::BenchSpans(opsched::obs::TraceCollector* sink) : sink_(sink) {
  if (sink_ != nullptr) {
    sink_->set_process_name(kPid, "perfbench");
    sink_->set_track_name(kPid, 0, "driver");
  }
}

void BenchSpans::add(const std::string& name, const std::string& cat,
                     std::uint32_t tid, double start_s, double end_s) {
  if (sink_ == nullptr) return;
  opsched::obs::TraceSpan s;
  s.name = name;
  s.cat = cat;
  s.pid = kPid;
  s.tid = tid;
  s.start_ms = start_s * 1e3;
  s.dur_ms = (end_s - start_s) * 1e3;
  sink_->span(std::move(s));
}

}  // namespace perfbench
