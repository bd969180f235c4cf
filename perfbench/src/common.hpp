// Shared pieces of the repository benchmark: the run options, the report a
// workload fills in, the end-to-end and per-layer metric sets every workload
// emits, timing summaries, registry readers and benchmark-side spans.
//
// Every workload reports the SAME metric names (BENCHMARK.json lists one set
// for all workloads); where a layer does no work on a workload its per-layer
// metrics read 0, and README.md says what each end-to-end metric means on
// each workload.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace ("" = keep in memory).
  std::string trace_out;
  /// The stored host profile (PerfDatabase JSON) the host workloads' timed
  /// phases start from; their set-ups still profile cold.
  std::string host_profile;
};

/// Training batch sizes of the host workloads (the stored profile's keys
/// depend on them): train_host's resnet50_host and serve_host's mnist_host.
constexpr std::int64_t kTrainHostBatch = 2;
constexpr std::int64_t kServeTrainBatch = 8;

// -- the stored host profile -------------------------------------------------
// A cold hill-climb profile on real kernels differs from process to process,
// and so do the widths it picks and the step times that follow. The host
// workloads therefore time cold profiling in set-up, but run their timed
// phase from one stored profile, so every run schedules the same way.

/// Loads the stored profile into `rt`'s (empty) database.
void load_host_profile(opsched::Runtime& rt, const std::string& path);

/// Profiles every graph the host workloads run, cold, and saves the result
/// to `path` as PerfDatabase JSON.
void write_host_profile(const std::string& path);

/// The step checksum of `g` with tensors from `seed`, computed serially by
/// HostGraphProgram::run_node_reference: what every host step must match.
double serial_reference(const opsched::Graph& g, std::uint64_t seed);

/// A timing series summarized as its median and a tail percentile. The tail
/// percentile is fixed per workload so it does not jump between runs; the
/// run fails its checks if fewer than ten samples lie beyond it.
struct Timing {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};

/// The eleven end-to-end metrics, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double train_samples_per_s = 0.0;
  Timing step_ms;
  Timing request_ms;
  double slo_attainment = 0.0;
  Timing job_turnaround_ms;
  double replay_requests_per_s = 0.0;
};

/// The per-layer metrics of the traced run. Zero means the layer did no
/// work on this workload.
struct PerLayer {
  double perf_profile_s = 0.0;
  double perf_profiled_ops = 0.0;
  double perf_samples = 0.0;
  double ops_kernel_ms_per_step = 0.0;
  double ops_core_busy_share = 0.0;
  double core_dispatch_ms_per_step = 0.0;
  double core_dispatch_share = 0.0;
  double threading_launch_ms_mean = 0.0;
  double core_decisions = 0.0;
  double core_decision_us_mean = 0.0;
  double core_cache_hit_ratio = 0.0;
  double core_corun_launches_per_step = 0.0;
  double core_overlay_launches_per_step = 0.0;
  double core_guard_fallbacks_per_step = 0.0;
  double serve_cycles = 0.0;
  double serve_idle_cycles = 0.0;
  double serve_cycle_overhead_ms_p50 = 0.0;
  double serve_request_wait_ms_p50 = 0.0;
  double serve_reconfigurations = 0.0;
  double serve_wall_us_per_request_first = 0.0;
  double serve_wall_us_per_request_last = 0.0;
  double cluster_pump_ms_p50 = 0.0;
  double cluster_placements = 0.0;
  double cluster_migrations = 0.0;
  double cluster_shard_busy_jain = 0.0;
  double cluster_job_wait_ms_p50 = 0.0;
  /// (traced - untraced) / untraced of the workload's headline timing, %.
  double trace_overhead_pct = 0.0;
};

/// What a workload hands back to main: the correctness verdict, operation
/// counts, the metric set of the requested mode, and free-form facts (host,
/// sample counts, tail percentiles) printed next to the numbers.
class Report {
 public:
  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  void fact(const std::string& name, double value);
  void fact(const std::string& name, const std::string& value);

  void set_end_to_end(const EndToEnd& e);
  void set_per_layer(const PerLayer& p);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return errors_.empty(); }
  /// One JSON object: correct, attempted, failed, metrics, facts, errors.
  std::string to_json() const;

 private:
  void metric(const std::string& name, double value, const std::string& unit);
  void timing(const std::string& base, const Timing& t);

  std::vector<std::string> errors_;
  /// name -> pre-rendered JSON value, in insertion order.
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

/// Median and the `tail_pct` percentile of `xs`; `report` gets a failed
/// check when fewer than ten samples lie beyond the tail percentile.
Timing summarize(const std::vector<double>& xs, double tail_pct,
                 const std::string& what, Report& report);

double median_of(std::vector<double> xs);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Wall seconds since an arbitrary epoch (steady clock).
double now_s();

// -- metrics registry readers ----------------------------------------------
// Shards qualify their cells as name{shard="s"}; these sum every cell whose
// base name matches, so one call reads a whole fleet.

std::uint64_t counter_total(const opsched::obs::MetricsSnapshot& snap,
                            const std::string& base);

struct MergedHistogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1, last is +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
};

MergedHistogram histogram_total(const opsched::obs::MetricsSnapshot& snap,
                                const std::string& base);

/// Fills the per-layer metrics the registry's policy_* and host_launch_ms
/// cells give (zero where that family was never attached). Decisions and
/// launches take a few µs, below the registry's lowest bucket bound (10 µs),
/// so their times are reported as means (sum / count), not percentiles.
void read_registry(const opsched::obs::MetricsSnapshot& snap, PerLayer& p);

// -- benchmark-side spans ----------------------------------------------------

/// Spans the benchmark records around its calls into each layer, written
/// through the library's own TraceCollector under one "perfbench" process.
/// A null sink disables recording.
class BenchSpans {
 public:
  static constexpr std::uint32_t kPid = 9000;

  explicit BenchSpans(opsched::obs::TraceCollector* sink);

  /// Records [start_s, end_s) as a span named `name` on track `tid`.
  void add(const std::string& name, const std::string& cat, std::uint32_t tid,
           double start_s, double end_s);

 private:
  opsched::obs::TraceCollector* sink_;
};

}  // namespace perfbench
