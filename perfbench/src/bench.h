// Shared plumbing of the benchmark: arguments, the metric table, the
// per-night samples every workload produces, and readers for the
// program's own obs::counter / obs::latency registries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimum-size run for the self-tests: one pass, tiny pools.
  bool smoke = false;
  /// Where traced runs write their spans and live_repeat keeps its journal.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// One timed night (a live batch or a simulated night).
struct NightSample {
  double wall_s = 0.0;
  /// CPU ms of the server: the thread that runs a live server (agents
  /// excluded), or the whole process for a simulated night (pod workers
  /// included).
  double cpu_ms = 0.0;
  double input_bytes = 0.0;
  double shipped_bytes = 0.0;
  double plan_ms = 0.0;  ///< scheduler build wall ms summed over the night
  std::vector<double> build_ms;  ///< wall ms of each scheduler build of the night
  bool ok = false;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, MetricValue>;

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Metrics metrics;
};

/// Definition of every metric the benchmark prints: unit and direction.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  bool per_layer;
};
const std::vector<MetricDef>& metric_table();

/// Fills `out` with name -> {value, unit} from `values` using the table;
/// throws if a value has no definition or a definition of the requested
/// kind has no value.
Metrics tabulate(const std::map<std::string, double>& values, bool per_layer);

// ---- statistics ---------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// CPU time consumed so far by the calling thread (ms).
double thread_cpu_ms();
/// CPU time consumed so far by every thread of the process (ms).
double process_cpu_ms();
/// Peak resident set size of the process (MB).
double peak_rss_mb();

// ---- program registries -------------------------------------------------

/// Every obs::counter value, by name.
std::map<std::string, double> counters_now();
/// Delta of a counter between two snapshots (absent = 0).
double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after, const std::string& name);

/// Non-empty buckets of one obs::latency histogram: low ms -> (high ms, count).
using LatencyBuckets = std::map<double, std::pair<double, std::uint64_t>>;
LatencyBuckets latency_now(const std::string& name);
/// Quantile of the samples recorded between two snapshots (0 if none).
double latency_delta_quantile(const LatencyBuckets& before, const LatencyBuckets& after,
                              double q);

/// Closed-loop runner shared by every workload: runs `night` until
/// `seconds` elapse (at least `min_nights` times), collecting samples.
std::vector<NightSample> run_nights(double seconds, std::size_t min_nights,
                                    const std::function<NightSample(std::size_t)>& night);

}  // namespace perfbench
