#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/latency_hist.h"
#include "obs/metrics.h"

namespace perfbench {

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      // End to end (untraced runs).
      {"setup_s", "s", "lower", false},
      {"batch_s_p50", "s", "lower", false},
      {"batch_s_p90", "s", "lower", false},
      {"input_mb_per_s", "MB/s", "higher", false},
      {"server_cpu_ms_p50", "ms", "lower", false},
      {"shipped_bytes_per_input_byte", "B/B", "lower", false},
      {"plan_ms_per_night_p50", "ms", "lower", false},
      {"plan_ms_p90", "ms", "lower", false},
      {"nights_per_s", "1/s", "higher", false},
      {"sim_makespan_s", "s", "lower", false},
      {"peak_rss_mb", "MB", "lower", false},
      // core
      {"core.builds", "builds/night", "lower", true},
      {"core.build_self_ms", "ms", "lower", true},
      {"core.bisections_per_build", "count", "lower", true},
      {"core.pack_success_ratio", "ratio", "higher", true},
      {"core.warm_start_hit_ratio", "ratio", "higher", true},
      {"core.pod_rebalance_attempts_per_build", "count", "lower", true},
      {"core.rescheduled_kb_per_night", "KB", "lower", true},
      // lp
      {"lp.pod_bounds_solved_per_build", "count", "lower", true},
      {"lp.pod_bounds_tightened_ratio", "ratio", "higher", true},
      {"lp.iterations_per_bound", "count", "lower", true},
      {"lp.pod_bound_ms_p50", "ms", "lower", true},
      // sim
      {"sim.self_ms_per_night", "ms", "lower", true},
      {"sim.pieces_per_night", "count", "lower", true},
      {"sim.failures_per_night", "count", "lower", true},
      {"sim.spec_launched_per_night", "count", "lower", true},
      // net
      {"net.submit_ms", "ms", "lower", true},
      {"net.run_self_ms", "ms", "lower", true},
      {"net.frames_per_batch", "count", "lower", true},
      {"net.bytes_per_frame", "B", "higher", true},
      {"net.assign_report_ms_p50", "ms", "lower", true},
      {"net.assign_report_ms_p99", "ms", "lower", true},
      {"net.keepalive_rtt_ms_p50", "ms", "lower", true},
      {"net.keepalive_rtt_ms_p99", "ms", "lower", true},
      {"net.loop_wakeups_per_batch", "count", "lower", true},
      {"net.fd_dispatches_per_wakeup", "count", "higher", true},
      {"net.journal_append_ms_p99", "ms", "lower", true},
      {"net.journal_bytes_per_input_byte", "B/B", "lower", true},
      {"net.send_stall_ms", "ms", "lower", true},
      // tasks
      {"tasks.prime-count.mb_per_s", "MB/s", "higher", true},
      {"tasks.word-count.mb_per_s", "MB/s", "higher", true},
      {"tasks.log-scan.mb_per_s", "MB/s", "higher", true},
      {"tasks.sales-aggregate.mb_per_s", "MB/s", "higher", true},
      {"tasks.photo-blur.mb_per_s", "MB/s", "higher", true},
      {"tasks.steps_per_mb", "count", "lower", true},
      {"tasks.aggregate_ms", "ms", "lower", true},
      // common
      {"common.cache_hit_ratio", "ratio", "higher", true},
      {"common.cache_refetch_kb", "KB", "lower", true},
      {"common.crc32_mb_per_s", "MB/s", "higher", true},
      {"common.chunk_blob_mb_per_s", "MB/s", "higher", true},
      // Self time per night from the benchmark's spans, by layer.
      {"self_ms.tasks", "ms", "lower", true},
      {"self_ms.net", "ms", "lower", true},
      {"self_ms.core", "ms", "lower", true},
      {"self_ms.sim", "ms", "lower", true},
      {"self_ms.bench", "ms", "lower", true},
      // Cost of the traced run itself.
      {"trace.overhead_ms_per_night", "ms", "lower", true},
      {"trace.overhead_ratio", "ratio", "lower", true},
      {"trace.spans_per_night", "count", "lower", true},
  };
  return table;
}

Metrics tabulate(const std::map<std::string, double>& values, bool per_layer) {
  Metrics out;
  for (const MetricDef& def : metric_table()) {
    if (def.per_layer != per_layer) continue;
    const auto it = values.find(def.name);
    if (it == values.end()) throw std::logic_error(std::string("metric not measured: ") + def.name);
    out[def.name] = {it->second, def.unit};
  }
  for (const auto& [name, value] : values) {
    if (out.count(name) == 0) {
      bool known = false;
      for (const MetricDef& def : metric_table()) known = known || name == def.name;
      if (!known) throw std::logic_error("metric without a definition: " + name);
    }
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB on Linux
}

std::map<std::string, double> counters_now() {
  const cwc::obs::MetricsRegistry& registry = cwc::obs::MetricsRegistry::global();
  std::map<std::string, double> out;
  for (const std::string& name : registry.counter_names()) {
    if (const cwc::obs::Counter* c = registry.find_counter(name)) out[name] = c->value();
  }
  return out;
}

double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after, const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

LatencyBuckets latency_now(const std::string& name) {
  LatencyBuckets out;
  if (const auto* hist = cwc::obs::LatencyRegistry::global().find(name)) {
    for (const auto& bucket : hist->nonzero_buckets()) {
      out[bucket.low_ms] = {bucket.high_ms, bucket.count};
    }
  }
  return out;
}

double latency_delta_quantile(const LatencyBuckets& before, const LatencyBuckets& after,
                              double q) {
  std::vector<std::pair<double, std::pair<double, std::uint64_t>>> delta;
  std::uint64_t total = 0;
  for (const auto& [low, entry] : after) {
    const auto it = before.find(low);
    const std::uint64_t prior = it == before.end() ? 0 : it->second.second;
    if (entry.second > prior) {
      delta.push_back({low, {entry.first, entry.second - prior}});
      total += entry.second - prior;
    }
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (const auto& [low, entry] : delta) {
    const double count = static_cast<double>(entry.second);
    if (seen + count >= target) {
      const double high = std::isfinite(entry.first) ? entry.first : low;
      return low + (high - low) * std::clamp((target - seen) / count, 0.0, 1.0);
    }
    seen += count;
  }
  return delta.back().first;
}

std::vector<NightSample> run_nights(double seconds, std::size_t min_nights,
                                    const std::function<NightSample(std::size_t)>& night) {
  std::vector<NightSample> samples;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  while (samples.size() < min_nights || elapsed() < seconds) {
    samples.push_back(night(samples.size()));
  }
  return samples;
}

}  // namespace perfbench
