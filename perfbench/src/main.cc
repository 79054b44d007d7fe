// cwc_perfbench: the end-to-end benchmark of the nightly batch.
//
//   cwc_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--smoke] [--work-dir=DIR]
//   cwc_perfbench --selftest [--work-dir=DIR]
//
// Workloads: live_cold, live_repeat, sim_fleet (README.md). An
// untraced run (--trace=0) prints every end-to-end metric; a traced run
// alternates blocks of untraced and traced nights, prints every per-layer
// metric, and writes its spans to the work directory. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// setup_s is the median of at least kSetupReps set-ups; a cheap set-up
// repeats until kSetupBudgetS have gone into set-up, up to kSetupMaxReps.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupMaxReps = 31;
constexpr double kSetupBudgetS = 1.0;

std::unique_ptr<Workload> make_workload(Context* ctx) {
  const std::string& name = ctx->args.workload;
  if (name == "live_cold") return make_live(ctx, false);
  if (name == "live_repeat") return make_live(ctx, true);
  if (name == "sim_fleet") return make_sim(ctx);
  throw std::invalid_argument("unknown workload: " + name);
}

struct TaskTotals {
  // steps, bytes, traced bytes, step ns, aggregate ns
  std::map<std::string, std::array<std::uint64_t, 5>> by_task;
};

TaskTotals task_totals(const Context& ctx) {
  TaskTotals t;
  for (const auto& [name, s] : ctx.task_stats) {
    t.by_task[name] = {s.steps.load(), s.bytes.load(), s.traced_bytes.load(), s.step_ns.load(),
                       s.aggregate_ns.load()};
  }
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The nights the end-to-end timings come from. A shared host's speed
/// drifts by up to ~1.5x for seconds at a time, and a run visits each night
/// of the workload's pool many times. For each pool night it keeps the
/// half of its visits (at least one) with the least wall time: the choice
/// is by host speed, not by night, and every pool night counts alike.
std::vector<NightSample> quietest_visits(const std::vector<NightSample>& samples,
                                         std::size_t pool) {
  std::vector<NightSample> out;
  for (std::size_t night = 0; night < pool && night < samples.size(); ++night) {
    std::vector<const NightSample*> visits;
    for (std::size_t i = night; i < samples.size(); i += pool) visits.push_back(&samples[i]);
    std::sort(visits.begin(), visits.end(),
              [](const NightSample* a, const NightSample* b) { return a->wall_s < b->wall_s; });
    const std::size_t keep = std::max<std::size_t>(1, visits.size() / 2);
    for (std::size_t k = 0; k < keep; ++k) out.push_back(*visits[k]);
  }
  return out;
}

std::map<std::string, double> end_to_end(const std::vector<NightSample>& samples, double setup_s,
                                         double makespan_s) {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> plan;
  std::vector<double> build_ms;
  std::vector<double> shipped_ratio;
  double input = 0.0;
  double wall_total = 0.0;
  for (const NightSample& s : samples) {
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_ms);
    plan.push_back(s.plan_ms);
    build_ms.insert(build_ms.end(), s.build_ms.begin(), s.build_ms.end());
    shipped_ratio.push_back(ratio(s.shipped_bytes, s.input_bytes));
    input += s.input_bytes;
    wall_total += s.wall_s;
  }
  return {
      {"setup_s", setup_s},
      {"batch_s_p50", quantile(wall, 0.5)},
      {"batch_s_p90", quantile(wall, 0.9)},
      {"input_mb_per_s", ratio(input / 1048576.0, wall_total)},
      {"server_cpu_ms_p50", quantile(cpu, 0.5)},
      {"shipped_bytes_per_input_byte", quantile(shipped_ratio, 0.5)},
      {"plan_ms_per_night_p50", quantile(plan, 0.5)},
      {"plan_ms_p90", quantile(build_ms, 0.9)},
      {"nights_per_s", ratio(static_cast<double>(samples.size()), wall_total)},
      {"sim_makespan_s", makespan_s},
      {"peak_rss_mb", peak_rss_mb()},
  };
}

/// Per-layer metrics of a traced run. Counter metrics cover every night of
/// the run; span metrics cover the traced nights.
std::map<std::string, double> per_layer(Context& ctx, Workload& workload,
                                        const std::vector<NightSample>& untraced,
                                        const std::vector<NightSample>& traced,
                                        const std::vector<Span>& spans,
                                        const std::map<std::string, double>& c0,
                                        const std::map<std::string, double>& c1,
                                        const std::map<std::string, LatencyBuckets>& l0,
                                        const TaskTotals& t0, double journal0) {
  const auto d = [&](const char* name) { return counter_delta(c0, c1, name); };
  const auto lat = [&](const char* name, double q) {
    return latency_delta_quantile(l0.at(name), latency_now(name), q);
  };
  const double nights = static_cast<double>(untraced.size() + traced.size());
  const double traced_nights = static_cast<double>(traced.size());
  const double builds = static_cast<double>(ctx.builds.build_ms.size());
  double input = 0.0;
  for (const NightSample& s : untraced) input += s.input_bytes;
  for (const NightSample& s : traced) input += s.input_bytes;

  std::map<std::string, double> v;
  // core
  std::map<std::string, double> self_by_name;
  std::map<std::string, double> total_by_name;
  for (const auto& [name, ms] : SpanRecorder::self_ms_by_name(spans)) self_by_name[name] = ms;
  std::map<std::string, double> count_by_name;
  for (const Span& s : spans) {
    total_by_name[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    count_by_name[s.name] += 1.0;
  }
  v["core.builds"] = ratio(builds, nights);
  v["core.build_self_ms"] = ratio(self_by_name["core.build"], count_by_name["core.build"]);
  v["core.bisections_per_build"] =
      ratio(d("scheduler.bisections") + d("scheduler.pod.bisections"), builds);
  const double attempts = d("scheduler.pack_attempts");
  v["core.pack_success_ratio"] = attempts > 0.0 ? 1.0 - d("scheduler.pack_failures") / attempts : 0.0;
  const double hits = d("scheduler.warm_start_hits") + d("scheduler.pod.warm_start_hits");
  const double misses = d("scheduler.warm_start_misses") + d("scheduler.pod.warm_start_misses");
  v["core.warm_start_hit_ratio"] = ratio(hits, hits + misses);
  v["core.pod_rebalance_attempts_per_build"] = ratio(d("scheduler.pod.rebalance_attempts"), builds);
  v["core.rescheduled_kb_per_night"] = ratio(d("controller.rescheduled_kb"), nights);
  // lp
  v["lp.pod_bounds_solved_per_build"] = ratio(d("scheduler.pod.lp_bounds_solved"), builds);
  v["lp.pod_bounds_tightened_ratio"] =
      ratio(d("scheduler.pod.lp_bounds_tightened"), d("scheduler.pod.lp_bounds_solved"));
  // sim
  v["sim.self_ms_per_night"] = ratio(self_by_name["sim.run"], traced_nights);
  v["sim.pieces_per_night"] = ratio(d("sim.pieces_completed"), nights);
  v["sim.failures_per_night"] = ratio(d("sim.failures.online") + d("sim.failures.offline"), nights);
  v["sim.spec_launched_per_night"] = ratio(d("spec.launched"), nights);
  // net
  const double frames = d("net.server.frames_sent") + d("net.server.frames_received");
  v["net.submit_ms"] = ratio(total_by_name["net.submit"], traced_nights);
  v["net.run_self_ms"] = ratio(self_by_name["net.run"], traced_nights);
  v["net.frames_per_batch"] = ratio(frames, nights);
  v["net.bytes_per_frame"] =
      ratio(d("net.server.bytes_sent") + d("net.server.bytes_received"), frames);
  v["net.assign_report_ms_p50"] = lat("server.assign_report_ms", 0.5);
  v["net.assign_report_ms_p99"] = lat("server.assign_report_ms", 0.99);
  v["net.keepalive_rtt_ms_p50"] = lat("server.keepalive_rtt_ms", 0.5);
  v["net.keepalive_rtt_ms_p99"] = lat("server.keepalive_rtt_ms", 0.99);
  v["net.loop_wakeups_per_batch"] = ratio(d("net.loop.wakeups"), nights);
  v["net.fd_dispatches_per_wakeup"] = ratio(d("net.loop.fd_dispatches"), d("net.loop.wakeups"));
  v["net.journal_append_ms_p99"] = lat("server.journal_append_ms", 0.99);
  v["net.journal_bytes_per_input_byte"] = ratio(workload.journal_bytes() - journal0, input);
  v["net.send_stall_ms"] = ratio(d("net.send_stall_ms"), nights);
  // tasks
  const TaskTotals t1 = task_totals(ctx);
  double steps = 0.0;
  double bytes = 0.0;
  double agg_ns = 0.0;
  for (const auto& [name, now] : t1.by_task) {
    const auto& before = t0.by_task.at(name);
    const auto delta = [&](std::size_t i) { return static_cast<double>(now[i] - before[i]); };
    steps += delta(0);
    bytes += delta(1);
    agg_ns += delta(4);
    const std::string key = name.substr(0, name.find(':'));
    v["tasks." + key + ".mb_per_s"] = ratio(delta(2) / 1048576.0, delta(3) / 1e9);
  }
  for (const char* key : {"prime-count", "word-count", "log-scan", "sales-aggregate", "photo-blur"}) {
    v.try_emplace(std::string("tasks.") + key + ".mb_per_s", 0.0);
  }
  v["tasks.steps_per_mb"] = ratio(steps, bytes / 1048576.0);
  v["tasks.aggregate_ms"] = ratio(agg_ns / 1e6, traced_nights);
  // common
  const double hit_kb = d("cache.hit_kb");
  v["common.cache_hit_ratio"] = ratio(hit_kb, hit_kb + d("cache.miss_kb"));
  v["common.cache_refetch_kb"] = ratio(d("cache.refetch_kb"), nights);
  workload.replays(&v);
  // Self time by layer, per night.
  std::map<std::string, double> by_layer;
  for (const auto& [name, ms] : self_by_name) by_layer[name.substr(0, name.find('.'))] += ms;
  for (const char* layer : {"tasks", "net", "core", "sim", "bench"}) {
    v[std::string("self_ms.") + layer] = ratio(by_layer[layer], traced_nights);
  }
  // Tracing overhead: traced minus untraced median night.
  std::vector<double> a;
  std::vector<double> b;
  for (const NightSample& s : untraced) a.push_back(s.wall_s * 1e3);
  for (const NightSample& s : traced) b.push_back(s.wall_s * 1e3);
  v["trace.overhead_ms_per_night"] = median(b) - median(a);
  v["trace.overhead_ratio"] = ratio(median(b) - median(a), median(a));
  v["trace.spans_per_night"] = ratio(static_cast<double>(spans.size()), traced_nights);
  return v;
}

void print_result(const Outcome& outcome) {
  for (const MetricDef& def : metric_table()) {
    const auto it = outcome.metrics.find(def.name);
    if (it == outcome.metrics.end()) continue;
    std::printf("%-40s %14.6g %-12s (%s is better)\n", def.name, it->second.value,
                it->second.unit.c_str(), def.better);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  bool first = true;
  for (const auto& [name, m] : outcome.metrics) {
    if (!std::isfinite(m.value)) throw std::logic_error("non-finite metric: " + name);
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Outcome run_workload(Context& ctx) {
  std::unique_ptr<Workload> workload = make_workload(&ctx);
  const std::size_t reps = ctx.args.smoke ? 1 : kSetupReps;
  std::vector<double> setup_times;
  double setup_total_s = 0.0;
  while (setup_times.size() < reps ||
         (!ctx.args.smoke && setup_total_s < kSetupBudgetS && setup_times.size() < kSetupMaxReps)) {
    const std::int64_t start = now_ns();
    workload->setup();
    setup_times.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup_total_s += setup_times.back();
  }
  SpanRecorder& recorder = SpanRecorder::global();
  std::uint32_t night_id = 0;
  const auto night = [&](std::size_t index) {
    recorder.set_night(++night_id);
    ScopedSpan root("bench.night");
    const std::size_t first_build = ctx.builds.build_ms.size();
    NightSample sample = workload->night(index);
    for (std::size_t b = first_build; b < ctx.builds.build_ms.size(); ++b) {
      sample.plan_ms += ctx.builds.build_ms[b];
      sample.build_ms.push_back(ctx.builds.build_ms[b]);
    }
    return sample;
  };

  Outcome outcome;
  std::vector<NightSample> untraced;
  ctx.builds.build_ms.clear();
  if (!ctx.args.trace) {
    untraced = run_nights(ctx.args.seconds, workload->min_nights(), night);
    outcome.metrics =
        tabulate(end_to_end(quietest_visits(untraced, workload->min_nights()),
                            median(setup_times), workload->makespan_s()),
                 /*per_layer=*/false);
  } else {
    const auto c0 = counters_now();
    std::map<std::string, LatencyBuckets> l0;
    for (const char* name :
         {"server.assign_report_ms", "server.keepalive_rtt_ms", "server.journal_append_ms"}) {
      l0[name] = latency_now(name);
    }
    const TaskTotals t0 = task_totals(ctx);
    const double journal0 = workload->journal_bytes();
    ctx.builds.build_ms.clear();
    ctx.builds.captured.clear();
    // Inputs of the traced phase's first build, for the LP replay.
    ctx.builds.capture_budget = 1;
    recorder.clear();
    // Spans go on and off in blocks of one pool cycle, so traced and
    // untraced nights see the same nights and the same host drift.
    const std::size_t block = workload->min_nights();
    std::vector<NightSample> traced;
    const auto alternating = [&](std::size_t index) {
      const bool on = (index / block) % 2 == 1;
      recorder.set_enabled(on);
      const NightSample sample = night(index);
      recorder.set_enabled(false);
      (on ? traced : untraced).push_back(sample);
      return sample;
    };
    run_nights(ctx.args.seconds, 2 * block, alternating);
    const auto c1 = counters_now();
    const std::vector<Span> spans = recorder.take();
    outcome.metrics = tabulate(
        per_layer(ctx, *workload, untraced, traced, spans, c0, c1, l0, t0, journal0),
        /*per_layer=*/true);
    std::filesystem::create_directories(ctx.args.work_dir);
    const std::string path = ctx.args.work_dir + "/spans-" + ctx.args.workload + "-" +
                             std::to_string(ctx.args.seed) + ".jsonl";
    SpanRecorder::write_jsonl(spans, path);
    std::fprintf(stderr, "wrote %zu spans to %s\n", spans.size(), path.c_str());
    untraced.insert(untraced.end(), traced.begin(), traced.end());
  }
  for (const NightSample& s : untraced) {
    ++outcome.attempted;
    if (!s.ok) ++outcome.failed;
  }
  if (ctx.builds.bound_violations > 0) {
    std::fprintf(stderr, "%zu builds finished below a pod LP bound\n",
                 ctx.builds.bound_violations);
    outcome.correct = false;
  }
  if (ctx.args.workload == "sim_fleet" && ctx.builds.diagnosed_builds == 0) {
    std::fprintf(stderr, "no pod diagnostics were collected\n");
    outcome.correct = false;
  }
  outcome.correct = outcome.correct && outcome.failed == 0;
  return outcome;
}

int selftest(const Args& base) {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  {
    Context ctx;
    ctx.args = base;
    ctx.args.smoke = true;
    ctx.args.workload = "sim_fleet";
    std::string why;
    const bool same = sim_wrapper_transparent(&ctx, &why);
    check(same, "sim_fleet: decorated and raw scheduler give the same night" +
                    (same ? "" : " (" + why + ")"));
  }
  {
    // Task wrappers: every virtual forwards, results and checkpoints match.
    std::map<std::string, TaskStats> stats;
    const cwc::tasks::TaskRegistry wrapped = wrapped_builtins(&stats);
    cwc::Rng rng(base.seed);
    bool same = true;
    for (const auto& raw : builtin_factories()) {
      const cwc::tasks::TaskFactory& w = wrapped.require(raw->name());
      same = same && w.kind() == raw->kind() && w.executable_kb() == raw->executable_kb() &&
             w.reference_ms_per_kb() == raw->reference_ms_per_kb();
      cwc::tasks::Bytes input;
      for (int i = 0; i < 20000; ++i) {
        input.push_back(static_cast<std::uint8_t>(raw->kind() == cwc::JobKind::kAtomic
                                                      ? rng.uniform_int(0, 255)
                                                      : "0123456789 \n"[rng.uniform_int(0, 11)]));
      }
      if (raw->kind() == cwc::JobKind::kAtomic) continue;  // blur needs an image header
      const auto a = cwc::tasks::run_with_migrations(*raw, input, 512, 3);
      const auto b = cwc::tasks::run_with_migrations(w, input, 512, 3);
      same = same && a == b && raw->aggregate({a, a}) == w.aggregate({b, b});
    }
    check(same, "task wrappers forward every TaskFactory/Task virtual unchanged");
  }
  {
    Context ctx;
    ctx.args = base;
    ctx.args.smoke = true;
    ctx.args.workload = "live_cold";
    check(live_planted_corruption_caught(&ctx),
          "a one-byte corruption of one partial result fails the batch");
  }
  {
    // The same seed gives the same makespans in two independent set-ups.
    double first = 0.0;
    for (int round = 0; round < 2; ++round) {
      Context ctx;
      ctx.args = base;
      ctx.args.smoke = true;
      ctx.args.workload = "sim_fleet";
      auto workload = make_sim(&ctx);
      workload->setup();
      for (std::size_t n = 0; n < workload->min_nights(); ++n) workload->night(n);
      if (round == 0) {
        first = workload->makespan_s();
      } else {
        check(first == workload->makespan_s() && first > 0.0,
              "sim_makespan_s repeats exactly for one seed");
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

Args parse(int argc, char** argv, bool* selftest_mode) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && arg != "--selftest" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--selftest") {
      *selftest_mode = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    bool selftest_mode = false;
    Args args = parse(argc, argv, &selftest_mode);
    if (selftest_mode) return selftest(args);
    Context ctx;
    ctx.args = args;
    const Outcome outcome = run_workload(ctx);
    print_result(outcome);
    return outcome.correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cwc_perfbench: %s\n", e.what());
    return 2;
  }
}
