// Live loopback batches: a real CwcServer on the calling thread and
// nproc - 1 PhoneAgent threads over loopback TCP, running the built-in
// task programs on seeded inputs.
//
//   live_cold    a fresh server and fresh agents per batch; no chunking,
//                no journal, no agent cache.
//   live_repeat  the same batch every night; the agents keep their chunk
//                caches and reconnect to a server restarted on a fixed
//                port; 64 KiB chunking and the journal are on.
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/chunk.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/phone_agent.h"
#include "obs/metrics.h"
#include "net/server.h"
#include "sim/simulator.h"
#include "spans.h"
#include "tasks/generators.h"
#include "workloads.h"

namespace perfbench {

using namespace cwc;

namespace {

/// Server thread plus these agent threads fill the machine's cores.
int phone_count() {
  const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
  return static_cast<int>(cores) - 1;
}

constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::uint64_t kAgentCacheBytes = 256ull << 20;

struct LiveJob {
  std::string task;
  net::Blob input;
  net::Blob expected;
};

class LiveWorkload final : public Workload {
 public:
  LiveWorkload(Context* ctx, bool repeat) : ctx_(ctx), repeat_(repeat) {
    for (auto& factory : builtin_factories()) raw_[factory->name()] = factory;
    registry_ = wrapped_builtins(&ctx_->task_stats);
    prediction_ = core::prediction_for(registry_);
    config_.keepalive_period = 50.0;
    config_.keepalive_misses = 5;
    config_.scheduling_period = 100.0;
    config_.chunk_bytes = repeat ? kChunkBytes : 0;
    if (repeat) {
      std::filesystem::create_directories(ctx_->args.work_dir);
      journal_path_ = ctx_->args.work_dir + "/live_repeat.journal";
      config_.journal_path = journal_path_;
    }
  }

  void setup() override {
    agents_.clear();
    port_ = 0;
    generate();
    // Warm-up. A repeat fleet needs two batches to settle: the second one
    // re-splits the inputs toward the now-warm caches and ships the chunks
    // that moved; from the third batch on, the shipped bytes repeat.
    for (int warm = 0; warm < (repeat_ ? 2 : 1); ++warm) {
      if (!batch().ok) throw std::runtime_error("live warm-up batch failed");
    }
  }

  NightSample night(std::size_t) override { return batch(); }
  std::size_t min_nights() const override { return ctx_->args.smoke ? 1 : 3; }

  double makespan_s() const override { return makespan_s_; }
  double journal_bytes() const override { return journal_bytes_; }

  void replays(std::map<std::string, double>* out) override {
    const double mb = input_bytes_ / 1048576.0;
    std::vector<double> crc_s;
    std::vector<double> chunk_s;
    std::uint32_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
      std::int64_t start = now_ns();
      for (const LiveJob& job : jobs_) sink ^= crc32(job.input);
      crc_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
      start = now_ns();
      for (const LiveJob& job : jobs_) {
        sink ^= static_cast<std::uint32_t>(chunk_blob(job.input, kChunkBytes).front().id);
      }
      chunk_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    (*out)["common.crc32_mb_per_s"] = mb / median(crc_s);
    (*out)["common.chunk_blob_mb_per_s"] = mb / median(chunk_s);
    (*out)["lp.iterations_per_bound"] = 0.0;
    (*out)["lp.pod_bound_ms_p50"] = 0.0;
    replay_sink_ ^= sink;  // keeps the replayed work observable
  }

  /// Runs one batch with a one-byte corruption planted in a partial result.
  bool planted_batch_failed() {
    setup();
    plant_partial_corruption("prime-count");
    const NightSample s = batch();
    return planted_corruption_fired() && !s.ok;
  }

 private:
  void generate() {
    Rng rng(ctx_->args.seed * 0x9E3779B97F4A7C15ull + 0x11);
    const Kilobytes kb = ctx_->args.smoke ? 256.0 : 4096.0;
    const Kilobytes image_kb = ctx_->args.smoke ? 64.0 : 1024.0;
    jobs_.clear();
    jobs_.push_back({"prime-count", tasks::make_integer_input(rng, kb), {}});
    jobs_.push_back({"word-count:error", tasks::make_text_input(rng, kb), {}});
    jobs_.push_back({"log-scan:disk failure", tasks::make_log_input(rng, kb), {}});
    jobs_.push_back({"sales-aggregate", tasks::make_sales_input(rng, kb), {}});
    for (int k = 0; k < 4; ++k) {
      jobs_.push_back({"photo-blur", tasks::make_image_input_of_size(rng, image_kb), {}});
    }
    // References: one uninterrupted pass per input with the unwrapped
    // programs, through the same aggregation the server applies.
    input_bytes_ = 0.0;
    std::vector<core::JobSpec> specs;
    for (LiveJob& job : jobs_) {
      const tasks::TaskFactory& factory = *raw_.at(job.task);
      job.expected = factory.aggregate({tasks::run_to_completion(factory, job.input)});
      input_bytes_ += static_cast<double>(job.input.size());
      specs.push_back({static_cast<JobId>(specs.size()), job.task, factory.kind(),
                       factory.executable_kb(), static_cast<double>(job.input.size()) / 1024.0});
    }
    // sim_makespan_s for a live workload: the simulator's makespan for this
    // batch on the declared fleet (identical phones on a LAN-class link).
    std::vector<core::PhoneSpec> phones;
    for (int i = 0; i < phone_count(); ++i) {
      phones.push_back({.id = i, .cpu_mhz = 1000.0, .b = 0.05});
    }
    sim::TestbedSimulation simulation(std::make_unique<core::GreedyScheduler>(), prediction_,
                                      phones, sim::SimOptions{}, ctx_->args.seed);
    for (const core::JobSpec& spec : specs) simulation.submit(spec);
    const sim::SimResult result = simulation.run();
    if (!result.completed) throw std::runtime_error("live batch does not complete in the simulator");
    makespan_s_ = to_seconds(result.makespan);
  }

  void make_agents() {
    agents_.clear();
    for (int i = 0; i < phone_count(); ++i) {
      net::PhoneAgentConfig config;
      config.id = i;
      config.cpu_mhz = 1000.0;
      config.cache_bytes = repeat_ ? kAgentCacheBytes : 0;
      agents_.push_back(std::make_unique<net::PhoneAgent>(port_, config, &registry_));
    }
  }

  NightSample batch() {
    NightSample s;
    SpanRecorder& recorder = SpanRecorder::global();
    if (repeat_) std::filesystem::remove(journal_path_);
    const double sent_before = obs::counter("net.server.bytes_sent").value();
    const std::int64_t start = now_ns();
    const double cpu_start = thread_cpu_ms();

    net::ServerConfig config = config_;
    if (repeat_) config.port = port_;
    std::unique_ptr<net::CwcServer> server;
    {
      ScopedSpan span("net.construct");
      server = std::make_unique<net::CwcServer>(
          std::make_unique<TimedScheduler>(std::make_unique<core::GreedyScheduler>(),
                                           &ctx_->builds),
          prediction_, &registry_, config);
    }
    std::vector<JobId> ids;
    {
      ScopedSpan span("net.submit");
      for (const LiveJob& job : jobs_) ids.push_back(server->submit(job.task, job.input));
    }
    if (agents_.empty()) {
      port_ = server->port();
      make_agents();
    }
    for (auto& agent : agents_) agent->start();
    bool ok = false;
    {
      ScopedSpan span("net.run");
      recorder.set_foreign_parent(span.id());
      try {
        ok = server->run(phone_count(), seconds(60.0));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "batch failed: %s\n", e.what());
      }
      recorder.set_foreign_parent(0);
    }
    s.cpu_ms = thread_cpu_ms() - cpu_start;
    {
      ScopedSpan span("bench.verify");
      for (std::size_t i = 0; i < jobs_.size() && ok; ++i) {
        ok = server->job_done(ids[i]) && server->result(ids[i]) == jobs_[i].expected;
      }
    }
    s.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    s.ok = ok;
    s.input_bytes = input_bytes_;
    s.shipped_bytes = obs::counter("net.server.bytes_sent").value() - sent_before;

    if (!ok) {
      for (auto& agent : agents_) agent->stop();
    }
    for (auto& agent : agents_) agent->join();
    // Cold batches start from fresh agents; repeat agents survive (with
    // their caches) unless the batch failed and they had to be stopped.
    if (!repeat_ || !ok) agents_.clear();
    server.reset();
    if (repeat_) {
      journal_bytes_ += static_cast<double>(std::filesystem::file_size(journal_path_));
    }
    return s;
  }

  Context* ctx_;
  bool repeat_;
  std::map<std::string, std::shared_ptr<const tasks::TaskFactory>> raw_;
  tasks::TaskRegistry registry_;
  core::PredictionModel prediction_;
  net::ServerConfig config_;
  std::string journal_path_;
  std::vector<LiveJob> jobs_;
  double input_bytes_ = 0.0;
  double makespan_s_ = 0.0;
  double journal_bytes_ = 0.0;
  std::uint16_t port_ = 0;
  std::uint32_t replay_sink_ = 0;
  std::vector<std::unique_ptr<net::PhoneAgent>> agents_;
};

}  // namespace

std::unique_ptr<Workload> make_live(Context* ctx, bool repeat) {
  return std::make_unique<LiveWorkload>(ctx, repeat);
}

bool live_planted_corruption_caught(Context* ctx) {
  LiveWorkload workload(ctx, /*repeat=*/false);
  return workload.planted_batch_failed();
}

}  // namespace perfbench
