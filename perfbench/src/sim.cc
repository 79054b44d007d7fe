// Simulated churn nights (sim_fleet): TestbedSimulation driving the
// CwcController over sim::scaled_fleet(512) with PodPackingScheduler
// (pods=auto, per-pod LP bounds), per-night seeded churn (slow, flaky and
// flapping phones), online and offline unplugs, and speculation on.
//
// Set-up draws a fleet and jobs for every two pool nights and runs one
// calm night (no churn, no unplugs) on each draw as the warm-up; the
// churned phones and the unplugged ones are drawn from the phones that
// night kept busy, and failure times scale with its makespan, so failures
// land on work in flight. A run cycles through a fixed pool of nights and
// visits each at least once, so the mean makespan is a property of the
// seed alone; every repeat of a pool night must reproduce the makespan of
// its first run.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "core/pod_packing.h"
#include "core/relaxation.h"
#include "core/testbed.h"
#include "sim/churn.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using namespace cwc;

namespace {

constexpr std::size_t kPhones = 512;
constexpr std::size_t kChurned = 2;  ///< phones per profile (slow, flaky, flapping)
constexpr std::size_t kUnplugs = 2;  ///< online and offline unplugs each
constexpr std::size_t kPool = 4;     ///< distinct nights per run
/// Pool nights that share a fleet and jobs: a calm fleet night, one per
/// draw, costs ~1 s of set-up.
constexpr std::size_t kNightsPerScenario = 2;

/// A fleet and its jobs, with what a calm night (no churn, no unplugs) on
/// them showed: its makespan and the phones it kept busy.
struct Scenario {
  std::vector<core::PhoneSpec> phones;
  std::vector<core::JobSpec> jobs;
  double input_bytes = 0.0;
  Millis calm_makespan = 0.0;
  std::vector<PhoneId> busy;
};

struct NightConfig {
  std::uint64_t seed = 0;
  std::shared_ptr<const Scenario> scenario;
  std::vector<core::PhoneSpec> phones;  ///< the scenario's, slow profiles applied
  std::vector<sim::FailureEvent> events;
  std::optional<Millis> reference_makespan;  ///< set by the night's first run
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

class SimWorkload final : public Workload {
 public:
  explicit SimWorkload(Context* ctx) : ctx_(ctx), prediction_(core::paper_prediction()) {
    options_.speculation.enabled = true;
    pod_options_.parallel_pods = std::max(1u, std::thread::hardware_concurrency());
  }

  /// Draws a fleet and jobs for every kNightsPerScenario pool nights, so a
  /// seed's mean night is not one fleet's.
  void setup() override {
    Rng rng(mix(ctx_->args.seed, 2));
    pool_.clear();
    std::shared_ptr<const Scenario> scenario;
    for (std::size_t n = 0; n < min_nights(); ++n) {
      if (n % kNightsPerScenario == 0) scenario = make_scenario(rng);
      pool_.push_back(make_night(scenario, rng.next_u64()));
    }
  }

  std::size_t min_nights() const override { return ctx_->args.smoke ? 1 : kPool; }

  NightSample night(std::size_t index) override {
    NightConfig& config = pool_[index % pool_.size()];
    NightSample s;
    const sim::SimResult result = run(config, /*decorated=*/true, &s);
    if (!config.reference_makespan) config.reference_makespan = result.makespan;
    s.ok = result.completed && result.makespan == *config.reference_makespan;
    s.input_bytes = config.scenario->input_bytes;
    s.shipped_bytes = result.shipped_kb * 1024.0;
    return s;
  }

  double makespan_s() const override {
    double total = 0.0;
    for (const NightConfig& night : pool_) {
      if (!night.reference_makespan) throw std::logic_error("a pool night never ran");
      total += *night.reference_makespan;
    }
    return to_seconds(total / static_cast<double>(pool_.size()));
  }

  void replays(std::map<std::string, double>* out) override {
    (*out)["common.crc32_mb_per_s"] = 0.0;
    (*out)["common.chunk_blob_mb_per_s"] = 0.0;
    std::vector<double> bound_ms;
    std::vector<double> iterations;
    const core::PodPackingScheduler pods(pod_options_);
    lp::SolverOptions solver;
    solver.max_iterations = pod_options_.lp_bound_max_iterations;
    for (const BuildLog::Captured& build : ctx_->builds.captured) {
      const auto layout =
          pods.layout(build.jobs, build.phones, build.prediction, build.initial_load);
      for (std::size_t p = 0; p < layout.phone_indices.size(); ++p) {
        const auto& share = layout.job_shares[p];
        const std::size_t cells = share.size() * layout.phone_indices[p].size();
        if (share.empty() || cells > pod_options_.lp_bound_max_cells) continue;
        std::vector<core::PhoneSpec> phones;
        for (const std::size_t g : layout.phone_indices[p]) phones.push_back(build.phones[g]);
        const std::int64_t start = now_ns();
        const core::RelaxationResult bound =
            core::relaxed_lower_bound(share, phones, build.prediction, solver);
        bound_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
        if (bound.solved) iterations.push_back(static_cast<double>(bound.lp_iterations));
      }
    }
    (*out)["lp.pod_bound_ms_p50"] = median(bound_ms);
    (*out)["lp.iterations_per_bound"] = mean(iterations);
  }

  /// Self-test: pool night 0 with and without the decorator.
  bool transparent(std::string* why) {
    const NightConfig& config = pool_.front();
    const sim::SimResult wrapped = run(config, true, nullptr);
    const sim::SimResult raw = run(config, false, nullptr);
    const auto digest = [](const core::Schedule& s) {
      std::vector<double> out{s.predicted_makespan};
      for (const core::PhonePlan& plan : s.plans) {
        out.push_back(plan.phone);
        out.push_back(plan.predicted_finish);
        for (const core::JobPiece& piece : plan.pieces) {
          out.push_back(piece.job);
          out.push_back(piece.input_kb);
        }
      }
      return out;
    };
    if (digest(wrapped.first_schedule) != digest(raw.first_schedule)) {
      *why = "first schedules differ";
      return false;
    }
    if (wrapped.makespan != raw.makespan || wrapped.scheduling_rounds != raw.scheduling_rounds ||
        wrapped.shipped_kb != raw.shipped_kb) {
      *why = "makespan, rounds or shipped bytes differ";
      return false;
    }
    return true;
  }

 private:
  /// Draws a fleet and jobs and runs one calm night on them as warm-up.
  std::shared_ptr<const Scenario> make_scenario(Rng& rng) {
    auto scenario = std::make_shared<Scenario>();
    scenario->phones = sim::scaled_fleet(rng, kPhones);
    Rng workload_rng(rng.next_u64());
    scenario->jobs = core::paper_workload(workload_rng);
    for (const core::JobSpec& job : scenario->jobs) scenario->input_bytes += job.input_kb * 1024.0;
    NightConfig calm;
    calm.seed = rng.next_u64();
    calm.scenario = scenario;
    calm.phones = scenario->phones;
    const sim::SimResult warm_up = run(calm, /*decorated=*/true, nullptr);
    if (!warm_up.completed) throw std::runtime_error("warm-up night did not complete");
    scenario->calm_makespan = warm_up.makespan;
    for (const core::PhonePlan& plan : warm_up.first_schedule.plans) {
      if (!plan.pieces.empty()) scenario->busy.push_back(plan.phone);
    }
    if (scenario->busy.size() < 3 * kChurned + 2 * kUnplugs) {
      throw std::runtime_error("too few busy phones to churn");
    }
    return scenario;
  }

  NightConfig make_night(std::shared_ptr<const Scenario> scenario, std::uint64_t seed) const {
    const std::vector<PhoneId>& busy = scenario->busy;
    const Millis calm_makespan = scenario->calm_makespan;
    NightConfig night;
    night.seed = seed;
    night.phones = scenario->phones;
    night.scenario = std::move(scenario);
    Rng rng(seed);
    // Distinct busy phones for the churn profiles and the unplugs.
    std::vector<PhoneId> picks;
    while (picks.size() < 3 * kChurned + 2 * kUnplugs) {
      const PhoneId id = busy[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(busy.size()) - 1))];
      if (std::find(picks.begin(), picks.end(), id) == picks.end()) picks.push_back(id);
    }
    std::vector<sim::ChurnSpec> specs;
    std::size_t next = 0;
    for (std::size_t k = 0; k < kChurned; ++k) {
      specs.push_back({picks[next++], sim::ChurnProfile::kSlow, rng.uniform(3.0, 4.0)});
      specs.push_back({picks[next++], sim::ChurnProfile::kFlaky, 1.0});
      specs.push_back({picks[next++], sim::ChurnProfile::kFlapping, 1.0});
    }
    sim::apply_slow_profiles(specs, night.phones);
    sim::ChurnOptions churn;
    churn.horizon = 2.0 * calm_makespan;
    churn.mean_up = calm_makespan;
    churn.mean_down = 0.1 * calm_makespan;
    night.events = sim::churn_events(specs, churn, rng.next_u64());
    for (std::size_t k = 0; k < kUnplugs; ++k) {
      for (const auto kind : {sim::FailureKind::kUnplugOnline, sim::FailureKind::kUnplugOffline}) {
        const PhoneId phone = picks[next++];
        const Millis at = rng.uniform(0.1, 0.5) * calm_makespan;
        night.events.push_back({at, phone, kind});
        night.events.push_back({at + rng.uniform(0.1, 0.3) * calm_makespan, phone,
                                sim::FailureKind::kReplug});
      }
    }
    return night;
  }

  sim::SimResult run(const NightConfig& config, bool decorated, NightSample* sample) {
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_ms();
    std::unique_ptr<sim::TestbedSimulation> simulation;
    {
      ScopedSpan span("sim.setup");
      std::unique_ptr<core::Scheduler> scheduler =
          std::make_unique<core::PodPackingScheduler>(pod_options_);
      if (decorated) {
        scheduler = std::make_unique<TimedScheduler>(std::move(scheduler), &ctx_->builds);
      }
      simulation = std::make_unique<sim::TestbedSimulation>(
          std::move(scheduler), prediction_, config.phones, options_, config.seed);
      for (const core::JobSpec& job : config.scenario->jobs) simulation->submit(job);
      for (const sim::FailureEvent& event : config.events) simulation->inject(event);
    }
    sim::SimResult result;
    {
      ScopedSpan span("sim.run");
      result = simulation->run();
    }
    if (sample != nullptr) {
      sample->cpu_ms = process_cpu_ms() - cpu_start;
      sample->wall_s = static_cast<double>(now_ns() - start) / 1e9;
    }
    return result;
  }

  Context* ctx_;
  core::PredictionModel prediction_;
  sim::SimOptions options_;
  core::PodPackingScheduler::Options pod_options_;
  std::vector<NightConfig> pool_;
};

}  // namespace

std::unique_ptr<Workload> make_sim(Context* ctx) { return std::make_unique<SimWorkload>(ctx); }

bool sim_wrapper_transparent(Context* ctx, std::string* why) {
  SimWorkload workload(ctx);
  workload.setup();
  return workload.transparent(why);
}

}  // namespace perfbench
