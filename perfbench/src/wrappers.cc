#include "wrappers.h"

#include <map>

#include "spans.h"
#include "tasks/blur.h"
#include "tasks/logscan.h"
#include "tasks/primes.h"
#include "tasks/sales.h"
#include "tasks/wordcount.h"

namespace perfbench {

using namespace cwc;

TimedScheduler::TimedScheduler(std::unique_ptr<core::Scheduler> inner, BuildLog* log)
    : inner_(std::move(inner)),
      pods_(dynamic_cast<const core::PodPackingScheduler*>(inner_.get())),
      log_(log) {}

core::Schedule TimedScheduler::build(const std::vector<core::JobSpec>& jobs,
                                     const std::vector<core::PhoneSpec>& phones,
                                     const core::PredictionModel& prediction,
                                     const core::InitialLoad& initial_load) const {
  return timed(jobs, phones, prediction, initial_load, std::nullopt);
}

core::Schedule TimedScheduler::build_with_hint(const std::vector<core::JobSpec>& jobs,
                                               const std::vector<core::PhoneSpec>& phones,
                                               const core::PredictionModel& prediction,
                                               const core::InitialLoad& initial_load,
                                               std::optional<Millis> capacity_hint) const {
  return timed(jobs, phones, prediction, initial_load, capacity_hint);
}

// `hint` is nullopt for build(), and holds build_with_hint's (possibly
// empty) capacity hint otherwise, so each entry point forwards to its own.
core::Schedule TimedScheduler::timed(const std::vector<core::JobSpec>& jobs,
                                     const std::vector<core::PhoneSpec>& phones,
                                     const core::PredictionModel& prediction,
                                     const core::InitialLoad& initial_load,
                                     std::optional<std::optional<Millis>> hint) const {
  core::PodPackingScheduler::Diagnostics diag;
  core::Schedule schedule;
  const std::int64_t start = now_ns();
  {
    ScopedSpan span("core.build");
    if (pods_ != nullptr) {
      schedule = pods_->build_diagnosed(jobs, phones, prediction, initial_load,
                                        hint.value_or(std::nullopt), &diag);
    } else if (hint) {
      schedule = inner_->build_with_hint(jobs, phones, prediction, initial_load, *hint);
    } else {
      schedule = inner_->build(jobs, phones, prediction, initial_load);
    }
  }
  log_->build_ms.push_back(static_cast<double>(now_ns() - start) / 1.0e6);
  if (pods_ != nullptr) {
    ++log_->diagnosed_builds;
    for (const Millis bound : diag.pod_lower_bounds) {
      if (diag.pods > 1 && bound > diag.capacity * (1.0 + 1e-9) + 1e-6) {
        ++log_->bound_violations;
        break;
      }
    }
  }
  if (log_->capture_budget > 0) {
    --log_->capture_budget;
    log_->captured.push_back({jobs, phones, prediction, initial_load});
  }
  return schedule;
}

namespace {

std::atomic<bool> g_plant_armed{false};
std::atomic<bool> g_plant_fired{false};
std::string g_plant_task;  // written before the agents start, read by them

class TracedTask final : public tasks::Task {
 public:
  TracedTask(std::unique_ptr<tasks::Task> inner, TaskStats* stats, const std::string* name)
      : inner_(std::move(inner)), stats_(stats), name_(name) {}

  std::size_t step(tasks::ByteView input, std::size_t budget) override {
    std::size_t consumed = 0;
    if (SpanRecorder::global().enabled()) {
      const std::int64_t start = now_ns();
      {
        ScopedSpan span("tasks.step");
        consumed = inner_->step(input, budget);
      }
      stats_->step_ns.fetch_add(static_cast<std::uint64_t>(now_ns() - start),
                                std::memory_order_relaxed);
      stats_->traced_bytes.fetch_add(consumed, std::memory_order_relaxed);
    } else {
      consumed = inner_->step(input, budget);
    }
    stats_->steps.fetch_add(1, std::memory_order_relaxed);
    stats_->bytes.fetch_add(consumed, std::memory_order_relaxed);
    return consumed;
  }
  std::uint64_t consumed() const override { return inner_->consumed(); }
  tasks::Checkpoint checkpoint() const override { return inner_->checkpoint(); }
  void restore(const tasks::Checkpoint& cp) override { inner_->restore(cp); }
  tasks::Bytes partial_result() const override {
    tasks::Bytes result = inner_->partial_result();
    if (g_plant_armed.load() && !result.empty() && *name_ == g_plant_task &&
        g_plant_armed.exchange(false)) {
      result[0] ^= 0x01;
      g_plant_fired.store(true);
    }
    return result;
  }

 private:
  std::unique_ptr<tasks::Task> inner_;
  TaskStats* stats_;
  const std::string* name_;
};

}  // namespace

void plant_partial_corruption(const std::string& task) {
  g_plant_task = task;
  g_plant_fired.store(false);
  g_plant_armed.store(true);
}

bool planted_corruption_fired() { return g_plant_fired.load(); }

TracedFactory::TracedFactory(std::shared_ptr<const tasks::TaskFactory> inner, TaskStats* stats)
    : inner_(std::move(inner)), stats_(stats) {}

std::unique_ptr<tasks::Task> TracedFactory::create() const {
  return std::make_unique<TracedTask>(inner_->create(), stats_, &inner_->name());
}

tasks::Bytes TracedFactory::aggregate(const std::vector<tasks::Bytes>& partials) const {
  const std::int64_t start = SpanRecorder::global().enabled() ? now_ns() : 0;
  tasks::Bytes result;
  {
    ScopedSpan span("tasks.aggregate");
    result = inner_->aggregate(partials);
  }
  if (start != 0) {
    stats_->aggregate_ns.fetch_add(static_cast<std::uint64_t>(now_ns() - start),
                                   std::memory_order_relaxed);
  }
  return result;
}

std::vector<std::shared_ptr<const tasks::TaskFactory>> builtin_factories() {
  return {std::make_shared<tasks::PrimeCountFactory>(),
          std::make_shared<tasks::WordCountFactory>(),
          std::make_shared<tasks::LogScanFactory>(),
          std::make_shared<tasks::SalesAggregateFactory>(),
          std::make_shared<tasks::BlurFactory>()};
}

tasks::TaskRegistry wrapped_builtins(std::map<std::string, TaskStats>* stats) {
  tasks::TaskRegistry registry;
  for (auto& factory : builtin_factories()) {
    TaskStats* slot = &(*stats)[factory->name()];
    registry.install(std::make_shared<TracedFactory>(std::move(factory), slot));
  }
  return registry;
}

}  // namespace perfbench
