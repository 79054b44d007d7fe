// Transparent wrappers that time the core and tasks layers from outside.
//
// TimedScheduler decorates any core::Scheduler: every build reads the
// clock twice (the only timing in an untraced run, which plan_ms needs)
// and, in traced runs, opens a "core.build" span. When the inner scheduler
// is a PodPackingScheduler the decorator calls build_diagnosed, the same
// code path build/build_with_hint take, to collect the per-pod LP bounds
// the sim_fleet correctness gate checks.
//
// TracedFactory / TracedTask wrap a TaskFactory and the Tasks it creates;
// installed in the TaskRegistry the server and the agents share, they
// count steps and bytes and, in traced runs, time every step and every
// aggregation. Every virtual forwards to the wrapped object.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/pod_packing.h"
#include "core/scheduler.h"
#include "tasks/registry.h"
#include "tasks/task.h"

namespace perfbench {

/// What the decorator saw, across every build it forwarded.
struct BuildLog {
  std::vector<double> build_ms;  ///< wall ms per build, in call order
  /// sim_fleet gate: builds whose achieved capacity fell below one of the
  /// pod lower bounds in its diagnostics (must stay 0).
  std::size_t bound_violations = 0;
  std::size_t diagnosed_builds = 0;
  /// Traced runs keep a copy of the inputs of their first build so the LP
  /// pod bounds can be replayed outside the timed nights.
  struct Captured {
    std::vector<cwc::core::JobSpec> jobs;
    std::vector<cwc::core::PhoneSpec> phones;
    cwc::core::PredictionModel prediction;
    cwc::core::InitialLoad initial_load;
  };
  std::size_t capture_budget = 0;  ///< builds left to capture
  std::vector<Captured> captured;
};

class TimedScheduler final : public cwc::core::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<cwc::core::Scheduler> inner, BuildLog* log);

  const char* name() const override { return inner_->name(); }
  cwc::core::Schedule build(const std::vector<cwc::core::JobSpec>& jobs,
                            const std::vector<cwc::core::PhoneSpec>& phones,
                            const cwc::core::PredictionModel& prediction,
                            const cwc::core::InitialLoad& initial_load = {}) const override;
  cwc::core::Schedule build_with_hint(const std::vector<cwc::core::JobSpec>& jobs,
                                      const std::vector<cwc::core::PhoneSpec>& phones,
                                      const cwc::core::PredictionModel& prediction,
                                      const cwc::core::InitialLoad& initial_load,
                                      std::optional<cwc::Millis> capacity_hint) const override;
  void bind_health(const cwc::core::HealthProvider* health) override {
    inner_->bind_health(health);
  }
  void bind_locality(const cwc::core::LocalityProvider* locality) override {
    inner_->bind_locality(locality);
  }

 private:
  cwc::core::Schedule timed(const std::vector<cwc::core::JobSpec>& jobs,
                            const std::vector<cwc::core::PhoneSpec>& phones,
                            const cwc::core::PredictionModel& prediction,
                            const cwc::core::InitialLoad& initial_load,
                            std::optional<std::optional<cwc::Millis>> hint) const;

  std::unique_ptr<cwc::core::Scheduler> inner_;
  const cwc::core::PodPackingScheduler* pods_ = nullptr;  ///< inner_, when it packs pods
  BuildLog* log_;
};

/// Per-task-program counters filled by the wrappers (shared by all agents).
struct TaskStats {
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint64_t> bytes{0};
  // Counted only while spans are recorded.
  std::atomic<std::uint64_t> traced_bytes{0};
  std::atomic<std::uint64_t> step_ns{0};
  std::atomic<std::uint64_t> aggregate_ns{0};
};

class TracedFactory final : public cwc::tasks::TaskFactory {
 public:
  TracedFactory(std::shared_ptr<const cwc::tasks::TaskFactory> inner, TaskStats* stats);

  const std::string& name() const override { return inner_->name(); }
  cwc::JobKind kind() const override { return inner_->kind(); }
  cwc::Kilobytes executable_kb() const override { return inner_->executable_kb(); }
  cwc::MsPerKb reference_ms_per_kb() const override { return inner_->reference_ms_per_kb(); }
  std::unique_ptr<cwc::tasks::Task> create() const override;
  cwc::tasks::Bytes aggregate(const std::vector<cwc::tasks::Bytes>& partials) const override;

 private:
  std::shared_ptr<const cwc::tasks::TaskFactory> inner_;
  TaskStats* stats_;
};

/// Arms a one-shot corruption: the next partial result produced by a task
/// named `task` has one byte flipped (the planted-fault self-test).
void plant_partial_corruption(const std::string& task);
/// True once the planted corruption has been applied.
bool planted_corruption_fired();

/// The five built-in task programs, each wrapped; `stats` is keyed by the
/// program name and must outlive the registry.
cwc::tasks::TaskRegistry wrapped_builtins(std::map<std::string, TaskStats>* stats);

/// The built-in programs, unwrapped, by registry name.
std::vector<std::shared_ptr<const cwc::tasks::TaskFactory>> builtin_factories();

}  // namespace perfbench
