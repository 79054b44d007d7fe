// The benchmark's workloads. Each is closed loop with one night (a live
// batch or a simulated night) in flight; all inputs derive from the seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "wrappers.h"

namespace perfbench {

/// State shared by the main loop and a workload: the decorator's build log
/// and the task wrappers' counters.
struct Context {
  Args args;
  BuildLog builds;
  std::map<std::string, TaskStats> task_stats;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates inputs and reference results, then warms up. Called more
  /// than once (setup_s is the median); each call replaces the last state.
  virtual void setup() = 0;
  /// One timed night. `index` counts nights from the start of the run.
  virtual NightSample night(std::size_t index) = 0;
  /// Nights a measured phase runs at least, however short `seconds` is.
  virtual std::size_t min_nights() const = 0;
  /// sim_makespan_s: mean simulated makespan (s) of the workload's nights.
  virtual double makespan_s() const = 0;
  /// Cumulative journal bytes written (live_repeat; 0 elsewhere).
  virtual double journal_bytes() const { return 0.0; }
  /// Traced runs: per-layer metrics measured by replaying work outside the
  /// timed nights (common.* replays over live inputs, lp.* pod bounds).
  virtual void replays(std::map<std::string, double>* out) = 0;
};

std::unique_ptr<Workload> make_live(Context* ctx, bool repeat);
std::unique_ptr<Workload> make_sim(Context* ctx);

/// Live batch shape, exposed for the self-tests: runs one live_cold batch
/// with a planted corruption and reports whether the batch was counted as
/// failed (true = caught).
bool live_planted_corruption_caught(Context* ctx);

/// Self-test: the same simulated night with and without the scheduler
/// decorator gives identical first schedules and makespans.
bool sim_wrapper_transparent(Context* ctx, std::string* why);

}  // namespace perfbench
