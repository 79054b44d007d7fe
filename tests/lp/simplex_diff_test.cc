// Differential test of the sparse revised simplex against the dense-tableau
// oracle it replaced (dense_reference.h). Both apply the same pivot rules,
// so on every problem they must agree on the status, agree on the optimum
// to 1e-9 relative, and the revised solver's point must be primal feasible.
// Covers random small LPs mixing <=/>=/== rows (negative rhs, redundant
// equalities, infeasible and unbounded draws), fig13-shaped SCH
// relaxations, and one pod-shaped relaxation from a 512-phone fleet with
// and without a locality credit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/locality.h"
#include "core/pod_packing.h"
#include "core/relaxation.h"
#include "core/testbed.h"
#include "dense_reference.h"
#include "lp/simplex.h"
#include "sim/fleet.h"

namespace cwc::lp {
namespace {

/// Expects `x` to satisfy every row of `p` to 1e-6 of the row's magnitude
/// (the largest of 1, |rhs| and each |coeff * x|) and every x >= -1e-6.
void expect_feasible(const Problem& p, const std::vector<double>& x, const char* what) {
  ASSERT_EQ(x.size(), p.variable_count()) << what;
  for (std::size_t v = 0; v < x.size(); ++v) EXPECT_GE(x[v], -1e-6) << what << " x" << v;
  for (std::size_t r = 0; r < p.constraint_count(); ++r) {
    const Constraint& c = p.constraints()[r];
    double lhs = 0.0;
    double scale = std::max(1.0, std::abs(c.rhs));
    for (const auto& [var, coeff] : c.terms) {
      lhs += coeff * x[var];
      scale = std::max(scale, std::abs(coeff * x[var]));
    }
    const double tol = 1e-6 * scale;
    switch (c.relation) {
      case Relation::kLessEqual: EXPECT_LE(lhs, c.rhs + tol) << what << " row " << r; break;
      case Relation::kGreaterEqual: EXPECT_GE(lhs, c.rhs - tol) << what << " row " << r; break;
      case Relation::kEqual: EXPECT_NEAR(lhs, c.rhs, tol) << what << " row " << r; break;
    }
  }
}

/// Solves with both solvers and checks they agree; returns the status.
SolveStatus expect_same(const Problem& p, const char* what, const SolverOptions& opt = {}) {
  const Solution revised = solve(p, opt);
  const Solution dense = reference::dense_solve(p, opt);
  EXPECT_EQ(revised.status, dense.status) << what;
  if (revised.status == SolveStatus::kOptimal && dense.status == SolveStatus::kOptimal) {
    const double scale = std::max({1.0, std::abs(dense.objective), std::abs(revised.objective)});
    EXPECT_LE(std::abs(revised.objective - dense.objective), 1e-9 * scale)
        << what << ": revised " << revised.objective << " dense " << dense.objective;
    expect_feasible(p, revised.values, what);
  }
  return revised.status;
}

/// A small LP with random <=/>=/== rows; some rows have negative or zero
/// rhs and some equalities are restated (scaled) to make them redundant.
Problem random_lp(Rng& rng) {
  Problem p;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 7));
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 7));
  for (std::size_t v = 0; v < n; ++v) p.add_variable(rng.uniform(-4.0, 6.0));
  for (std::size_t r = 0; r < m; ++r) {
    Constraint c;
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.uniform(0.0, 1.0) < 0.3) continue;
      c.terms.emplace_back(v, std::round(rng.uniform(-3.0, 5.0) * 4.0) / 4.0);
    }
    const double pick = rng.uniform(0.0, 1.0);
    c.relation = pick < 0.45 ? Relation::kLessEqual
                 : pick < 0.8 ? Relation::kGreaterEqual
                              : Relation::kEqual;
    // Zero right-hand sides leave degenerate artificials basic after
    // phase 1, which phase 2 must not push away from zero.
    c.rhs = rng.uniform(0.0, 1.0) < 0.2 ? 0.0 : std::round(rng.uniform(-8.0, 20.0));
    if (c.relation == Relation::kEqual && rng.uniform(0.0, 1.0) < 0.5) {
      Constraint twice = c;
      for (auto& term : twice.terms) term.second *= 2.0;
      twice.rhs *= 2.0;
      p.add_constraint(std::move(twice));
    }
    p.add_constraint(std::move(c));
  }
  return p;
}

TEST(SimplexDiff, RandomSmallLpsMatchDenseReference) {
  std::map<SolveStatus, int> seen;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed * 7919);
    const Problem p = random_lp(rng);
    const std::string what = "seed " + std::to_string(seed);
    ++seen[expect_same(p, what.c_str())];
  }
  // The draw must exercise every terminal status the solvers share.
  EXPECT_GT(seen[SolveStatus::kOptimal], 0);
  EXPECT_GT(seen[SolveStatus::kInfeasible], 0);
  EXPECT_GT(seen[SolveStatus::kUnbounded], 0);
}

TEST(SimplexDiff, IterationLimitMatchesDenseReference) {
  Rng rng(0x5EED);
  const std::vector<core::PhoneSpec> phones = core::paper_testbed(rng);
  const std::vector<core::JobSpec> jobs = core::paper_workload(rng, 0.02);
  const Problem p = core::build_relaxation(jobs, phones, core::paper_prediction());
  SolverOptions opt;
  opt.max_iterations = 5;
  EXPECT_EQ(expect_same(p, "capped", opt), SolveStatus::kIterationLimit);
}

TEST(SimplexDiff, Fig13RelaxationMatchesDenseReference) {
  // Fig. 13's draw: testbed CPUs, b_i uniform in [1, 70] ms/KB, workload 0.1.
  Rng rng(42);
  const auto prediction = core::paper_prediction();
  auto phones = core::paper_testbed(rng);
  for (auto& phone : phones) phone.b = rng.uniform(1.0, 70.0);
  const auto jobs = core::paper_workload(rng, 0.1);
  const Problem p = core::build_relaxation(jobs, phones, prediction);
  EXPECT_EQ(expect_same(p, "fig13"), SolveStatus::kOptimal);
}

/// Deterministic partial cache: some pairs hold part of the executable,
/// some hold all of it and spill into the input (bandwidth term dropped).
class HashedLocality final : public core::LocalityProvider {
 public:
  explicit HashedLocality(const std::vector<core::JobSpec>& jobs) {
    for (const core::JobSpec& job : jobs) exec_[job.id] = job.exec_kb;
  }
  Kilobytes cached_kb(JobId job, PhoneId phone) const override {
    const auto it = exec_.find(job);
    if (it == exec_.end()) return 0.0;
    switch ((job * 7 + phone * 3) % 5) {
      case 0: return 0.5 * it->second;
      case 1: return it->second + 64.0;
      default: return 0.0;
    }
  }

 private:
  std::map<JobId, Kilobytes> exec_;
};

TEST(SimplexDiff, FleetPodRelaxationMatchesDenseReference) {
  // The largest LP-bounded pod of a 512-phone fleet, i.e. a relaxation the
  // pod packer solves per build. Six pods (~85 phones x ~25 jobs) instead
  // of the default four (128 x ~38) keep the dense oracle's two solves
  // inside the suite's time budget; the structure is the same.
  Rng rng(1);
  const std::vector<core::PhoneSpec> fleet = sim::scaled_fleet(rng, 512);
  const std::vector<core::JobSpec> jobs = core::paper_workload(rng);
  const auto prediction = core::paper_prediction();
  core::PodPackingScheduler::Options options;
  options.pods = 6;
  const core::PodPackingScheduler pods(options);
  const auto layout = pods.layout(jobs, fleet, prediction);
  std::size_t best = layout.phone_indices.size();
  std::size_t best_cells = 0;
  for (std::size_t p = 0; p < layout.phone_indices.size(); ++p) {
    const std::size_t cells = layout.job_shares[p].size() * layout.phone_indices[p].size();
    if (cells <= options.lp_bound_max_cells && cells > best_cells) {
      best = p;
      best_cells = cells;
    }
  }
  ASSERT_LT(best, layout.phone_indices.size());
  std::vector<core::PhoneSpec> phones;
  for (const std::size_t g : layout.phone_indices[best]) phones.push_back(fleet[g]);
  const std::vector<core::JobSpec>& share = layout.job_shares[best];
  SolverOptions opt;
  opt.max_iterations = options.lp_bound_max_iterations;

  const Problem plain = core::build_relaxation(share, phones, prediction);
  EXPECT_EQ(expect_same(plain, "pod", opt), SolveStatus::kOptimal);
  const HashedLocality locality(share);
  const Problem credited = core::build_relaxation(share, phones, prediction, &locality);
  EXPECT_EQ(expect_same(credited, "pod+locality", opt), SolveStatus::kOptimal);
}

}  // namespace
}  // namespace cwc::lp
