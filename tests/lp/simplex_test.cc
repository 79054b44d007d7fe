#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace cwc::lp {
namespace {

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
  // Expressed as minimization of the negated objective.
  Problem p;
  const auto x = p.add_variable(-3.0);
  const auto y = p.add_variable(-5.0);
  p.add_le({{x, 1.0}}, 4.0);
  p.add_le({{y, 2.0}}, 12.0);
  p.add_le({{x, 3.0}, {y, 2.0}}, 18.0);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.values[y], 6.0, 1e-9);
}

TEST(Simplex, SolvesWithEqualityConstraints) {
  // min x + 2y s.t. x + y == 10, x <= 4 -> x=4, y=6, obj=16.
  Problem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(2.0);
  p.add_eq({{x, 1.0}, {y, 1.0}}, 10.0);
  p.add_le({{x, 1.0}}, 4.0);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-9);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
  EXPECT_NEAR(s.values[y], 6.0, 1e-9);
}

TEST(Simplex, SolvesWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6 -> x=3, y=1, obj=9.
  Problem p;
  const auto x = p.add_variable(2.0);
  const auto y = p.add_variable(3.0);
  p.add_ge({{x, 1.0}, {y, 1.0}}, 4.0);
  p.add_ge({{x, 1.0}, {y, 3.0}}, 6.0);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);
  EXPECT_NEAR(s.values[x], 3.0, 1e-9);
  EXPECT_NEAR(s.values[y], 1.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot both hold.
  Problem p;
  const auto x = p.add_variable(1.0);
  p.add_le({{x, 1.0}}, 1.0);
  p.add_ge({{x, 1.0}}, 2.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x with only x >= 0: objective goes to -inf.
  Problem p;
  const auto x = p.add_variable(-1.0);
  p.add_ge({{x, 1.0}}, 0.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, HandlesNegativeRhsNormalization) {
  // min x + y s.t. -x - y <= -5  (i.e. x + y >= 5) -> obj = 5.
  Problem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(1.0);
  p.add_le({{x, -1.0}, {y, -1.0}}, -5.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple constraints active at the optimum.
  Problem p;
  const auto x = p.add_variable(-0.75);
  const auto y = p.add_variable(150.0);
  const auto z = p.add_variable(-0.02);
  const auto w = p.add_variable(6.0);
  p.add_le({{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}}, 0.0);
  p.add_le({{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}}, 0.0);
  p.add_le({{z, 1.0}}, 1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);  // Beale's cycling example optimum
}

TEST(Simplex, ZeroConstraintProblem) {
  // min x with no constraints -> x = 0.
  Problem p;
  p.add_variable(1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-12);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y == 4 stated twice; still solvable.
  Problem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(3.0);
  p.add_eq({{x, 1.0}, {y, 1.0}}, 4.0);
  p.add_eq({{x, 1.0}, {y, 1.0}}, 4.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
}

TEST(Simplex, RejectsUnknownVariableIndex) {
  Problem p;
  p.add_variable(1.0);
  p.add_le({{5, 1.0}}, 1.0);  // variable 5 does not exist
  EXPECT_THROW(solve(p), std::out_of_range);
}

// Property test: on random transportation-style LPs, the simplex solution
// must satisfy every constraint and cannot beat a known feasible point.
class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, SolutionIsFeasibleAndNoWorseThanUniformSplit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int machines = static_cast<int>(rng.uniform_int(2, 6));
  const int jobs = static_cast<int>(rng.uniform_int(2, 8));

  // Fractional makespan scheduling: minimize T s.t. per-machine load <= T,
  // each job fully assigned. This mirrors the SCH relaxation's structure.
  Problem p;
  std::vector<std::vector<std::size_t>> l(static_cast<std::size_t>(machines));
  const auto T = p.add_variable(1.0);
  std::vector<std::vector<double>> w(static_cast<std::size_t>(machines),
                                     std::vector<double>(static_cast<std::size_t>(jobs)));
  std::vector<double> size(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) size[static_cast<std::size_t>(j)] = rng.uniform(1.0, 50.0);
  for (int i = 0; i < machines; ++i) {
    for (int j = 0; j < jobs; ++j) {
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = rng.uniform(0.5, 10.0);
      l[static_cast<std::size_t>(i)].push_back(
          p.add_variable(0.0));
    }
  }
  for (int i = 0; i < machines; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (int j = 0; j < jobs; ++j) {
      terms.emplace_back(l[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                         w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
    terms.emplace_back(T, -1.0);
    p.add_le(std::move(terms), 0.0);
  }
  for (int j = 0; j < jobs; ++j) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (int i = 0; i < machines; ++i) {
      terms.emplace_back(l[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0);
    }
    p.add_eq(std::move(terms), size[static_cast<std::size_t>(j)]);
  }

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  // Feasibility: all jobs covered, machine loads within T.
  for (int j = 0; j < jobs; ++j) {
    double assigned = 0.0;
    for (int i = 0; i < machines; ++i) {
      const double v = s.values[l[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]];
      EXPECT_GE(v, -1e-9);
      assigned += v;
    }
    EXPECT_NEAR(assigned, size[static_cast<std::size_t>(j)], 1e-6);
  }
  for (int i = 0; i < machines; ++i) {
    double load = 0.0;
    for (int j = 0; j < jobs; ++j) {
      load += w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
              s.values[l[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]];
    }
    EXPECT_LE(load, s.objective + 1e-6);
  }

  // Optimality sanity: cannot be worse than splitting every job evenly.
  double uniform_makespan = 0.0;
  for (int i = 0; i < machines; ++i) {
    double load = 0.0;
    for (int j = 0; j < jobs; ++j) {
      load += w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
              size[static_cast<std::size_t>(j)] / machines;
    }
    uniform_makespan = std::max(uniform_makespan, load);
  }
  EXPECT_LE(s.objective, uniform_makespan + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, SimplexRandomTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace cwc::lp
