// Exact verification of the simplex solver on random two-variable LPs: the
// optimum of a bounded 2-D LP lies at a vertex (an intersection of two
// constraint lines, or a constraint and an axis), so a brute-force vertex
// enumeration yields the exact answer to compare against.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "lp/simplex.h"

namespace cwc::lp {
namespace {

struct Line {
  // a*x + b*y <= c
  double a, b, c;
};

/// Brute-force optimum of: minimize cx*x + cy*y s.t. lines, x >= 0, y >= 0.
/// Returns +inf objective when infeasible; assumes boundedness is checked
/// by the caller via the candidate set (we only generate bounded cases).
double brute_force(const std::vector<Line>& lines, double cx, double cy) {
  // Candidate vertices: intersections of every pair of boundaries,
  // including the axes x=0 and y=0.
  std::vector<Line> boundaries = lines;
  boundaries.push_back({-1.0, 0.0, 0.0});  // -x <= 0  (x >= 0)
  boundaries.push_back({0.0, -1.0, 0.0});  // -y <= 0  (y >= 0)

  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    for (std::size_t j = i + 1; j < boundaries.size(); ++j) {
      const Line& p = boundaries[i];
      const Line& q = boundaries[j];
      const double det = p.a * q.b - p.b * q.a;
      if (std::abs(det) < 1e-12) continue;
      const double x = (p.c * q.b - p.b * q.c) / det;
      const double y = (p.a * q.c - p.c * q.a) / det;
      // Feasible?
      bool feasible = x >= -1e-9 && y >= -1e-9;
      for (const Line& line : lines) {
        feasible = feasible && (line.a * x + line.b * y <= line.c + 1e-9);
      }
      if (feasible) best = std::min(best, cx * x + cy * y);
    }
  }
  return best;
}

class SimplexExact2D : public ::testing::TestWithParam<int> {};

TEST_P(SimplexExact2D, MatchesVertexEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 7);
  for (int round = 0; round < 40; ++round) {
    // Bounded feasible region: include x + y <= M so the LP cannot be
    // unbounded regardless of the random objective.
    std::vector<Line> lines = {{1.0, 1.0, rng.uniform(5.0, 50.0)}};
    const int extra = static_cast<int>(rng.uniform_int(0, 4));
    for (int k = 0; k < extra; ++k) {
      lines.push_back({rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 3.0), rng.uniform(1.0, 40.0)});
    }
    const double cx = rng.uniform(-5.0, 5.0);
    const double cy = rng.uniform(-5.0, 5.0);

    const double expected = brute_force(lines, cx, cy);
    // (0,0) satisfies every generated constraint (all c >= 1 > 0), so the
    // problem is always feasible and `expected` is finite.
    ASSERT_TRUE(std::isfinite(expected));

    Problem p;
    const auto x = p.add_variable(cx);
    const auto y = p.add_variable(cy);
    for (const Line& line : lines) p.add_le({{x, line.a}, {y, line.b}}, line.c);

    const Solution s = solve(p);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "round " << round;
    EXPECT_NEAR(s.objective, expected, 1e-6 * (1.0 + std::abs(expected)))
        << "round " << round << " cx=" << cx << " cy=" << cy;
    // The reported point must actually achieve the reported objective and
    // satisfy every constraint.
    EXPECT_NEAR(cx * s.values[x] + cy * s.values[y], s.objective, 1e-6);
    for (const Line& line : lines) {
      EXPECT_LE(line.a * s.values[x] + line.b * s.values[y], line.c + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexExact2D, ::testing::Range(0, 10));

}  // namespace
}  // namespace cwc::lp
