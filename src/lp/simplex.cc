#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace cwc::lp {

namespace {

/// Standard form A x = b, x >= 0, b >= 0. Columns are the structural
/// variables, then one slack/surplus per inequality row, then one artificial
/// per >= / == row; A is stored column-wise (CSC).
struct StandardForm {
  std::size_t m = 0;
  std::size_t first_artificial = 0;  // columns >= this are artificial
  std::size_t cols = 0;
  std::vector<std::size_t> col_start;  // cols + 1 offsets into row/value
  std::vector<std::size_t> row;
  std::vector<double> value;
  std::vector<double> rhs;
};

/// Revised simplex state over a StandardForm: the basis, an explicit m x m
/// basis inverse (row-major), the basic values B^-1 b and the duals
/// y = c_B' B^-1 of the objective being minimized.
class Revised {
 public:
  Revised(const StandardForm& sf, std::vector<std::size_t> basis)
      : sf_(sf), m_(sf.m), basis_(std::move(basis)), is_basic_(sf.cols, 0),
        binv_(m_ * m_, 0.0), x_(sf.rhs), y_(m_, 0.0), alpha_(m_, 0.0) {
    for (std::size_t r = 0; r < m_; ++r) {
      binv_[r * m_ + r] = 1.0;  // every initial basic column is a unit column
      is_basic_[basis_[r]] = 1;
    }
  }

  const std::vector<std::size_t>& basis() const { return basis_; }
  const std::vector<double>& x() const { return x_; }

  /// Runs simplex iterations minimizing `cost` (one entry per column).
  /// `allowed_cols` bounds the entering-variable search (used to block
  /// artificial columns in phase 2). On return `objective` holds c_B' x_B.
  SolveStatus iterate(const std::vector<double>& cost, std::size_t allowed_cols,
                      const SolverOptions& opt, std::size_t& iterations, double& objective) {
    std::fill(y_.begin(), y_.end(), 0.0);
    objective = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      const double cb = cost[basis_[r]];
      if (cb == 0.0) continue;
      objective += cb * x_[r];
      const double* brow = &binv_[r * m_];
      for (std::size_t k = 0; k < m_; ++k) y_[k] += cb * brow[k];
    }
    // Switch to Bland's rule if Dantzig stalls (objective unchanged) too long.
    std::size_t stall = 0;
    double last_objective = objective;
    bool use_bland = false;

    while (true) {
      if (iterations >= opt.max_iterations) return SolveStatus::kIterationLimit;
      // Pricing: reduced cost d_c = c_c - y'A_c over nonbasic columns
      // (basic columns price at exactly zero).
      std::size_t entering = sf_.cols;
      double best = -opt.epsilon;
      for (std::size_t c = 0; c < allowed_cols; ++c) {
        if (is_basic_[c]) continue;
        double d = cost[c];
        for (std::size_t k = sf_.col_start[c]; k < sf_.col_start[c + 1]; ++k) {
          d -= y_[sf_.row[k]] * sf_.value[k];
        }
        if (d < best) {
          best = d;
          entering = c;
          if (use_bland) break;
        }
      }
      if (entering == sf_.cols) return SolveStatus::kOptimal;

      // Ratio test on alpha = B^-1 A_q; ties broken by smallest basis column
      // index (anti-cycling).
      ftran(entering);
      std::size_t leaving = m_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m_; ++r) {
        const double a = alpha_[r];
        if (a > opt.epsilon) {
          const double ratio = x_[r] / a;
          if (ratio < best_ratio - opt.epsilon ||
              (ratio < best_ratio + opt.epsilon && (leaving == m_ || basis_[r] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == m_) return SolveStatus::kUnbounded;

      pivot(leaving, entering);
      // The new pivot row of B^-1 is the change of y per unit of d_q.
      const double* prow = &binv_[leaving * m_];
      for (std::size_t k = 0; k < m_; ++k) y_[k] += best * prow[k];
      objective += best * x_[leaving];
      ++iterations;

      if (std::abs(objective - last_objective) <= opt.epsilon) {
        if (++stall > 2 * (m_ + allowed_cols)) use_bland = true;
      } else {
        stall = 0;
        last_objective = objective;
      }
    }
  }

  /// After phase 1, drives each basic artificial (at value 0) out of the
  /// basis when a non-artificial pivot exists; otherwise the row is
  /// redundant and the artificial stays basic at zero, which is harmless
  /// because artificial columns are excluded from phase 2's entering search.
  void drive_out_artificials(const SolverOptions& opt) {
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < sf_.first_artificial) continue;
      const double* brow = &binv_[r * m_];
      for (std::size_t c = 0; c < sf_.first_artificial; ++c) {
        if (is_basic_[c]) continue;
        double a = 0.0;
        for (std::size_t k = sf_.col_start[c]; k < sf_.col_start[c + 1]; ++k) {
          a += brow[sf_.row[k]] * sf_.value[k];
        }
        if (std::abs(a) > opt.epsilon) {
          ftran(c);
          pivot(r, c);
          break;
        }
      }
    }
  }

 private:
  /// alpha = B^-1 A_c.
  void ftran(std::size_t c) {
    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    for (std::size_t k = sf_.col_start[c]; k < sf_.col_start[c + 1]; ++k) {
      const std::size_t i = sf_.row[k];
      const double v = sf_.value[k];
      for (std::size_t r = 0; r < m_; ++r) alpha_[r] += binv_[r * m_ + i] * v;
    }
  }

  /// Gauss-Jordan pivot on (pr, column pc) with alpha = B^-1 A_pc: scales
  /// row pr of B^-1 and x_B by 1/alpha[pr], eliminates elsewhere.
  void pivot(std::size_t pr, std::size_t pc) {
    double* prow = &binv_[pr * m_];
    const double inv = 1.0 / alpha_[pr];
    for (std::size_t k = 0; k < m_; ++k) prow[k] *= inv;
    x_[pr] *= inv;
    for (std::size_t r = 0; r < m_; ++r) {
      const double factor = alpha_[r];
      if (r == pr || factor == 0.0) continue;
      double* row = &binv_[r * m_];
      for (std::size_t k = 0; k < m_; ++k) row[k] -= factor * prow[k];
      x_[r] -= factor * x_[pr];
    }
    is_basic_[basis_[pr]] = 0;
    is_basic_[pc] = 1;
    basis_[pr] = pc;
  }

  const StandardForm& sf_;
  std::size_t m_;
  std::vector<std::size_t> basis_;  // basic column per row
  std::vector<char> is_basic_;
  std::vector<double> binv_;
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> alpha_;
};

}  // namespace

Solution solve(const Problem& problem, const SolverOptions& opt) {
  const std::size_t n = problem.variable_count();
  const std::size_t m = problem.constraint_count();
  const std::vector<Constraint>& constraints = problem.constraints();

  // Rows are pre-normalized to rhs >= 0. Every <= / >= row gets a
  // slack/surplus column; >= and == rows get an artificial.
  std::vector<Relation> relation(m);
  std::vector<double> sign(m, 1.0);  // -1 if the row is negated for rhs >= 0
  std::size_t n_slack = 0;
  std::size_t n_artificial = 0;
  StandardForm sf;
  sf.m = m;
  sf.rhs.resize(m);
  std::vector<std::size_t> count(n, 0);
  for (std::size_t r = 0; r < m; ++r) {
    const Constraint& c = constraints[r];
    relation[r] = c.relation;
    if (c.rhs < 0.0) {
      sign[r] = -1.0;
      if (c.relation == Relation::kLessEqual) relation[r] = Relation::kGreaterEqual;
      else if (c.relation == Relation::kGreaterEqual) relation[r] = Relation::kLessEqual;
    }
    sf.rhs[r] = sign[r] * c.rhs;
    if (relation[r] != Relation::kEqual) ++n_slack;
    if (relation[r] != Relation::kLessEqual) ++n_artificial;
    for (const auto& term : c.terms) {
      if (term.first >= n) throw std::out_of_range("constraint references unknown variable");
      ++count[term.first];
    }
  }
  sf.first_artificial = n + n_slack;
  sf.cols = sf.first_artificial + n_artificial;

  // CSC fill: structural columns from the constraint terms, then the unit
  // slack/surplus and artificial columns; the initial basis is the slack of
  // each <= row and the artificial of every other row.
  sf.col_start.assign(sf.cols + 1, 0);
  for (std::size_t v = 0; v < n; ++v) sf.col_start[v + 1] = sf.col_start[v] + count[v];
  for (std::size_t c = n; c < sf.cols; ++c) sf.col_start[c + 1] = sf.col_start[c] + 1;
  sf.row.resize(sf.col_start[sf.cols]);
  sf.value.resize(sf.col_start[sf.cols]);
  std::vector<std::size_t> next(sf.col_start.begin(), sf.col_start.end() - 1);
  std::vector<std::size_t> basis(m, 0);
  std::size_t slack_col = n;
  std::size_t art_col = sf.first_artificial;
  const auto place = [&](std::size_t col, std::size_t r, double value) {
    sf.row[next[col]] = r;
    sf.value[next[col]++] = value;
  };
  for (std::size_t r = 0; r < m; ++r) {
    for (const auto& [var, coeff] : constraints[r].terms) place(var, r, sign[r] * coeff);
    if (relation[r] != Relation::kEqual) {
      place(slack_col, r, relation[r] == Relation::kLessEqual ? 1.0 : -1.0);
      if (relation[r] == Relation::kLessEqual) basis[r] = slack_col;
      ++slack_col;
    }
    if (relation[r] != Relation::kLessEqual) {
      place(art_col, r, 1.0);
      basis[r] = art_col++;
    }
  }

  Revised simplex(sf, std::move(basis));
  Solution result;
  double objective = 0.0;

  if (n_artificial > 0) {
    // Phase 1: minimize the sum of artificials.
    std::vector<double> phase1_cost(sf.cols, 0.0);
    std::fill(phase1_cost.begin() + static_cast<std::ptrdiff_t>(sf.first_artificial),
              phase1_cost.end(), 1.0);
    const SolveStatus phase1 =
        simplex.iterate(phase1_cost, sf.cols, opt, result.iterations, objective);
    if (phase1 == SolveStatus::kIterationLimit) {
      result.status = phase1;
      return result;
    }
    // Feasible iff the artificial sum reached ~0.
    if (phase1 == SolveStatus::kUnbounded || objective > 1e-6) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
    simplex.drive_out_artificials(opt);
  }

  // Phase 2: original objective; slack and artificial columns cost nothing.
  std::vector<double> cost(sf.cols, 0.0);
  std::copy(problem.costs().begin(), problem.costs().end(), cost.begin());
  const SolveStatus phase2 =
      simplex.iterate(cost, sf.first_artificial, opt, result.iterations, objective);
  result.status = phase2;
  if (phase2 != SolveStatus::kOptimal) return result;

  result.values.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (simplex.basis()[r] < n) result.values[simplex.basis()[r]] = simplex.x()[r];
  }
  result.objective = objective;
  return result;
}

}  // namespace cwc::lp
