#include "dense_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace cwc::lp::reference {

namespace {

/// Dense tableau with an explicit objective row; the workhorse for both
/// phases. Row-major storage; `cols` includes the rhs column at the end.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Gaussian pivot on (pr, pc): scale pivot row to 1, eliminate elsewhere.
  void pivot(std::size_t pr, std::size_t pc) {
    const double piv = at(pr, pc);
    double* prow = &data_[pr * cols_];
    const double inv = 1.0 / piv;
    for (std::size_t c = 0; c < cols_; ++c) prow[c] *= inv;
    prow[pc] = 1.0;  // kill round-off on the pivot element itself
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      double* row = &data_[r * cols_];
      const double factor = row[pc];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < cols_; ++c) row[c] -= factor * prow[c];
      row[pc] = 0.0;
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

struct StandardForm {
  Tableau tab;            // m constraint rows + 1 objective row
  std::vector<std::size_t> basis;  // basic variable (column) per constraint row
  std::size_t n_structural = 0;
  std::size_t first_artificial = 0;  // columns >= this are artificial
  std::size_t rhs_col = 0;
};

/// Runs simplex iterations on the tableau's current objective row.
/// `allowed_cols` bounds the entering-variable search (used to block
/// artificial columns in phase 2).
SolveStatus iterate(StandardForm& sf, std::size_t allowed_cols, const SolverOptions& opt,
                    std::size_t& iterations) {
  Tableau& tab = sf.tab;
  const std::size_t m = tab.rows() - 1;
  const std::size_t obj = m;
  // Switch to Bland's rule if Dantzig stalls (objective unchanged) too long.
  std::size_t stall = 0;
  double last_objective = tab.at(obj, sf.rhs_col);
  bool use_bland = false;

  while (true) {
    if (iterations >= opt.max_iterations) return SolveStatus::kIterationLimit;
    // Entering column: reduced cost < -eps. (Objective row stores reduced
    // costs of a minimization; optimal when all are >= -eps.)
    std::size_t entering = sf.rhs_col;
    if (use_bland) {
      for (std::size_t c = 0; c < allowed_cols; ++c) {
        if (tab.at(obj, c) < -opt.epsilon) {
          entering = c;
          break;
        }
      }
    } else {
      double best = -opt.epsilon;
      for (std::size_t c = 0; c < allowed_cols; ++c) {
        const double rc = tab.at(obj, c);
        if (rc < best) {
          best = rc;
          entering = c;
        }
      }
    }
    if (entering == sf.rhs_col) return SolveStatus::kOptimal;

    // Ratio test; ties broken by smallest basis column index (anti-cycling).
    std::size_t leaving = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < m; ++r) {
      const double a = tab.at(r, entering);
      if (a > opt.epsilon) {
        const double ratio = tab.at(r, sf.rhs_col) / a;
        if (ratio < best_ratio - opt.epsilon ||
            (ratio < best_ratio + opt.epsilon && (leaving == m || sf.basis[r] < sf.basis[leaving]))) {
          best_ratio = ratio;
          leaving = r;
        }
      }
    }
    if (leaving == m) return SolveStatus::kUnbounded;

    tab.pivot(leaving, entering);
    sf.basis[leaving] = entering;
    ++iterations;

    const double objective = tab.at(obj, sf.rhs_col);
    if (std::abs(objective - last_objective) <= opt.epsilon) {
      if (++stall > 2 * (m + allowed_cols)) use_bland = true;
    } else {
      stall = 0;
      last_objective = objective;
    }
  }
}

}  // namespace

Solution dense_solve(const Problem& problem, const SolverOptions& opt) {
  const std::size_t n = problem.variable_count();
  const std::size_t m = problem.constraint_count();

  // Count auxiliary columns. Every <= / >= row gets a slack/surplus column;
  // >= and == rows get an artificial. Rows are pre-normalized to rhs >= 0.
  struct RowInfo {
    Relation relation;
    double sign;  // +1 if the row is used as-is, -1 if negated for rhs >= 0
  };
  std::vector<RowInfo> rows(m);
  std::size_t n_slack = 0;
  std::size_t n_artificial = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const Constraint& c = problem.constraints()[r];
    Relation rel = c.relation;
    double sign = 1.0;
    if (c.rhs < 0.0) {
      sign = -1.0;
      if (rel == Relation::kLessEqual) rel = Relation::kGreaterEqual;
      else if (rel == Relation::kGreaterEqual) rel = Relation::kLessEqual;
    }
    rows[r] = {rel, sign};
    if (rel != Relation::kEqual) ++n_slack;
    if (rel != Relation::kLessEqual) ++n_artificial;
  }

  StandardForm sf{Tableau(m + 1, n + n_slack + n_artificial + 1),
                  std::vector<std::size_t>(m, 0), n, n + n_slack,
                  n + n_slack + n_artificial};
  Tableau& tab = sf.tab;

  // Fill constraint rows.
  std::size_t slack_col = n;
  std::size_t art_col = n + n_slack;
  for (std::size_t r = 0; r < m; ++r) {
    const Constraint& c = problem.constraints()[r];
    for (const auto& [var, coeff] : c.terms) {
      if (var >= n) throw std::out_of_range("constraint references unknown variable");
      tab.at(r, var) += rows[r].sign * coeff;
    }
    tab.at(r, sf.rhs_col) = rows[r].sign * c.rhs;
    switch (rows[r].relation) {
      case Relation::kLessEqual:
        tab.at(r, slack_col) = 1.0;
        sf.basis[r] = slack_col++;
        break;
      case Relation::kGreaterEqual:
        tab.at(r, slack_col) = -1.0;
        ++slack_col;
        tab.at(r, art_col) = 1.0;
        sf.basis[r] = art_col++;
        break;
      case Relation::kEqual:
        tab.at(r, art_col) = 1.0;
        sf.basis[r] = art_col++;
        break;
    }
  }

  Solution result;
  const std::size_t obj = m;

  if (n_artificial > 0) {
    // Phase 1: minimize the sum of artificials. Reduced costs start as
    // -(sum of rows whose basis is artificial) in non-artificial columns.
    for (std::size_t c = n + n_slack; c < sf.first_artificial + n_artificial; ++c) {
      tab.at(obj, c) = 1.0;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (sf.basis[r] >= sf.first_artificial) {
        for (std::size_t c = 0; c <= sf.rhs_col; ++c) tab.at(obj, c) -= tab.at(r, c);
      }
    }
    const SolveStatus phase1 =
        iterate(sf, sf.first_artificial + n_artificial, opt, result.iterations);
    if (phase1 == SolveStatus::kIterationLimit) {
      result.status = phase1;
      return result;
    }
    // Phase-1 objective row holds -(artificial sum); feasible iff ~0.
    if (phase1 == SolveStatus::kUnbounded || -tab.at(obj, sf.rhs_col) > 1e-6) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
    // Drive any basic artificial (at value 0) out of the basis when a
    // non-artificial pivot exists; otherwise the row is redundant and the
    // artificial stays basic at zero, which is harmless because artificial
    // columns are excluded from phase 2's entering-variable search.
    for (std::size_t r = 0; r < m; ++r) {
      if (sf.basis[r] < sf.first_artificial) continue;
      for (std::size_t c = 0; c < sf.first_artificial; ++c) {
        if (std::abs(tab.at(r, c)) > opt.epsilon) {
          tab.pivot(r, c);
          sf.basis[r] = c;
          break;
        }
      }
    }
  }

  // Phase 2: original objective. Rebuild the reduced-cost row from scratch.
  for (std::size_t c = 0; c <= sf.rhs_col; ++c) tab.at(obj, c) = 0.0;
  for (std::size_t v = 0; v < n; ++v) tab.at(obj, v) = problem.costs()[v];
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t b = sf.basis[r];
    if (b < n && problem.costs()[b] != 0.0) {
      const double cost = problem.costs()[b];
      for (std::size_t c = 0; c <= sf.rhs_col; ++c) tab.at(obj, c) -= cost * tab.at(r, c);
    }
  }

  const SolveStatus phase2 = iterate(sf, sf.first_artificial, opt, result.iterations);
  result.status = phase2;
  if (phase2 != SolveStatus::kOptimal) return result;

  result.values.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (sf.basis[r] < n) result.values[sf.basis[r]] = tab.at(r, sf.rhs_col);
  }
  // Objective row rhs holds -(objective value) after the row reductions.
  result.objective = -tab.at(obj, sf.rhs_col);
  return result;
}

}  // namespace cwc::lp::reference
