// Linear-program model: minimize c'x subject to linear constraints and
// x >= 0. This is the substrate behind the paper's Fig. 13 lower bound —
// the LP relaxation of the SCH makespan program — but it is a general-
// purpose solver usable on its own.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cwc::lp {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

/// One linear constraint: sum(coeff * x[var]) REL rhs.
struct Constraint {
  std::vector<std::pair<std::size_t, double>> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// A minimization LP over non-negative variables.
///
/// Variables are created with `add_variable(cost)` and referenced by the
/// returned index. Upper bounds, if needed, are expressed as explicit
/// constraints (the SCH relaxation only needs x >= 0).
class Problem {
 public:
  /// Pre-sizes the variable and constraint stores. Builders that know their
  /// shape up front (the SCH relaxation: 1 + jobs*phones variables,
  /// jobs + phones constraints) call this once so per-pod LP construction
  /// inside the pod packer does not reallocate per variable.
  void reserve(std::size_t variables, std::size_t constraints) {
    costs_.reserve(variables);
    constraints_.reserve(constraints);
  }

  /// Adds a variable with the given objective coefficient; returns its index.
  std::size_t add_variable(double cost) {
    costs_.push_back(cost);
    return costs_.size() - 1;
  }

  /// Adds a constraint; terms may reference each variable at most once.
  void add_constraint(Constraint c) { constraints_.push_back(std::move(c)); }

  /// Convenience: sum(terms) <= rhs.
  void add_le(std::vector<std::pair<std::size_t, double>> terms, double rhs) {
    add_constraint({std::move(terms), Relation::kLessEqual, rhs});
  }
  /// Convenience: sum(terms) == rhs.
  void add_eq(std::vector<std::pair<std::size_t, double>> terms, double rhs) {
    add_constraint({std::move(terms), Relation::kEqual, rhs});
  }
  /// Convenience: sum(terms) >= rhs.
  void add_ge(std::vector<std::pair<std::size_t, double>> terms, double rhs) {
    add_constraint({std::move(terms), Relation::kGreaterEqual, rhs});
  }

  std::size_t variable_count() const { return costs_.size(); }
  std::size_t constraint_count() const { return constraints_.size(); }
  const std::vector<double>& costs() const { return costs_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

 private:
  std::vector<double> costs_;
  std::vector<Constraint> constraints_;
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

inline const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> values;  ///< One entry per variable; empty unless optimal.
  std::size_t iterations = 0;  ///< Total simplex pivots across both phases.
};

struct SolverOptions {
  /// Pivot cap across both phases; generous default for SCH-sized problems.
  std::size_t max_iterations = 200000;
  /// Numerical tolerance for reduced costs / feasibility decisions.
  double epsilon = 1e-9;
};

}  // namespace cwc::lp
