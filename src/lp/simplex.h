// Two-phase revised simplex solver.
//
// Standard-form conversion: every constraint gets a slack (<=), surplus (>=)
// or nothing (==); rows whose slack cannot seed a feasible basis get an
// artificial variable, and phase 1 minimizes the artificial sum. Pivoting is
// Dantzig's rule with an automatic switch to Bland's rule after a stall, so
// the solver cannot cycle. The constraint columns are stored sparse (CSC)
// and the m x m basis inverse is kept explicit, updated by one Gauss-Jordan
// pivot per iteration, so a pivot costs O(m^2 + nnz) rather than the
// O(m * columns) of a dense tableau. The SCH relaxation's l_ij columns have
// two nonzeros each: the paper's testbed relaxation (18 phones x 150 jobs,
// ~170 rows by ~2700 columns) and a 512-phone fleet pod's (128 phones x
// ~38 jobs, ~166 rows by ~4900 columns) each solve in tens of milliseconds.
#pragma once

#include "lp/problem.h"

namespace cwc::lp {

/// Solves `problem` to optimality (or reports infeasible/unbounded).
Solution solve(const Problem& problem, const SolverOptions& options = {});

}  // namespace cwc::lp
