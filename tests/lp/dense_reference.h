// Test-only oracle: the two-phase dense-tableau simplex that `lp::solve`
// replaced. It applies the same standard-form conversion and pivot rules
// (Dantzig with smallest-index ties, ratio-test ties to the smallest basis
// column, Bland after a stall, phase-1 artificial removal), but rewrites
// the whole (m+1) x (cols+1) tableau on every pivot. The differential suite
// checks the sparse revised solver against it; nothing under src/ links it.
#pragma once

#include "lp/problem.h"

namespace cwc::lp::reference {

/// Solves `problem` with the dense tableau.
Solution dense_solve(const Problem& problem, const SolverOptions& options = {});

}  // namespace cwc::lp::reference
