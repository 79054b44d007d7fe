#include "core/relaxation.h"

#include <algorithm>
#include <stdexcept>

#include "core/locality.h"
#include "lp/simplex.h"

namespace cwc::core {

lp::Problem build_relaxation(const std::vector<JobSpec>& jobs,
                             const std::vector<PhoneSpec>& phones,
                             const PredictionModel& prediction) {
  return build_relaxation(jobs, phones, prediction, nullptr);
}

lp::Problem build_relaxation(const std::vector<JobSpec>& jobs,
                             const std::vector<PhoneSpec>& phones,
                             const PredictionModel& prediction,
                             const LocalityProvider* locality) {
  if (phones.empty()) throw std::invalid_argument("build_relaxation: no phones");
  lp::Problem problem;
  problem.reserve(1 + jobs.size() * phones.size(), jobs.size() + phones.size());
  const std::size_t T = problem.add_variable(1.0);

  // l[j][i] variable indices; jobs with zero input contribute nothing to
  // the relaxation (their executable cost vanishes with u -> 0+).
  std::vector<std::vector<std::size_t>> l(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].input_kb <= 0.0) continue;
    l[j].resize(phones.size());
    for (std::size_t i = 0; i < phones.size(); ++i) {
      l[j][i] = problem.add_variable(0.0);
    }
  }

  // Per-phone makespan constraints with u_ij = l_ij / L_j substituted.
  for (std::size_t i = 0; i < phones.size(); ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].input_kb <= 0.0) continue;
      const MsPerKb c_ij = prediction.predict(jobs[j].task_name, phones[i]);
      // Cached-bytes credit (locality.h): cached executable bytes shrink
      // the amortized exec term; once the credit spills into *input* bytes
      // the bandwidth term is dropped outright for this pair. The flat
      // part of an input credit cannot be expressed per-KB without risking
      // an overestimate, and a lower bound must only ever shrink.
      double exec_kb = jobs[j].exec_kb;
      double bandwidth = phones[i].b;
      if (locality != nullptr) {
        const Kilobytes credit = std::max(0.0, locality->cached_kb(jobs[j].id, phones[i].id));
        if (credit > exec_kb) bandwidth = 0.0;
        exec_kb = std::max(0.0, exec_kb - credit);
      }
      const double weight = exec_kb * phones[i].b / jobs[j].input_kb + bandwidth + c_ij;
      terms.emplace_back(l[j][i], weight);
    }
    terms.emplace_back(T, -1.0);
    problem.add_le(std::move(terms), 0.0);
  }

  // Coverage: every job's input fully assigned.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].input_kb <= 0.0) continue;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t i = 0; i < phones.size(); ++i) terms.emplace_back(l[j][i], 1.0);
    problem.add_eq(std::move(terms), jobs[j].input_kb);
  }
  return problem;
}

RelaxationResult relaxed_lower_bound(const std::vector<JobSpec>& jobs,
                                     const std::vector<PhoneSpec>& phones,
                                     const PredictionModel& prediction) {
  return relaxed_lower_bound(jobs, phones, prediction, lp::SolverOptions{});
}

RelaxationResult relaxed_lower_bound(const std::vector<JobSpec>& jobs,
                                     const std::vector<PhoneSpec>& phones,
                                     const PredictionModel& prediction,
                                     const lp::SolverOptions& options) {
  return relaxed_lower_bound(jobs, phones, prediction, options, nullptr);
}

RelaxationResult relaxed_lower_bound(const std::vector<JobSpec>& jobs,
                                     const std::vector<PhoneSpec>& phones,
                                     const PredictionModel& prediction,
                                     const lp::SolverOptions& options,
                                     const LocalityProvider* locality) {
  const lp::Problem problem = build_relaxation(jobs, phones, prediction, locality);
  const lp::Solution solution = lp::solve(problem, options);
  RelaxationResult result;
  result.lp_iterations = solution.iterations;
  if (solution.status == lp::SolveStatus::kOptimal) {
    result.solved = true;
    result.makespan = solution.objective;
  }
  return result;
}

}  // namespace cwc::core
