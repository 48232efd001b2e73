#ifndef MECSC_CORE_LP_FORMULATION_H
#define MECSC_CORE_LP_FORMULATION_H

#include <vector>

#include "core/problem.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace mecsc::core {

/// Builds and solves the paper's exact per-slot LP relaxation
/// (Eq. 3 s.t. constraints 4-6, relaxed per Eq. 8) with the dense
/// simplex. O(|R|·|BS|) variables and constraints, so this is the
/// oracle for small instances — the solver-gap tests and the
/// `bench_lp_vs_flow` ablation (A5) — and not a serving path; OL_GD
/// solves each slot with core::FractionalSolver or
/// core::LagrangianSolver (DESIGN.md §16).
class LpFormulation {
 public:
  /// demands: ρ_l(t) per request; theta: estimated (or true) per-unit
  /// delay per station.
  LpFormulation(const CachingProblem& problem, const std::vector<double>& demands,
                const std::vector<double>& theta);

  /// The materialised LP model (for inspection or external solvers).
  const lp::Model& model() const noexcept { return model_; }

  /// Column index of x_{l,i}.
  std::size_t x_var(std::size_t request, std::size_t station) const;
  /// Column index of y_{k,i}.
  std::size_t y_var(std::size_t service, std::size_t station) const;

  /// Solves the LP and unpacks x/y. Throws Infeasible when the LP has no
  /// feasible point and NumericalError on unboundedness (numerical
  /// breakdown — the relaxation's feasible region is a polytope) or
  /// pivot-limit exhaustion.
  FractionalSolution solve(const lp::SimplexSolver& solver) const;

  /// Same, but reuses (and warm-starts from) the caller's workspace —
  /// the zero-allocation path for repeated solves of same-sized models.
  FractionalSolution solve(const lp::SimplexSolver& solver,
                           lp::SimplexWorkspace& workspace) const;

 private:
  std::size_t num_requests_;
  std::size_t num_stations_;
  std::size_t num_services_;
  lp::Model model_;
};

}  // namespace mecsc::core

#endif  // MECSC_CORE_LP_FORMULATION_H
