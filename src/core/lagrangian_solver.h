#ifndef MECSC_CORE_LAGRANGIAN_SOLVER_H
#define MECSC_CORE_LAGRANGIAN_SOLVER_H

#include <cstdint>
#include <limits>
#include <vector>

#include "core/aggregation.h"
#include "core/problem.h"
#include "core/solver_tier.h"

namespace mecsc::core {

/// Tunables of the Lagrangian decomposition (DESIGN.md §16). The
/// environment-resolved defaults come from lagrangian_options_from_env()
/// so benches and the serve daemon pick up MECSC_LAG_ITERS /
/// MECSC_LAG_GAP without code changes; explicit values win.
struct LagrangianOptions {
  /// Subgradient ascent iteration cap per solve. With warm-started duals
  /// steady-state slots converge in a handful of iterations; the cap
  /// bounds the cold-start / regime-shift worst case before the
  /// gap-based fallback to the flow tier triggers.
  std::size_t max_iterations = 200;
  /// Relative duality-gap target: the solve reports convergence once
  /// (best primal − best dual) / max(best dual, ε) of the relaxed
  /// transportation LP drops below this.
  double target_gap = 0.01;
  /// SolverTier::kAuto picks the lagrangian tier only when the slot's LP
  /// has at least this many columns (demand classes when aggregation is
  /// active, requests otherwise); below it the certified flow solve is
  /// already fast and exact.
  std::size_t auto_threshold = 4096;
};

/// LagrangianOptions with MECSC_LAG_ITERS / MECSC_LAG_GAP applied over
/// the defaults (unset, empty or unparsable values keep the default).
LagrangianOptions lagrangian_options_from_env();

/// Cross-slot warm state of a LagrangianSolver: the station capacity
/// multipliers λ and the adaptive subgradient step scale. Demands and θ
/// drift slowly between slots, so yesterday's prices are a near-optimal
/// starting point — warm-started solves typically close the duality gap
/// in a few iterations instead of a cold-start's tens. Saving this in
/// the serve checkpoint is what keeps the lagrangian tier's decisions
/// bit-identical across a crash/resume boundary.
struct LagrangianWarmState {
  /// Per-station capacity price λ_i >= 0.
  std::vector<double> lambda;
  /// Adaptive Polyak step scale carried across slots.
  double step_scale = 1.0;
};

/// Outcome of one Lagrangian solve. `solution` is meaningful only when
/// `converged` is true; a non-converged outcome tells the caller to fall
/// back to the exact flow path (OL_GD's degradation chain does exactly
/// that and counts it in the `lag.fallbacks` telemetry).
struct LagrangianOutcome {
  /// True when the relative duality gap reached LagrangianOptions::
  /// target_gap within the iteration cap (and the instance was not
  /// capacity-short, which the dual cannot certify).
  bool converged = false;
  /// Final relative duality gap of the relaxed transportation LP.
  double gap = std::numeric_limits<double>::infinity();
  /// Best Lagrangian dual bound L(λ) reached (a lower bound on the LP).
  double dual_bound = -std::numeric_limits<double>::infinity();
  /// Subgradient iterations spent.
  std::size_t iterations = 0;
  /// Best feasible primal, scored with the true Eq. 3 objective exactly
  /// like the flow path scores its solutions.
  FractionalSolution solution;
};

/// Lagrangian decomposition solver for the per-slot LP relaxation
/// (DESIGN.md §16) — the second serving SolverTier, built for slots
/// whose column count outgrows even the pruned flow solve (1M-request
/// slots).
///
/// Formulation: relaxing the per-station capacity constraints
/// Σ_e res_e·x_ei <= C_i of the transportation LP with multipliers
/// λ_i >= 0 decouples the columns — each demand class independently
/// solves argmin_i (c_ei + λ_i·res_e), an O(|BS|) scan
/// that is embarrassingly parallel over columns and needs no flow
/// network, no tableau and no Dijkstra. Subgradient ascent
/// (λ_i <- max(0, λ_i + step·(load_i − C_i)) with a Polyak step under an
/// adaptive scale) prices over-subscribed stations up until the argmin
/// profile spreads out; the per-iteration dual value
/// L(λ) = Σ_e min_i (c_ei + λ_i·res_e) − Σ_i λ_i·C_i lower-bounds the
/// LP (fontanf/gap's lagrelax_knapsack: the relaxation's value equals
/// the linear relaxation's).
///
/// Primal recovery: each iteration repairs the (possibly infeasible)
/// argmin assignment into a capacity-feasible fractional solution — each
/// over-capacity station keeps a pro-rata share of every resident column
/// and the spill pours into the cheapest stations with residual room
/// under the current prices. The best repaired primal across iterations is
/// the reported solution; its relaxed cost versus the best dual bound is
/// the duality gap of the stopping rule. Costs (including the one-shot
/// amortization of instantiation delays over expected service demand)
/// and the final true-Eq.3 scoring match FractionalSolver's, so the two
/// tiers' objectives are directly comparable — the tier-equivalence
/// suite (tests/test_solver_tiers.cpp) holds them within the gap
/// tolerance of each other.
///
/// Thread safety: like FractionalSolver, the reusable scratch makes
/// concurrent solve() calls on one instance a data race — give each
/// worker its own solver.
class LagrangianSolver {
 public:
  /// Binds the solver to `problem` (non-owning; must outlive the solver)
  /// with environment-resolved options.
  explicit LagrangianSolver(const CachingProblem& problem)
      : LagrangianSolver(problem, lagrangian_options_from_env()) {}

  /// Binds with explicit options (tests and ablations).
  LagrangianSolver(const CachingProblem& problem, LagrangianOptions options)
      : problem_(&problem), options_(options) {}

  /// The options the solver runs under.
  const LagrangianOptions& options() const noexcept { return options_; }

  /// Per-request solve: solve_classes() over one singleton class per
  /// request.
  LagrangianOutcome solve(const std::vector<double>& demands,
                          const std::vector<double>& theta) const;

  /// Solves over one column per demand class of `classing`, with the
  /// class's summed resource demand and its member-summed cost row (the
  /// same column model as FractionalSolver::solve_classes). Returns a
  /// class-level solution — round with round_assignment_aggregated.
  LagrangianOutcome solve_classes(const DemandClassing& classing,
                                  const std::vector<double>& theta) const;

  /// Snapshots the cross-slot dual warm state (see LagrangianWarmState).
  LagrangianWarmState export_warm_state() const {
    return LagrangianWarmState{s_.lambda, s_.step_scale};
  }

  /// Restores a snapshot taken by export_warm_state(). Dimension-checked:
  /// a λ vector sized for a different station count (stale checkpoint
  /// after a topology change) is rejected and the solver cold-starts
  /// from λ = 0 instead of pricing the wrong stations.
  void import_warm_state(const LagrangianWarmState& state) const;

 private:
  /// Shared core over prefilled per-column scratch (res / svc / home /
  /// base_cost); `objective_divisor` is the request count the Eq. 3
  /// average divides by.
  LagrangianOutcome run(std::size_t n, double total_flow,
                        double objective_divisor) const;

  /// Reusable buffers; sized on first solve, reused afterwards. A
  /// "column" is one demand class.
  struct Scratch {
    DemandClassing singletons;           // solve() columns
    std::vector<double> res;             // per column, resource demand (MHz)
    std::vector<std::uint32_t> svc;      // per column, service id
    std::vector<std::uint32_t> home;     // per column, home station
    std::vector<double> service_demand;  // per service, expected demand
    std::vector<double> base_cost;       // n×ns true cost minus amortization
    std::vector<double> cost;            // n×ns amortized cost ĉ_ei
    std::vector<double> lambda;          // per station, capacity price
    std::vector<double> load;            // per station, argmin load (MHz)
    std::vector<double> room;            // per station, repair residual (MHz)
    std::vector<std::uint32_t> pick;     // per column, argmin station
    std::vector<double> x;               // n×ns repaired fractional round
    std::vector<double> x_best;          // n×ns best round so far
    double step_scale = 1.0;             // adaptive Polyak scale
  };

  const CachingProblem* problem_;
  LagrangianOptions options_;
  mutable Scratch s_;
};

}  // namespace mecsc::core

#endif  // MECSC_CORE_LAGRANGIAN_SOLVER_H
