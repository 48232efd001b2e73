#ifndef MECSC_CORE_FRACTIONAL_SOLVER_H
#define MECSC_CORE_FRACTIONAL_SOLVER_H

#include <cstdint>
#include <vector>

#include "core/aggregation.h"
#include "core/problem.h"
#include "flow/min_cost_flow.h"

namespace mecsc::core {

/// Snapshot of a FractionalSolver's cross-solve warm state — the
/// previous solve's flow arcs (which seed the next solve's working set)
/// and the station dual prices its arc ranking consults. Checkpointing
/// this is what keeps the flow path's decisions bit-identical across a
/// crash/resume boundary.
struct FractionalWarmState {
  /// Previous solve's per-service flow arcs (next solve's working set).
  std::vector<std::vector<std::uint32_t>> warm_arcs;
  /// Station dual prices the arc ranking consults.
  std::vector<double> station_price;
};

/// Outcome annotations of a degraded-mode solve (solve_degraded /
/// solve_classes with a non-null report).
struct SolveReport {
  /// True when the flow solver could not route the full demand and the
  /// remainder was placed greedily (station capacities may then be
  /// exceeded; the reported objective still scores the true Eq. 3 cost).
  bool degraded = false;
  /// Resource demand (MHz) the flow solver failed to route.
  double unrouted_mhz = 0.0;
};

/// Scalable solver for the per-slot LP relaxation, used inside OL_GD on
/// every time slot (Algorithm 1 line 3-4 at network sizes where the
/// dense simplex would be too slow).
///
/// Reduction (DESIGN.md §5): dropping the coupling constraint (6) turns
/// the LP into a transportation problem — requests are sources with
/// supply ρ_l·C_unit, stations are sinks with capacity C(bs_i), and the
/// per-flow-unit cost on arc (l, i) is
///
///     (ρ_l·θ_i + access_li + amortized_inst_ik) / (ρ_l·C_unit)
///
/// where amortized_inst spreads d_ins[i][k] over the expected resource
/// demand of service k. Min-cost flow solves this exactly; y is
/// recovered as y_ki = max_{l: svc(l)=k} x_li and the reported objective
/// is re-evaluated with the true (non-amortized) Eq. 3 cost, so the only
/// approximation is in *where* flow is routed, not in how the solution
/// is scored. The `bench_lp_vs_flow` ablation and tests/test_core.cpp
/// measure the gap against the exact simplex oracle.
///
/// Performance (DESIGN.md "Performance"): instead of the dense |R|×|BS|
/// bipartite graph, each solve runs on a pruned *working set* of arcs —
/// the k cheapest stations per request plus the stations that carried
/// the request's flow on the previous solve — and then certifies the
/// result against the full arc set with the flow solver's final dual
/// potentials (reduced cost >= 0 for every pruned-out arc). Violated
/// arcs are added and the network re-solved, so the answer is exactly
/// the full-network optimum; the working set merely shrinks each
/// Dijkstra pass by roughly |BS|/k. All scratch memory (the flow
/// network, cost matrices, working sets) is owned by the solver and
/// reused across solves, so steady-state per-slot solves allocate
/// nothing.
///
/// Columns (DESIGN.md §11): a column is one demand class of a
/// DemandClassing. solve() and solve_degraded() build one singleton
/// class per request and run the same body, so the per-request path
/// and the aggregated path are one code path; with aggregation it runs
/// over |classes| columns instead of |R|, which is what keeps
/// 100k-request slots inside the slot budget.
///
/// Thread safety: the reusable scratch state makes concurrent solve()
/// calls on one instance a data race. Give each worker its own solver
/// (they are cheap); `sim::ParallelReplicationRunner` replications each
/// construct their own algorithm instances and therefore their own
/// solvers.
class FractionalSolver {
 public:
  /// Binds the solver to `problem` (non-owning; must outlive the solver).
  explicit FractionalSolver(const CachingProblem& problem) : problem_(&problem) {}

  /// Per-request solve: solve_classes() over one singleton class per
  /// request. Throws Infeasible when demand cannot be fully routed.
  /// Zero-demand requests are pinned (x = 1) to their cheapest station
  /// since they consume no capacity.
  FractionalSolution solve(const std::vector<double>& demands,
                           const std::vector<double>& theta) const;

  /// Degraded-mode variant of solve(): never throws on capacity
  /// shortfall (see solve_classes with a non-null report). Bitwise
  /// identical to solve() whenever the instance is feasible. `report`
  /// (optional) records whether and how much degradation happened.
  FractionalSolution solve_degraded(const std::vector<double>& demands,
                                    const std::vector<double>& theta,
                                    SolveReport* report = nullptr) const;

  /// Solves the transportation relaxation over the classing's columns —
  /// x_{class,i} with the class's summed resource demand and its
  /// member-summed cost row (DemandClass::serving_cost) — and returns a
  /// *class-level* fractional solution (one x row per class, in classing
  /// order; the objective is the per-request Eq. 3 average). Round with
  /// round_assignment_aggregated, or expand x_li := x_{class(l),i}.
  ///
  /// With a null `report` a capacity shortfall throws Infeasible. With a
  /// non-null one the solve degrades gracefully: the routable part keeps
  /// the min-cost-flow optimum, and each unrouted fraction is placed
  /// greedily on the cheapest up station with residual capacity (the
  /// roomiest up station when none has any), so Σ_i x_ci = 1 still holds
  /// for every column.
  FractionalSolution solve_classes(const DemandClassing& classing,
                                   const std::vector<double>& theta,
                                   SolveReport* report = nullptr) const;

  /// Evaluates the exact Eq.-3 objective of a fractional solution
  /// (average per-request delay, ms) with y_ki = max_l x_li.
  double objective(const FractionalSolution& sol, const std::vector<double>& demands,
                   const std::vector<double>& theta) const;

  /// Snapshots the cross-solve warm state (see FractionalWarmState).
  FractionalWarmState export_warm_state() const {
    return FractionalWarmState{s_.warm, s_.station_price};
  }

  /// Restores a snapshot taken by export_warm_state(). Dimension-checked:
  /// a snapshot whose station-price vector or arc station ids were sized
  /// for a different station count (stale checkpoint after a topology
  /// change, or a resume recipe whose byte-compare passed but whose
  /// aggregation resolution produced a different column universe) is
  /// rejected as a whole and the solver cold-starts instead of indexing
  /// stale arcs out of bounds. Column-count drift alone is fine — the
  /// per-slot class count varies by design and flow_solve resizes the
  /// warm set — it is the *station* dimension that the arc ids index.
  void import_warm_state(const FractionalWarmState& state) const;

 private:
  /// The flow core of solve_classes(). Expects s_.res / s_.svc /
  /// s_.home / s_.base_cost / s_.service_demand prefilled for `n`
  /// columns; `objective_divisor` is the request count the Eq. 3
  /// average divides by.
  FractionalSolution flow_solve(std::size_t n, double total_flow,
                                double objective_divisor,
                                SolveReport* report) const;

  /// Reusable buffers; sized on first solve, reused afterwards. A
  /// "column" below is one demand class.
  struct Scratch {
    DemandClassing singletons;           // solve/solve_degraded columns
    flow::MinCostFlow mcf{0};
    std::vector<double> res;             // per column, resource demand (MHz)
    std::vector<std::uint32_t> svc;      // per column, service id
    std::vector<std::uint32_t> home;     // per column, home station
    std::vector<double> service_demand;  // per service, expected demand
    std::vector<double> base_cost;       // n×ns, cost minus amortized part
    std::vector<double> inst_base;       // nk×ns amortization base
    std::vector<double> attracted;       // nk×ns realised per-instance demand
    std::vector<double> x;               // n×ns current round
    std::vector<double> y;               // nk×ns current round
    std::vector<double> x_best;          // n×ns best round so far
    std::vector<double> y_best;          // nk×ns
    std::vector<std::vector<std::uint32_t>> work;       // station ids per column
    std::vector<std::vector<std::size_t>> work_edge;    // edge id per working arc
    std::vector<std::size_t> sink_edge;  // per station, edge id of station→sink
    std::vector<double> station_price;   // per station, certificate dual
    std::vector<double> station_load;    // per station, degraded-mode load (MHz)
    std::vector<char> in_work;           // n×ns membership mask
    std::vector<std::pair<double, std::uint32_t>> cand;  // sort buffer
    std::vector<std::pair<std::uint32_t, std::uint32_t>> violations;
    std::vector<std::vector<std::uint32_t>> warm;  // previous solve's flow arcs
  };

  const CachingProblem* problem_;
  mutable Scratch s_;
};

}  // namespace mecsc::core

#endif  // MECSC_CORE_FRACTIONAL_SOLVER_H
