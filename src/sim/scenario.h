#ifndef MECSC_SIM_SCENARIO_H
#define MECSC_SIM_SCENARIO_H

#include <memory>
#include <vector>

#include "core/aggregation.h"
#include "core/problem.h"
#include "core/solver_tier.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/delay_process.h"
#include "net/generators.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace mecsc::sim {

/// Everything needed to reproduce one experimental point of §VI.
struct ScenarioParams {
  /// Network topology family (§VI uses both).
  enum class NetKind {
    kGtItm,   ///< GT-ITM-like transit-stub topology.
    kAs1755,  ///< AS-1755-like Rocketfuel ISP topology.
  };
  /// Topology family to generate.
  NetKind net = NetKind::kGtItm;
  /// Number of base stations (the paper's |BS|).
  std::size_t num_stations = 100;
  /// Run horizon in time slots (the paper's T).
  std::size_t horizon = 100;
  /// Bursty (unknown) demands (Figs. 6-7) vs constant given demands
  /// (Figs. 3-5).
  bool bursty = false;
  /// Per-station unit-delay process family.
  net::DelayModelKind delay_kind = net::DelayModelKind::kUniform;
  /// Request/service population parameters.
  workload::WorkloadParams workload;
  /// Problem-instance options (capacities, access latency, C_unit).
  core::ProblemOptions problem;
  /// Fraction of the historical trace kept as the predictors' training
  /// sample (the paper's small-sample regime).
  double trace_sample_fraction = 0.35;
  /// Length of the historical (pre-run) period the trace covers.
  std::size_t history_horizon = 96;
  /// Enable per-slot hindsight-optimum computation (slow; regret benches
  /// only).
  bool track_regret = false;
  /// Fault injection (DESIGN.md §9). Off by default; the MECSC_FAULTS
  /// environment variable ("off" | "churn"), when set and non-empty,
  /// overrides `fault.mode` so existing benches can be re-run under
  /// churn without a recompile. The fault plan draws from its own child
  /// seed, so enabling faults never shifts the topology / workload /
  /// delay sample paths.
  fault::FaultOptions fault;
  /// When false, MECSC_FAULTS is ignored and `fault.mode` alone decides
  /// whether an injector is built. Trace replay needs this: a trace
  /// recorded under churn carries the realised fault state per record,
  /// so its replay must build the faults-off problem instance no matter
  /// what the replaying process's environment says.
  bool fault_env_override = true;
  /// Demand-class aggregation (DESIGN.md §11). The default defers to the
  /// MECSC_AGGREGATE environment variable ("off" | "on", off when
  /// unset); an explicit mode set here always wins over the
  /// environment. The scenario resolves the mode once at construction —
  /// read it back via Scenario::aggregate_mode() and pass it to
  /// algorithm options so every replication shares one decision.
  core::AggregateMode aggregate = core::AggregateMode::kEnv;
  /// Per-slot LP solver tier (DESIGN.md §16). The default defers to the
  /// MECSC_SOLVER environment variable ("flow" | "lagrangian", flow when
  /// unset); an explicit tier set here always wins.
  /// Resolved once at construction — read it back via
  /// Scenario::solver_tier() and pass it to OlOptions::solver so every
  /// replication shares one decision.
  core::SolverTier solver = core::SolverTier::kEnv;
  /// Root seed every stream (topology, workload, delays, faults) derives
  /// from; same seed + params → bitwise-identical scenario.
  std::uint64_t seed = 1;
};

/// A fully materialised scenario: topology, workload, problem instance,
/// realised demands and delays for the run horizon, a small-sample
/// historical trace for predictor training, and a ready simulator.
///
/// Heap-held members keep the addresses the problem/simulator point at
/// stable; the struct itself is movable.
class Scenario {
 public:
  /// Materialises every component from `params` (throws
  /// common::InvalidArgument on degenerate inputs, e.g. zero horizon).
  explicit Scenario(const ScenarioParams& params);

  /// The parameters the scenario was built from.
  const ScenarioParams& params() const noexcept { return params_; }
  /// The generated station network.
  const net::Topology& topology() const noexcept { return *topology_; }
  /// The problem instance bound to this topology and workload.
  const core::CachingProblem& problem() const noexcept { return *problem_; }
  /// The generated services and requests.
  const workload::Workload& workload() const noexcept { return workload_; }
  /// Realised per-slot demands over the run horizon.
  const workload::DemandMatrix& demands() const noexcept { return *demands_; }
  /// Small-sample historical trace for predictor training.
  const workload::Trace& trace() const noexcept { return *trace_; }
  /// The ready-to-run simulator over this scenario.
  const Simulator& simulator() const noexcept { return *simulator_; }

  /// Mutable views for mobility experiments: the simulator's before-slot
  /// hook applies the slot's user states via
  /// CachingProblem::update_user_locations.
  Simulator& mutable_simulator() noexcept { return *simulator_; }
  core::CachingProblem& mutable_problem() noexcept { return *problem_; }

  /// Midpoint of the delay model's global [d_min, d_max] — the natural
  /// θ prior (the paper assumes both bounds known, Lemma 1).
  double theta_prior() const noexcept { return theta_prior_; }

  /// One stale past measurement of every station's delay process, drawn
  /// before the run horizon — the "historical information of processing
  /// latencies" the paper's Greedy_GD / Pri_GD baselines operate on.
  const std::vector<double>& historical_delay_estimates() const noexcept {
    return historical_estimates_;
  }
  /// Global lower bound of the per-unit delay processes.
  double d_min() const noexcept { return d_min_; }
  /// Global upper bound of the per-unit delay processes.
  double d_max() const noexcept { return d_max_; }

  /// True when C_unit was automatically lowered from the requested value
  /// so the burstiest realised slot keeps the paper's §III.E feasibility
  /// assumption (worst slot ≤ 90% of aggregate capacity; every request
  /// fits the largest station). The effective value is
  /// `problem().options().c_unit_mhz`.
  bool c_unit_derated() const noexcept { return c_unit_derated_; }

  /// The env-resolved aggregation mode (never kEnv): params.aggregate
  /// with MECSC_AGGREGATE applied when it was kEnv. Pass this into
  /// OlOptions::aggregate so algorithms, benches and replications all
  /// act on the single decision made at scenario construction.
  core::AggregateMode aggregate_mode() const noexcept { return aggregate_mode_; }

  /// The env-resolved solver tier (never kEnv): params.solver with
  /// MECSC_SOLVER applied when it was kEnv. Pass this into
  /// OlOptions::solver for the same single-decision contract as
  /// aggregate_mode().
  core::SolverTier solver_tier() const noexcept { return solver_tier_; }

  /// Fresh deterministic seed derived from the scenario seed (for
  /// algorithm instances).
  std::uint64_t algorithm_seed(std::size_t index) const;

  /// The attached fault injector, or null when faults are off. Its plan
  /// records the materialised outage/derate/censor/crowd schedule.
  const fault::FaultInjector* fault_injector() const noexcept {
    return fault_injector_.get();
  }

  /// Mutable injector access for live drivers (mecsc::serve attaches it
  /// to its slot engine, which calls begin_slot per slot).
  fault::FaultInjector* mutable_fault_injector() noexcept {
    return fault_injector_.get();
  }

 private:
  ScenarioParams params_;
  std::unique_ptr<net::Topology> topology_;
  workload::Workload workload_;
  std::unique_ptr<core::CachingProblem> problem_;
  std::unique_ptr<workload::DemandMatrix> demands_;
  std::unique_ptr<workload::Trace> trace_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<Simulator> simulator_;
  double theta_prior_ = 0.0;
  double d_min_ = 0.0;
  double d_max_ = 0.0;
  std::vector<double> historical_estimates_;
  bool c_unit_derated_ = false;
  core::AggregateMode aggregate_mode_ = core::AggregateMode::kOff;
  core::SolverTier solver_tier_ = core::SolverTier::kFlow;
  std::uint64_t algo_seed_root_ = 0;
};

}  // namespace mecsc::sim

#endif  // MECSC_SIM_SCENARIO_H
