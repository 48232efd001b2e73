#ifndef MECSC_ALGORITHMS_OL_GD_H
#define MECSC_ALGORITHMS_OL_GD_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/algorithm.h"
#include "core/aggregation.h"
#include "core/bandit.h"
#include "core/fractional_solver.h"
#include "core/lagrangian_solver.h"
#include "core/problem.h"
#include "core/rounding.h"
#include "core/solver_tier.h"
#include "predict/predictor.h"
#include "workload/demand_model.h"

namespace mecsc::algorithms {

/// Options of the online-learning engine.
struct OlOptions {
  /// Candidate threshold γ of Eq. 9.
  double gamma = 0.25;
  /// Exploration schedule. Algorithm 1's pseudocode (line 2) fixes
  /// ε = 1/4, but the regret analysis (Theorem 1) assumes the ε_t = c/t
  /// decay — a fixed ε pays a constant per-slot exploration tax forever
  /// and cannot converge to the optimum, so the analysed decay is the
  /// library default; `bench_ablation_epsilon` compares both.
  core::EpsilonSchedule epsilon = core::EpsilonSchedule::decay(0.5);
  /// Seed each arm's prior θ with its tier's delay-range midpoint
  /// (station tiers are public infrastructure knowledge — the same
  /// information the historical baselines' stale measurements embody).
  /// When false, every arm gets the flat `theta_prior`.
  bool tier_priors = true;
  /// Flat prior θ for unplayed arms when `tier_priors` is off. The paper
  /// assumes d_min/d_max known; the midpoint is the natural value.
  double theta_prior = 25.0;
  /// One exploration coin per slot (Algorithm 1 verbatim) instead of one
  /// per request (library default; see RoundingOptions::per_slot_coin).
  bool per_slot_coin = false;
  /// Optimism-in-the-face-of-uncertainty extension: when > 0, the LP is
  /// solved with the lower confidence bound
  ///     θ̃_i = max(0, θ_i − β·sqrt(ln(t+1) / m_i))
  /// instead of the empirical mean (unplayed arms use m_i = 1), which
  /// makes rarely-played stations look attractive and replaces explicit
  /// ε-exploration — the classical UCB1 counterpart for a minimisation
  /// bandit. Combine with EpsilonSchedule::zero() for pure UCB.
  double ucb_beta = 0.0;
  /// Demand-class aggregation (DESIGN.md §11): formulate the per-slot LP
  /// over (service, home station, demand bucket) classes instead of one
  /// singleton class per request, and de-aggregate during rounding. kEnv
  /// (the default) defers to MECSC_AGGREGATE; an explicit kOff/kAuto/kOn
  /// set in code always wins over the environment.
  core::AggregateMode aggregate = core::AggregateMode::kEnv;
  /// Class-construction tunables used when aggregation is active.
  core::AggregationOptions aggregation;
  /// Which solver answers the per-slot LP (DESIGN.md §16). kEnv (the
  /// default) defers to MECSC_SOLVER; an explicit tier set in code wins
  /// over the environment.
  core::SolverTier solver = core::SolverTier::kEnv;
  /// Lagrangian-tier tunables (iteration cap, target duality gap, kAuto
  /// column threshold); defaults resolve MECSC_LAG_ITERS / MECSC_LAG_GAP
  /// once at options construction.
  core::LagrangianOptions lagrangian = core::lagrangian_options_from_env();
};

/// Complete cross-slot decision state of an OnlineCachingAlgorithm — the
/// bandit statistics, the rounding RNG's stream position, and both
/// solvers' warm states. Exporting this after slot t and importing it into
/// a freshly constructed algorithm makes its slot t+1 decisions
/// bit-for-bit identical to the uninterrupted run's, which is the
/// contract the serve checkpoint/resume path is built on.
struct OlGdState {
  std::vector<double> bandit_theta;        ///< Per-arm posterior means.
  std::vector<std::size_t> bandit_plays;   ///< Per-arm pull counts.
  std::size_t bandit_total_plays = 0;      ///< Total pulls (UCB time).
  std::string rng_stream;                  ///< Rounding RNG stream state.
  core::FractionalWarmState solver_warm;   ///< Flow-solver warm state.
  core::LagrangianWarmState lag_warm;      ///< Lagrangian duals λ + step.
};

/// The paper's online learning algorithm (Algorithm 1, OL_GD) and its
/// prediction-driven variants (Algorithm 2): per slot,
///  1. obtain demands — given (OL_GD) or predicted (OL_Reg / OL_GAN) —
///     and build the slot's LP columns: demand classes when aggregation
///     resolves on, one singleton class per request otherwise;
///  2. solve the LP relaxation of Eq. 3 under the bandit estimates θ,
///     through the solver fallback chain (see last_fallback_depth());
///  3. build candidate sets BS_l^candi = {i | x*_li >= γ};
///  4. ε-greedy randomized rounding (exploit candidates ∝ x*, explore
///     random non-candidates);
///  5. at slot end, observe d_i(t) for every station that served a
///     request and update its empirical mean θ_i.
class OnlineCachingAlgorithm final : public CachingAlgorithm {
 public:
  /// Given-demand variant (OL_GD): reads demands from the matrix.
  OnlineCachingAlgorithm(std::string name, const core::CachingProblem& problem,
                         const workload::DemandMatrix* given_demands,
                         OlOptions options, std::uint64_t seed);

  /// Prediction variant (OL_Reg with an ArmaPredictor, OL_GAN with a
  /// GanDemandPredictor). Takes ownership of the predictor.
  OnlineCachingAlgorithm(std::string name, const core::CachingProblem& problem,
                         std::unique_ptr<predict::DemandPredictor> predictor,
                         OlOptions options, std::uint64_t seed);

  /// Live-stream variant (mecsc::serve): no a-priori demand matrix and
  /// no predictor — each slot's demand snapshot is injected via
  /// set_live_demands() right before decide(). Everything downstream of
  /// demand acquisition (LP, rounding, bandit) is byte-identical to the
  /// given-demand variant, which is what makes a recorded live trace
  /// replayable through the batch simulator bit-for-bit.
  OnlineCachingAlgorithm(std::string name, const core::CachingProblem& problem,
                         OlOptions options, std::uint64_t seed);

  /// Installs the demand snapshot the next decide() consumes (one-shot;
  /// size must be num_requests). Takes precedence over the given matrix
  /// / predictor for exactly that decide(), so a live driver can reuse
  /// any variant.
  void set_live_demands(std::vector<double> demands);

  /// The display name passed at construction.
  std::string name() const override { return name_; }
  /// Algorithm 1, lines 3-9: solve the per-slot LP under the current θ
  /// estimates and ε-greedily round it to an integral assignment.
  core::Assignment decide(std::size_t t) override;
  /// Algorithm 1, lines 10-11: feed the unit delays of played stations
  /// into the per-station bandit.
  void observe(std::size_t t, const core::Assignment& decision,
               const std::vector<double>& true_demands,
               const std::vector<double>& realized_unit_delays) override;

  /// The per-station delay bandit (θ estimates and play counts).
  const core::BanditState& bandit() const noexcept { return bandit_; }
  /// Demands used by the latest decide() (given or predicted) — exposed
  /// for tests and prediction-accuracy accounting.
  const std::vector<double>& last_demands() const noexcept { return last_demands_; }

  /// How far down the solver fallback chain the latest decide() went
  /// (DESIGN.md §9): 0 = the primary solve; 1 = a Lagrangian solve that
  /// missed its gap target, answered by the flow solve; 2 = a degraded
  /// flow solve (greedy repair of unroutable demand) or a watchdog hint.
  int last_fallback_depth() const noexcept { return last_fallback_depth_; }

  /// Demand classes the latest decide() solved over; 0 when it ran the
  /// per-request path (singleton classes: aggregation off, or kAuto
  /// below its threshold).
  std::size_t last_num_classes() const noexcept { return last_num_classes_; }

  /// The solver tier of the latest decide() after kEnv/kAuto resolution
  /// — kFlow or kLagrangian. Note a Lagrangian solve that failed its
  /// duality-gap target still reports kLagrangian with
  /// last_fallback_depth() >= 1 (the fractional solution then came from
  /// the exact flow path).
  core::SolverTier last_solver_tier() const noexcept { return last_solver_tier_; }

  /// Snapshots the complete cross-slot decision state (see OlGdState).
  OlGdState export_state() const;

  /// Restores a snapshot taken by export_state() on an algorithm built
  /// from the identical problem/options/seed recipe.
  void import_state(const OlGdState& state);

  /// One-shot degradation hint consumed by the next decide(): a depth of
  /// 2 skips the Lagrangian solve and goes straight to the flow-based
  /// degraded solve. The serve watchdog sets this after a deadline miss;
  /// replay sets it when a record carries kSlotFlagDegradedHint, so both
  /// runs walk the same solver path. A no-op on the flow tier, whose
  /// primary solve already degrades gracefully in place.
  void set_decide_hint(int depth) { decide_hint_ = depth; }

 private:
  std::vector<double> demands_for(std::size_t t);

  std::string name_;
  const core::CachingProblem* problem_;
  const workload::DemandMatrix* given_demands_;  // may be null
  std::unique_ptr<predict::DemandPredictor> predictor_;  // may be null
  std::optional<std::vector<double>> live_demands_;  // one-shot override
  OlOptions options_;
  core::FractionalSolver solver_;
  core::LagrangianSolver lag_solver_;
  // Env-resolved solver tier, fixed at construction (same rationale as
  // aggregate_mode_ below); kAuto survives resolution and is re-resolved
  // per slot by column count.
  core::SolverTier solver_tier_ = core::SolverTier::kFlow;
  core::SolverTier last_solver_tier_ = core::SolverTier::kFlow;
  core::BanditState bandit_;
  common::Rng rng_;
  std::vector<double> last_demands_;
  std::vector<bool> played_;  // scratch station mask for observe()
  int last_fallback_depth_ = 0;
  int decide_hint_ = 0;  // one-shot, see set_decide_hint()
  // Column state: the env-resolved aggregation mode (fixed at
  // construction so a mid-run setenv cannot desynchronise replications)
  // and the reusable per-slot classing (real or singleton classes).
  core::AggregateMode aggregate_mode_ = core::AggregateMode::kOff;
  core::DemandClassing classing_;
  std::size_t last_num_classes_ = 0;
};

/// Factories matching the paper's algorithm names.
std::unique_ptr<CachingAlgorithm> make_ol_gd(const core::CachingProblem& problem,
                                             const workload::DemandMatrix& demands,
                                             OlOptions options, std::uint64_t seed);

std::unique_ptr<CachingAlgorithm> make_ol_reg(const core::CachingProblem& problem,
                                              std::size_t arma_order,
                                              OlOptions options, std::uint64_t seed);

std::unique_ptr<CachingAlgorithm> make_ol_with_predictor(
    std::string name, const core::CachingProblem& problem,
    std::unique_ptr<predict::DemandPredictor> predictor, OlOptions options,
    std::uint64_t seed);

}  // namespace mecsc::algorithms

#endif  // MECSC_ALGORITHMS_OL_GD_H
