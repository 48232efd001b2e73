#include "algorithms/ol_gd.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "net/base_station.h"

namespace mecsc::algorithms {

namespace {

core::BanditState make_bandit(const core::CachingProblem& problem,
                              const OlOptions& options) {
  if (!options.tier_priors) {
    return core::BanditState(problem.num_stations(), options.theta_prior);
  }
  std::vector<double> priors;
  priors.reserve(problem.num_stations());
  for (const auto& bs : problem.topology().stations()) {
    net::TierProfile tp = net::tier_profile(bs.tier);
    priors.push_back(0.5 * (tp.delay_lo_ms + tp.delay_hi_ms));
  }
  return core::BanditState(std::move(priors));
}

}  // namespace

OnlineCachingAlgorithm::OnlineCachingAlgorithm(std::string name,
                                               const core::CachingProblem& problem,
                                               const workload::DemandMatrix* given_demands,
                                               OlOptions options, std::uint64_t seed)
    : name_(std::move(name)),
      problem_(&problem),
      given_demands_(given_demands),
      options_(options),
      solver_(problem),
      lag_solver_(problem, options.lagrangian),
      solver_tier_(core::resolve_solver_tier(options.solver)),
      bandit_(make_bandit(problem, options)),
      rng_(seed),
      aggregate_mode_(core::resolve_aggregate_mode(options.aggregate)) {
  MECSC_CHECK_MSG(given_demands_ != nullptr, "null demand matrix");
  MECSC_CHECK_MSG(given_demands_->num_requests() == problem.num_requests(),
                  "demand matrix / problem size mismatch");
}

OnlineCachingAlgorithm::OnlineCachingAlgorithm(
    std::string name, const core::CachingProblem& problem,
    std::unique_ptr<predict::DemandPredictor> predictor, OlOptions options,
    std::uint64_t seed)
    : name_(std::move(name)),
      problem_(&problem),
      given_demands_(nullptr),
      predictor_(std::move(predictor)),
      options_(options),
      solver_(problem),
      lag_solver_(problem, options.lagrangian),
      solver_tier_(core::resolve_solver_tier(options.solver)),
      bandit_(make_bandit(problem, options)),
      rng_(seed),
      aggregate_mode_(core::resolve_aggregate_mode(options.aggregate)) {
  MECSC_CHECK_MSG(predictor_ != nullptr, "null predictor");
}

OnlineCachingAlgorithm::OnlineCachingAlgorithm(std::string name,
                                               const core::CachingProblem& problem,
                                               OlOptions options,
                                               std::uint64_t seed)
    : name_(std::move(name)),
      problem_(&problem),
      given_demands_(nullptr),
      options_(options),
      solver_(problem),
      lag_solver_(problem, options.lagrangian),
      solver_tier_(core::resolve_solver_tier(options.solver)),
      bandit_(make_bandit(problem, options)),
      rng_(seed),
      aggregate_mode_(core::resolve_aggregate_mode(options.aggregate)) {}

void OnlineCachingAlgorithm::set_live_demands(std::vector<double> demands) {
  MECSC_CHECK_MSG(demands.size() == problem_->num_requests(),
                  "live demand snapshot / problem size mismatch");
  live_demands_ = std::move(demands);
}

OlGdState OnlineCachingAlgorithm::export_state() const {
  OlGdState state;
  state.bandit_theta = bandit_.thetas();
  state.bandit_plays = bandit_.play_counts();
  state.bandit_total_plays = bandit_.total_plays();
  state.rng_stream = rng_.save_state();
  state.solver_warm = solver_.export_warm_state();
  state.lag_warm = lag_solver_.export_warm_state();
  return state;
}

void OnlineCachingAlgorithm::import_state(const OlGdState& state) {
  bandit_.restore(state.bandit_theta, state.bandit_plays,
                  state.bandit_total_plays);
  MECSC_CHECK_MSG(rng_.restore_state(state.rng_stream),
                  "corrupt RNG stream in algorithm state");
  solver_.import_warm_state(state.solver_warm);
  lag_solver_.import_warm_state(state.lag_warm);
}

std::vector<double> OnlineCachingAlgorithm::demands_for(std::size_t t) {
  if (live_demands_.has_value()) {
    std::vector<double> d = std::move(*live_demands_);
    live_demands_.reset();
    return d;
  }
  if (given_demands_ != nullptr) {
    MECSC_CHECK_MSG(t < given_demands_->horizon(), "slot beyond demand horizon");
    return given_demands_->slot(t);
  }
  MECSC_CHECK_MSG(predictor_ != nullptr,
                  "live-stream variant: set_live_demands() must be called "
                  "before every decide()");
  return predictor_->predict(t);
}

core::Assignment OnlineCachingAlgorithm::decide(std::size_t t) {
  last_demands_ = demands_for(t);
  std::vector<double> theta = bandit_.thetas();
  if (options_.ucb_beta > 0.0) {
    double log_t = std::log(static_cast<double>(t + 2));
    for (std::size_t i = 0; i < theta.size(); ++i) {
      double m = static_cast<double>(std::max<std::size_t>(bandit_.plays(i), 1));
      theta[i] = std::max(0.0, theta[i] - options_.ucb_beta * std::sqrt(log_t / m));
    }
  }

  // 1. Columns (DESIGN.md §11): demand classes when aggregation resolves
  //    on, one singleton class per request otherwise. Everything below
  //    runs the same code either way.
  const bool aggregate =
      aggregate_mode_ == core::AggregateMode::kOn ||
      (aggregate_mode_ == core::AggregateMode::kAuto &&
       problem_->num_requests() >= options_.aggregation.auto_threshold);
  if (aggregate) {
    classing_.build(*problem_, last_demands_, options_.aggregation);
    last_num_classes_ = classing_.num_classes();
    MECSC_COUNT("agg.slots", 1.0);
    MECSC_GAUGE_SET("agg.classes", static_cast<double>(last_num_classes_));
    MECSC_GAUGE_SET("agg.compression_ratio", classing_.compression_ratio());
    MECSC_HISTOGRAM("agg.classes_per_slot",
                    static_cast<double>(last_num_classes_));
  } else {
    classing_.build_singletons(*problem_, last_demands_);
    last_num_classes_ = 0;
  }

  // Solver tier (DESIGN.md §16): kAuto resolves per slot by column count
  // — the Lagrangian decomposition only pays for itself once the column
  // universe is large; below the threshold the flow path is already
  // exact and fast.
  core::SolverTier tier = solver_tier_;
  if (tier == core::SolverTier::kAuto) {
    tier = classing_.num_classes() >= options_.lagrangian.auto_threshold
               ? core::SolverTier::kLagrangian
               : core::SolverTier::kFlow;
  }
  last_solver_tier_ = tier;

  // 2.-3. Solver fallback chain (graceful degradation, DESIGN.md §9):
  //   depth 0  the primary solve (Lagrangian or flow);
  //   depth 1  a Lagrangian gap miss, answered by the flow solve;
  //   depth 2  a degraded flow solve (route what fits, place the rest
  //            greedily), or a watchdog/replay hint that skips the
  //            Lagrangian solve. The flow tier ignores the hint: its
  //            primary solve already degrades in place.
  // decide() never throws out of the slot loop for solver reasons.
  core::FractionalSolution frac;
  bool solved = false;
  last_fallback_depth_ = 0;
  const int hint = decide_hint_;
  decide_hint_ = 0;
  if (tier == core::SolverTier::kLagrangian) {
    if (hint >= 2) {
      last_fallback_depth_ = 2;
    } else {
      core::LagrangianOutcome out = lag_solver_.solve_classes(classing_, theta);
      if (out.converged) {
        frac = std::move(out.solution);
        solved = true;
      } else {
        // Duality-gap target missed within the iteration cap (or the
        // instance is too close to capacity for the relaxation's repair
        // slack).
        MECSC_COUNT("lag.fallbacks", 1.0);
        last_fallback_depth_ = 1;
      }
    }
  }
  if (!solved) {
    core::SolveReport report;
    frac = solver_.solve_classes(classing_, theta, &report);
    if (report.degraded) last_fallback_depth_ = 2;
  }
  if (last_fallback_depth_ > 0) {
    MECSC_COUNT("fault.solver_fallbacks", 1.0);
  }
  MECSC_GAUGE_SET("fault.fallback_depth",
                  static_cast<double>(last_fallback_depth_));

  core::RoundingOptions ropt;
  ropt.gamma = options_.gamma;
  ropt.epsilon = options_.epsilon.at(t);
  ropt.per_slot_coin = options_.per_slot_coin;
  MECSC_COUNT("olgd.decides", 1.0);
  MECSC_GAUGE_SET("olgd.epsilon", ropt.epsilon);  // ε trajectory's tail
  MECSC_HISTOGRAM("olgd.epsilon_trajectory", ropt.epsilon);
  // 4. Round: every request against its class's row.
  return core::round_assignment_aggregated(*problem_, frac, classing_,
                                           last_demands_, theta, ropt, rng_);
}

void OnlineCachingAlgorithm::observe(std::size_t t, const core::Assignment& decision,
                                     const std::vector<double>& true_demands,
                                     const std::vector<double>& realized_unit_delays) {
  MECSC_CHECK(realized_unit_delays.size() == problem_->num_stations());
  // Bandit feedback (Algorithm 1 lines 10-11): only stations that served
  // at least one request reveal their delay this slot. The reusable mask
  // keeps this allocation-free on the per-slot path.
  played_.assign(problem_->num_stations(), false);
  for (std::size_t i : decision.station_of_request) played_[i] = true;
  const bool telemetry = obs::enabled();
  for (std::size_t i = 0; i < played_.size(); ++i) {
    if (!played_[i]) continue;
    // Censored feedback (fault injection marks a lost d_i(t) as NaN):
    // skip the update, the arm keeps its estimate and play count.
    if (!std::isfinite(realized_unit_delays[i])) {
      MECSC_COUNT("fault.censored_observations", 1.0);
      continue;
    }
    bandit_.observe(i, realized_unit_delays[i]);
    if (telemetry) {
      obs::current()
          .counter("olgd.arm_pulls", {{"arm", std::to_string(i)}})
          .inc();
    }
  }
  if (predictor_) predictor_->observe(t, true_demands);
}

std::unique_ptr<CachingAlgorithm> make_ol_gd(const core::CachingProblem& problem,
                                             const workload::DemandMatrix& demands,
                                             OlOptions options, std::uint64_t seed) {
  return std::make_unique<OnlineCachingAlgorithm>("OL_GD", problem, &demands,
                                                  options, seed);
}

std::unique_ptr<CachingAlgorithm> make_ol_reg(const core::CachingProblem& problem,
                                              std::size_t arma_order,
                                              OlOptions options, std::uint64_t seed) {
  std::vector<double> fallback;
  fallback.reserve(problem.num_requests());
  for (const auto& r : problem.requests()) fallback.push_back(r.basic_demand);
  auto predictor = std::make_unique<predict::ArmaPredictor>(arma_order,
                                                            std::move(fallback));
  return std::make_unique<OnlineCachingAlgorithm>("OL_Reg", problem,
                                                  std::move(predictor), options, seed);
}

std::unique_ptr<CachingAlgorithm> make_ol_with_predictor(
    std::string name, const core::CachingProblem& problem,
    std::unique_ptr<predict::DemandPredictor> predictor, OlOptions options,
    std::uint64_t seed) {
  return std::make_unique<OnlineCachingAlgorithm>(std::move(name), problem,
                                                  std::move(predictor), options, seed);
}

}  // namespace mecsc::algorithms
