// Tier-equivalence tests of the per-slot LP solver tiers (DESIGN.md
// §16): MECSC_SOLVER / MECSC_LAG_* resolution, the Lagrangian
// decomposition's objective agreement with the flow tier and the exact
// simplex oracle on fig3/fig6-shaped instances, warm-state validation on
// both solvers, OL_GD's tier dispatch (explicit > env, the gap-miss
// fallback chain), survival under fault churn on
// every tier, and the bitwise checkpoint round-trip of the Lagrangian
// dual state (serve checkpoint format v3).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "algorithms/ol_gd.h"
#include "common/rng.h"
#include "core/aggregation.h"
#include "core/fractional_solver.h"
#include "core/lagrangian_solver.h"
#include "core/lp_formulation.h"
#include "core/problem.h"
#include "core/solver_tier.h"
#include "fault/fault_plan.h"
#include "lp/simplex.h"
#include "net/generators.h"
#include "serve/checkpoint.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace mecsc::core {
namespace {

// ---------------------------------------------------------------------
// Tier resolution.
// ---------------------------------------------------------------------

TEST(SolverTierResolution, ExplicitSettingsWinOverEnvironment) {
  setenv("MECSC_SOLVER", "lagrangian", 1);
  EXPECT_EQ(resolve_solver_tier(SolverTier::kFlow), SolverTier::kFlow);
  EXPECT_EQ(resolve_solver_tier(SolverTier::kLagrangian),
            SolverTier::kLagrangian);
  unsetenv("MECSC_SOLVER");
}

TEST(SolverTierResolution, EnvParsesAllValuesAndDefaultsFlow) {
  unsetenv("MECSC_SOLVER");
  EXPECT_EQ(resolve_solver_tier(SolverTier::kEnv), SolverTier::kFlow);
  setenv("MECSC_SOLVER", "flow", 1);
  EXPECT_EQ(resolve_solver_tier(SolverTier::kEnv), SolverTier::kFlow);
  setenv("MECSC_SOLVER", "lagrangian", 1);
  EXPECT_EQ(resolve_solver_tier(SolverTier::kEnv), SolverTier::kLagrangian);
  // Unknown values warn and resolve to flow — including the retired
  // simplex tier, which is now the test oracle, not a serving tier, and
  // the retired per-slot auto tier.
  for (const char* unknown : {"bogus", "simplex", "auto"}) {
    setenv("MECSC_SOLVER", unknown, 1);
    EXPECT_EQ(resolve_solver_tier(SolverTier::kEnv), SolverTier::kFlow) << unknown;
  }
  unsetenv("MECSC_SOLVER");
}

TEST(SolverTierResolution, NamesAreStable) {
  EXPECT_STREQ(solver_tier_name(SolverTier::kFlow), "flow");
  EXPECT_STREQ(solver_tier_name(SolverTier::kLagrangian), "lagrangian");
}

TEST(SolverTierResolution, LagrangianKnobsComeFromEnvironment) {
  setenv("MECSC_LAG_ITERS", "77", 1);
  setenv("MECSC_LAG_GAP", "0.05", 1);
  LagrangianOptions o = lagrangian_options_from_env();
  EXPECT_EQ(o.max_iterations, 77u);
  EXPECT_DOUBLE_EQ(o.target_gap, 0.05);
  // Degenerate values keep a usable solver: 0 iterations clamps to 1, a
  // non-positive gap keeps the default, unparsable text keeps defaults.
  setenv("MECSC_LAG_ITERS", "0", 1);
  setenv("MECSC_LAG_GAP", "-1", 1);
  o = lagrangian_options_from_env();
  EXPECT_EQ(o.max_iterations, 1u);
  EXPECT_DOUBLE_EQ(o.target_gap, LagrangianOptions{}.target_gap);
  unsetenv("MECSC_LAG_ITERS");
  unsetenv("MECSC_LAG_GAP");
  o = lagrangian_options_from_env();
  EXPECT_EQ(o.max_iterations, LagrangianOptions{}.max_iterations);
  EXPECT_DOUBLE_EQ(o.target_gap, LagrangianOptions{}.target_gap);
}

// ---------------------------------------------------------------------
// Direct solver equivalence on small instances.
// ---------------------------------------------------------------------

struct Instance {
  std::unique_ptr<net::Topology> topo;
  workload::Workload workload;
  std::unique_ptr<CachingProblem> problem;
  std::vector<double> demands;
  std::vector<double> theta;
};

Instance make_instance(std::uint64_t seed, std::size_t stations,
                       std::size_t requests, std::size_t services = 4) {
  Instance inst;
  common::Rng rng(seed);
  net::GtItmParams gp;
  gp.num_stations = stations;
  inst.topo = std::make_unique<net::Topology>(net::generate_gtitm_like(gp, rng));
  workload::WorkloadParams wp;
  wp.num_requests = requests;
  wp.num_services = services;
  inst.workload = workload::make_workload(*inst.topo, wp, rng, false);
  ProblemOptions opts;
  inst.problem = std::make_unique<CachingProblem>(
      inst.topo.get(), inst.workload.services, inst.workload.requests, opts, rng);
  for (const auto& r : inst.workload.requests) inst.demands.push_back(r.basic_demand);
  // Scale demands to half the network capacity so every tier's solve is
  // comfortably feasible (same derating as tests/test_aggregation.cpp).
  double total_demand_mhz = 0.0, total_cap_mhz = 0.0;
  for (double d : inst.demands) total_demand_mhz += inst.problem->resource_demand_mhz(d);
  for (std::size_t i = 0; i < stations; ++i) {
    total_cap_mhz += inst.problem->station_capacity_mhz(i);
    inst.theta.push_back(inst.topo->station(i).mean_unit_delay_ms);
  }
  if (total_demand_mhz > 0.5 * total_cap_mhz) {
    const double scale = 0.5 * total_cap_mhz / total_demand_mhz;
    for (double& d : inst.demands) d *= scale;
  }
  return inst;
}

/// Both tiers and the simplex oracle solve the same relaxation with the
/// same cost model and score with the true Eq. 3 objective, so their
/// objectives must sit within (duality gap + tiny-instance amortization
/// error) of each other. The 1% at-scale agreement is gated by bench_scale; these
/// deliberately tiny instances get the same slack test_core grants the
/// flow-vs-simplex pair.
class TierEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TierEquivalenceTest, ObjectivesAgreeAcrossTiers) {
  Instance inst = make_instance(GetParam(), 8, 60, 3);
  FractionalSolver flow(*inst.problem);
  const FractionalSolution f = flow.solve(inst.demands, inst.theta);
  LpFormulation lp(*inst.problem, inst.demands, inst.theta);
  const FractionalSolution exact = lp.solve(lp::SimplexSolver());

  LagrangianOptions lo;
  lo.max_iterations = 600;
  lo.target_gap = 0.02;
  LagrangianSolver lag(*inst.problem, lo);
  const LagrangianOutcome out = lag.solve(inst.demands, inst.theta);
  ASSERT_TRUE(out.converged);
  EXPECT_LE(out.gap, lo.target_gap);
  EXPECT_GE(out.iterations, 1u);

  // The repaired primal is a feasible fractional assignment: every
  // request row sums to one and no station exceeds capacity.
  const std::size_t ns = inst.problem->num_stations();
  std::vector<double> load(ns, 0.0);
  for (std::size_t l = 0; l < inst.demands.size(); ++l) {
    double sum = 0.0;
    for (std::size_t i = 0; i < ns; ++i) {
      EXPECT_GE(out.solution.x[l][i], -1e-9);
      sum += out.solution.x[l][i];
      load[i] += out.solution.x[l][i] * inst.problem->resource_demand_mhz(inst.demands[l]);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << "request " << l;
  }
  for (std::size_t i = 0; i < ns; ++i) {
    EXPECT_LE(load[i], inst.problem->station_capacity_mhz(i) * (1.0 + 1e-6));
  }

  // Three-way objective agreement (relative to the flow anchor).
  EXPECT_LE(std::abs(out.solution.objective - f.objective),
            0.15 * f.objective + 1e-6);
  EXPECT_LE(std::abs(exact.objective - f.objective),
            0.25 * f.objective + 1e-6);
  // And the dual bound really is a lower bound on the feasible primals.
  EXPECT_LE(out.dual_bound,
            out.solution.objective * static_cast<double>(inst.demands.size()) *
                    (1.0 + 1e-6) +
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TierEquivalenceTest,
                         ::testing::Values(101u, 202u, 303u));

TEST(LagrangianSolverTest, ClassSolveMatchesRequestSolveObjective) {
  Instance inst = make_instance(404, 10, 80, 3);
  DemandClassing classing;
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  ASSERT_LT(classing.num_classes(), 80u);
  LagrangianOptions lo;
  lo.max_iterations = 600;
  // Looser than the library default: this seed's primal-repair error
  // floor sits near 2.5%, and what this test pins is the class-vs-
  // request agreement, not the achievable gap.
  lo.target_gap = 0.05;
  LagrangianSolver lag(*inst.problem, lo);
  const LagrangianOutcome per_req = lag.solve(inst.demands, inst.theta);
  LagrangianSolver lag2(*inst.problem, lo);
  const LagrangianOutcome per_cls = lag2.solve_classes(classing, inst.theta);
  ASSERT_TRUE(per_req.converged);
  ASSERT_TRUE(per_cls.converged);
  ASSERT_EQ(per_cls.solution.x.size(), classing.num_classes());
  // Within-class demand heterogeneity is the only modelling difference.
  EXPECT_NEAR(per_cls.solution.objective, per_req.solution.objective,
              0.15 * per_req.solution.objective + 1e-6);
}

TEST(LagrangianSolverTest, CapacityShortBailsOutNonConverged) {
  Instance inst = make_instance(9, 6, 20, 2);
  std::vector<double> huge(inst.demands.size(), 1e9);
  LagrangianSolver lag(*inst.problem);
  const LagrangianOutcome out = lag.solve(huge, inst.theta);
  // The dual of an infeasible instance is unbounded; the solver must
  // hand the slot to the flow tier's degraded path instead of burning
  // its iteration cap.
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(out.iterations, 0u);
}

TEST(LagrangianSolverTest, WarmStartConvergesNoSlowerThanCold) {
  Instance inst = make_instance(55, 10, 80, 3);
  LagrangianOptions lo;
  lo.max_iterations = 600;
  lo.target_gap = 0.02;
  LagrangianSolver lag(*inst.problem, lo);
  const LagrangianOutcome cold = lag.solve(inst.demands, inst.theta);
  ASSERT_TRUE(cold.converged);
  // Same instance again with yesterday's duals: the gap closes at least
  // as fast (this is the whole point of checkpointing λ).
  const LagrangianOutcome warm = lag.solve(inst.demands, inst.theta);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold.iterations);
}

// ---------------------------------------------------------------------
// Warm-state validation (both scalable solvers).
// ---------------------------------------------------------------------

TEST(LagrangianWarmStateTest, RoundTripsAndRejectsBadSnapshots) {
  Instance inst = make_instance(66, 6, 24, 2);
  LagrangianSolver lag(*inst.problem);
  (void)lag.solve(inst.demands, inst.theta);
  const LagrangianWarmState good = lag.export_warm_state();
  ASSERT_EQ(good.lambda.size(), 6u);

  LagrangianSolver other(*inst.problem);
  other.import_warm_state(good);
  const LagrangianWarmState back = other.export_warm_state();
  ASSERT_EQ(back.lambda.size(), good.lambda.size());
  EXPECT_EQ(0, std::memcmp(back.lambda.data(), good.lambda.data(),
                           good.lambda.size() * sizeof(double)));
  EXPECT_EQ(back.step_scale, good.step_scale);

  // Wrong station dimension (stale checkpoint after a topology change):
  // rejected as a whole, cold start.
  LagrangianWarmState bad;
  bad.lambda = {0.0, 1.0, 2.0};
  other.import_warm_state(bad);
  EXPECT_TRUE(other.export_warm_state().lambda.empty());
  EXPECT_DOUBLE_EQ(other.export_warm_state().step_scale, 1.0);

  // Negative or non-finite prices: rejected.
  bad.lambda.assign(6, 0.5);
  bad.lambda[2] = -1.0;
  other.import_warm_state(bad);
  EXPECT_TRUE(other.export_warm_state().lambda.empty());
  bad.lambda.assign(6, 0.5);
  bad.lambda[3] = std::numeric_limits<double>::quiet_NaN();
  other.import_warm_state(bad);
  EXPECT_TRUE(other.export_warm_state().lambda.empty());

  // An empty λ is a valid cold start (a checkpoint written by a
  // flow-tier run), not a rejection; step_scale clamps into its bounds.
  LagrangianWarmState cold;
  cold.step_scale = 100.0;
  other.import_warm_state(cold);
  EXPECT_TRUE(other.export_warm_state().lambda.empty());
  EXPECT_DOUBLE_EQ(other.export_warm_state().step_scale, 2.0);
}

TEST(FractionalWarmStateTest, RejectsWrongStationDimension) {
  Instance inst = make_instance(77, 6, 24, 2);
  FractionalSolver solver(*inst.problem);
  (void)solver.solve(inst.demands, inst.theta);
  const FractionalWarmState good = solver.export_warm_state();
  ASSERT_EQ(good.station_price.size(), 6u);

  // Price vector from another station universe: rejected as a whole.
  FractionalWarmState bad = good;
  bad.station_price.resize(4);
  solver.import_warm_state(bad);
  EXPECT_TRUE(solver.export_warm_state().station_price.empty());
  EXPECT_TRUE(solver.export_warm_state().warm_arcs.empty());

  // An arc naming a station id past the universe would index out of
  // bounds: rejected too.
  FractionalWarmState bad_arcs = good;
  bad_arcs.warm_arcs.push_back({6u});
  solver.import_warm_state(bad_arcs);
  EXPECT_TRUE(solver.export_warm_state().station_price.empty());

  // The valid snapshot round-trips intact, and the solver still solves.
  solver.import_warm_state(good);
  EXPECT_EQ(solver.export_warm_state().station_price, good.station_price);
  EXPECT_EQ(solver.export_warm_state().warm_arcs, good.warm_arcs);
  const FractionalSolution sol = solver.solve(inst.demands, inst.theta);
  EXPECT_TRUE(std::isfinite(sol.objective));
}

}  // namespace
}  // namespace mecsc::core

// ---------------------------------------------------------------------
// End-to-end OL_GD tier dispatch and churn survival.
// ---------------------------------------------------------------------

namespace mecsc {
namespace {

sim::ScenarioParams tier_params(std::uint64_t seed, bool bursty = false) {
  sim::ScenarioParams p;
  p.num_stations = 15;
  p.horizon = 12;
  p.workload.num_requests = 40;
  p.workload.num_services = 4;
  p.history_horizon = 30;
  p.bursty = bursty;
  p.seed = seed;
  return p;
}

/// Runs OL_GD under an explicit tier and hands back the algorithm for
/// post-run inspection (last tier, fallback depth).
sim::RunResult run_tier(sim::Scenario& s, core::SolverTier tier,
                        algorithms::OlOptions opt = {},
                        algorithms::OnlineCachingAlgorithm** out_algo = nullptr,
                        std::unique_ptr<algorithms::CachingAlgorithm>* keep = nullptr) {
  opt.theta_prior = s.theta_prior();
  opt.solver = tier;
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                     s.algorithm_seed(0));
  sim::RunResult r = s.simulator().run(*algo);
  if (out_algo != nullptr) {
    *out_algo = dynamic_cast<algorithms::OnlineCachingAlgorithm*>(algo.get());
  }
  if (keep != nullptr) *keep = std::move(algo);
  return r;
}

/// Fig. 3-shaped (constant given demands) and Fig. 6-shaped (bursty)
/// scenarios: both tiers run the same bandit/rounding machinery on
/// fractional solutions of the same relaxation, so realised mean delays
/// stay in one ballpark.
TEST(OlGdSolverTiers, TiersAgreeOnFig3AndFig6ShapedRuns) {
  for (const bool bursty : {false, true}) {
    SCOPED_TRACE(bursty ? "fig6-shaped (bursty)" : "fig3-shaped (constant)");
    sim::Scenario s(tier_params(bursty ? 91 : 90, bursty));
    algorithms::OnlineCachingAlgorithm* algo = nullptr;
    std::unique_ptr<algorithms::CachingAlgorithm> keep;
    const sim::RunResult flow = run_tier(s, core::SolverTier::kFlow, {}, &algo, &keep);
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->last_solver_tier(), core::SolverTier::kFlow);
    const sim::RunResult lag =
        run_tier(s, core::SolverTier::kLagrangian, {}, &algo, &keep);
    EXPECT_EQ(algo->last_solver_tier(), core::SolverTier::kLagrangian);
    for (const auto& rec : lag.slots) EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
    EXPECT_NEAR(lag.mean_delay_ms(), flow.mean_delay_ms(),
                0.15 * flow.mean_delay_ms());
  }
}

TEST(OlGdSolverTiers, ExplicitTierWinsOverEnvironment) {
  setenv("MECSC_SOLVER", "lagrangian", 1);
  sim::Scenario s(tier_params(93));
  algorithms::OnlineCachingAlgorithm* algo = nullptr;
  std::unique_ptr<algorithms::CachingAlgorithm> keep;
  // Explicit code-level tier beats the environment.
  (void)run_tier(s, core::SolverTier::kFlow, {}, &algo, &keep);
  ASSERT_NE(algo, nullptr);
  EXPECT_EQ(algo->last_solver_tier(), core::SolverTier::kFlow);
  // kEnv defers to MECSC_SOLVER.
  (void)run_tier(s, core::SolverTier::kEnv, {}, &algo, &keep);
  EXPECT_EQ(algo->last_solver_tier(), core::SolverTier::kLagrangian);
  unsetenv("MECSC_SOLVER");
}

TEST(OlGdSolverTiers, GapMissFallsBackToFlowPath) {
  sim::Scenario s(tier_params(94));
  algorithms::OnlineCachingAlgorithm* algo = nullptr;
  std::unique_ptr<algorithms::CachingAlgorithm> keep;
  algorithms::OlOptions opt;
  // An unreachable gap under a one-iteration cap: every slot's
  // Lagrangian solve misses and the decision comes from the exact flow
  // path at fallback depth >= 1.
  opt.lagrangian.max_iterations = 1;
  opt.lagrangian.target_gap = 1e-12;
  const sim::RunResult r =
      run_tier(s, core::SolverTier::kLagrangian, opt, &algo, &keep);
  ASSERT_NE(algo, nullptr);
  EXPECT_EQ(algo->last_solver_tier(), core::SolverTier::kLagrangian);
  EXPECT_GE(algo->last_fallback_depth(), 1);
  ASSERT_EQ(r.slots.size(), 12u);
  for (const auto& rec : r.slots) EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
}

TEST(OlGdSolverTiers, EveryTierSurvivesFaultChurn) {
  for (const core::SolverTier tier :
       {core::SolverTier::kFlow, core::SolverTier::kLagrangian}) {
    SCOPED_TRACE(core::solver_tier_name(tier));
    sim::ScenarioParams p = tier_params(95);
    p.horizon = 40;
    p.fault.mode = fault::FaultMode::kChurn;
    p.fault.macro = {40.0, 3.0};
    p.fault.micro = {20.0, 4.0};
    p.fault.femto = {10.0, 5.0};
    sim::Scenario s(p);
    ASSERT_NE(s.fault_injector(), nullptr);
    EXPECT_GT(s.fault_injector()->plan().total_outage_slots(), 0u);
    const sim::RunResult r = run_tier(s, tier);
    ASSERT_EQ(r.slots.size(), 40u);
    for (const auto& rec : r.slots) EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
    // Effective capacities restored after the run.
    for (std::size_t i = 0; i < s.problem().num_stations(); ++i) {
      EXPECT_DOUBLE_EQ(s.problem().station_capacity_mhz(i),
                       s.topology().station(i).capacity_mhz);
    }
  }
}

TEST(OlGdSolverTiers, StateExportCarriesLagrangianDuals) {
  sim::Scenario s(tier_params(96));
  algorithms::OnlineCachingAlgorithm* algo = nullptr;
  std::unique_ptr<algorithms::CachingAlgorithm> keep;
  (void)run_tier(s, core::SolverTier::kLagrangian, {}, &algo, &keep);
  ASSERT_NE(algo, nullptr);
  const algorithms::OlGdState state = algo->export_state();
  ASSERT_EQ(state.lag_warm.lambda.size(), s.problem().num_stations());
  for (double l : state.lag_warm.lambda) {
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_GE(l, 0.0);
  }
  // Importing into a twin restores the duals bitwise.
  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  opt.solver = core::SolverTier::kLagrangian;
  auto twin = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                     s.algorithm_seed(0));
  auto* twin_ol = dynamic_cast<algorithms::OnlineCachingAlgorithm*>(twin.get());
  ASSERT_NE(twin_ol, nullptr);
  twin_ol->import_state(state);
  const algorithms::OlGdState back = twin_ol->export_state();
  ASSERT_EQ(back.lag_warm.lambda.size(), state.lag_warm.lambda.size());
  EXPECT_EQ(0, std::memcmp(back.lag_warm.lambda.data(),
                           state.lag_warm.lambda.data(),
                           state.lag_warm.lambda.size() * sizeof(double)));
  EXPECT_EQ(back.lag_warm.step_scale, state.lag_warm.step_scale);
}

// ---------------------------------------------------------------------
// Checkpoint round-trip of the dual state (serve format v3).
// ---------------------------------------------------------------------

TEST(LagrangianCheckpoint, DualStateRoundTripsBitwise) {
  const std::string path = ::testing::TempDir() + "mecsc_tiers_lag.ckpt";
  serve::Checkpoint ckpt;
  ckpt.config.seed = 7;
  ckpt.config.num_stations = 4;
  ckpt.config.solver = static_cast<std::uint8_t>(core::SolverTier::kLagrangian);
  // Awkward doubles on purpose: a denormal, a non-terminating binary
  // fraction, and a huge price must all survive the round trip bitwise.
  ckpt.algo.lag_warm.lambda = {0.0, 1.0 / 3.0,
                               std::numeric_limits<double>::denorm_min(),
                               7.25e11};
  ckpt.algo.lag_warm.step_scale = 0.4375;
  serve::write_checkpoint(path, ckpt);
  const serve::Checkpoint back = serve::read_checkpoint(path);
  EXPECT_EQ(back.config.solver,
            static_cast<std::uint8_t>(core::SolverTier::kLagrangian));
  ASSERT_EQ(back.algo.lag_warm.lambda.size(), ckpt.algo.lag_warm.lambda.size());
  EXPECT_EQ(0, std::memcmp(back.algo.lag_warm.lambda.data(),
                           ckpt.algo.lag_warm.lambda.data(),
                           ckpt.algo.lag_warm.lambda.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&back.algo.lag_warm.step_scale,
                           &ckpt.algo.lag_warm.step_scale, sizeof(double)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mecsc
