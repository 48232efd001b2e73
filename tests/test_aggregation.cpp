// Tests for demand-class aggregation (DESIGN.md §11): class
// construction invariants (grouped and singleton builds), the exactness
// of the aggregated objective, de-aggregating rounding, mode resolution,
// and the end-to-end OL_GD paths (flow, parallel replications, fault
// churn) with aggregation forced on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "algorithms/ol_gd.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/aggregation.h"
#include "core/assignment.h"
#include "core/fractional_solver.h"
#include "core/problem.h"
#include "core/rounding.h"
#include "fault/fault_plan.h"
#include "net/generators.h"
#include "sim/replication.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace mecsc::core {
namespace {

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
  // The raw workload is not capacity-derated the way sim::Scenario
  // derates it; scale demands to half the network capacity so the flow
  // solves used below are feasible (resource demand is linear in ρ).
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

/// Expands a class-level fractional solution to per-request rows
/// (x_l := x_{class(l)}), keeping the class-level y.
FractionalSolution expand(const FractionalSolution& cls,
                          const DemandClassing& classing) {
  FractionalSolution out;
  out.y = cls.y;
  out.objective = cls.objective;
  out.x.reserve(classing.num_requests());
  for (std::size_t l = 0; l < classing.num_requests(); ++l) {
    out.x.push_back(cls.x[classing.class_of_request()[l]]);
  }
  return out;
}

// ---------------------------------------------------------------------
// Mode resolution.
// ---------------------------------------------------------------------

TEST(AggregateMode, ExplicitSettingsWinOverEnvironment) {
  setenv("MECSC_AGGREGATE", "on", 1);
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kOff), AggregateMode::kOff);
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kAuto), AggregateMode::kAuto);
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kOn), AggregateMode::kOn);
  unsetenv("MECSC_AGGREGATE");
}

TEST(AggregateMode, EnvParsesAllValuesAndDefaultsOff) {
  unsetenv("MECSC_AGGREGATE");
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kEnv), AggregateMode::kOff);
  setenv("MECSC_AGGREGATE", "off", 1);
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kEnv), AggregateMode::kOff);
  setenv("MECSC_AGGREGATE", "auto", 1);
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kEnv), AggregateMode::kAuto);
  setenv("MECSC_AGGREGATE", "on", 1);
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kEnv), AggregateMode::kOn);
  setenv("MECSC_AGGREGATE", "bogus", 1);
  EXPECT_EQ(resolve_aggregate_mode(AggregateMode::kEnv), AggregateMode::kOff);
  unsetenv("MECSC_AGGREGATE");
}

// ---------------------------------------------------------------------
// Class construction.
// ---------------------------------------------------------------------

TEST(DemandClassing, PartitionsRequestsAndSumsAreExact) {
  Instance inst = make_instance(11, 12, 60);
  DemandClassing classing;
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  ASSERT_EQ(classing.num_requests(), 60u);
  ASSERT_GE(classing.num_classes(), 1u);
  ASSERT_LE(classing.num_classes(), 60u);

  // Round-trip: every request maps to a class of its own service and
  // home station, the class sums are the member sums, and the class's
  // wireless term is the ρ-weighted mean (rho_sum·tx_unit_ms equals the
  // member sum of ρ_l·tx_l up to rounding).
  std::vector<double> rho_sum(classing.num_classes(), 0.0);
  std::vector<double> tx_rho_sum(classing.num_classes(), 0.0);
  std::vector<std::size_t> count(classing.num_classes(), 0);
  for (std::size_t l = 0; l < classing.num_requests(); ++l) {
    std::uint32_t c = classing.class_of_request()[l];
    ASSERT_LT(c, classing.num_classes());
    const DemandClass& cls = classing.classes()[c];
    EXPECT_EQ(cls.service, inst.problem->requests()[l].service_id);
    EXPECT_EQ(cls.home_station, inst.problem->requests()[l].home_station);
    rho_sum[c] += inst.demands[l];
    tx_rho_sum[c] += inst.demands[l] * inst.problem->tx_unit_ms(l);
    ++count[c];
  }
  for (std::size_t c = 0; c < classing.num_classes(); ++c) {
    EXPECT_NEAR(classing.classes()[c].rho_sum, rho_sum[c],
                1e-12 * (1.0 + rho_sum[c]));
    EXPECT_NEAR(classing.classes()[c].rho_sum * classing.classes()[c].tx_unit_ms,
                tx_rho_sum[c], 1e-12 * (1.0 + tx_rho_sum[c]));
    EXPECT_EQ(classing.classes()[c].count, count[c]);
    EXPECT_GT(count[c], 0u);
  }
}

TEST(DemandClassing, SingletonBuildIsOneClassPerRequestInRequestOrder) {
  Instance inst = make_instance(15, 10, 50);
  inst.demands[7] = 0.0;  // a zero-demand singleton keeps a finite tx term
  DemandClassing classing;
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  EXPECT_FALSE(classing.singletons());
  classing.build_singletons(*inst.problem, inst.demands);
  EXPECT_TRUE(classing.singletons());
  ASSERT_EQ(classing.num_classes(), 50u);
  ASSERT_EQ(classing.num_requests(), 50u);
  for (std::size_t l = 0; l < 50; ++l) {
    const DemandClass& c = classing.classes()[l];
    EXPECT_EQ(classing.class_of_request()[l], l);
    EXPECT_EQ(c.service, inst.problem->requests()[l].service_id);
    EXPECT_EQ(c.home_station, inst.problem->requests()[l].home_station);
    EXPECT_EQ(c.count, 1u);
    // Exact copies, so the class cost row is the request row bit for bit.
    EXPECT_EQ(c.rho_sum, inst.demands[l]);
    EXPECT_EQ(c.tx_unit_ms, inst.problem->tx_unit_ms(l));
  }
  EXPECT_DOUBLE_EQ(classing.compression_ratio(), 1.0);
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  EXPECT_FALSE(classing.singletons());
}

TEST(DemandClassing, EqualDemandsCollapseToOneClassPerServiceHomePair) {
  Instance inst = make_instance(12, 10, 80);
  std::vector<double> flat(inst.demands.size(), 7.5);
  DemandClassing classing;
  classing.build(*inst.problem, flat, AggregationOptions{});
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const auto& r : inst.problem->requests()) {
    pairs.insert({r.service_id, static_cast<std::uint32_t>(r.home_station)});
  }
  EXPECT_EQ(classing.num_classes(), pairs.size());
  EXPECT_NEAR(classing.compression_ratio(),
              80.0 / static_cast<double>(pairs.size()), 1e-12);
}

TEST(DemandClassing, ZeroDemandRequestsShareTheZeroBucket) {
  Instance inst = make_instance(13, 8, 20, 1);
  std::vector<double> zeros(inst.demands.size(), 0.0);
  DemandClassing classing;
  classing.build(*inst.problem, zeros, AggregationOptions{});
  // One service, all-zero demands: exactly one class per home station.
  std::set<std::size_t> homes;
  for (const auto& r : inst.problem->requests()) homes.insert(r.home_station);
  EXPECT_EQ(classing.num_classes(), homes.size());
}

TEST(DemandClassing, SameBucketIffDemandsWithinRatio) {
  Instance inst = make_instance(14, 6, 4, 1);
  // Force all requests to one home so only the bucket differentiates.
  // (Requests are value types; rebuild the problem with patched homes.)
  for (auto& r : inst.workload.requests) r.home_station = 0;
  common::Rng rng(14);
  CachingProblem problem(inst.topo.get(), inst.workload.services,
                         inst.workload.requests, ProblemOptions{}, rng);
  AggregationOptions o;
  o.bucket_ratio = 2.0;
  DemandClassing classing;
  // 1.0 and 1.9 share floor(log2) = 0; 4.1 lands in bucket 2; 1e6 far out.
  classing.build(problem, {1.0, 1.9, 4.1, 1e6}, o);
  const auto& of = classing.class_of_request();
  EXPECT_EQ(of[0], of[1]);
  EXPECT_NE(of[0], of[2]);
  EXPECT_NE(of[2], of[3]);
  EXPECT_EQ(classing.num_classes(), 3u);
}

// Pinned by the comment on demand_bucket() in aggregation.cpp: a demand
// sitting exactly on a bucket edge ρ = ratio^j must land in bucket j on
// every libm/FMA configuration (the raw log-quotient floors to j or j−1
// depending on ulp noise; the ilogb fast path and the epsilon nudge make
// the choice deterministic).
TEST(AggregationTest, BucketEdgesArePlatformStable) {
  Instance inst = make_instance(16, 6, 6, 1);
  // One home, one service: only the bucket differentiates classes.
  for (auto& r : inst.workload.requests) r.home_station = 0;
  common::Rng rng(16);
  CachingProblem problem(inst.topo.get(), inst.workload.services,
                         inst.workload.requests, ProblemOptions{}, rng);
  DemandClassing classing;
  auto bucket_of = [&](std::size_t l) {
    return classing.classes()[classing.class_of_request()[l]].bucket;
  };

  // Ratio 2.0 — the IEEE-754 exponent path: powers of two are exact
  // bucket edges and open their own bucket, never the one below.
  AggregationOptions o;
  o.bucket_ratio = 2.0;
  classing.build(problem, {0.25, 0.5, 1.0, 2.0, 4.0, 1024.0}, o);
  EXPECT_EQ(bucket_of(0), -2);
  EXPECT_EQ(bucket_of(1), -1);
  EXPECT_EQ(bucket_of(2), 0);
  EXPECT_EQ(bucket_of(3), 1);
  EXPECT_EQ(bucket_of(4), 2);
  EXPECT_EQ(bucket_of(5), 10);

  // A non-2 ratio — the nudged log-quotient path: exact edges floor up,
  // near-edge demands just below stay down.
  o.bucket_ratio = 3.0;
  classing.build(problem, {1.0, 3.0, 8.9999, 9.0, 27.0, 10.0}, o);
  EXPECT_EQ(bucket_of(0), 0);
  EXPECT_EQ(bucket_of(1), 1);
  EXPECT_EQ(bucket_of(2), 1);  // just below the 3^2 edge
  EXPECT_EQ(bucket_of(3), 2);  // exactly on the 3^2 edge
  EXPECT_EQ(bucket_of(4), 3);  // exactly on the 3^3 edge
  EXPECT_EQ(bucket_of(5), 2);  // interior of bucket 2

  // Sweep computed edges ratio^j across ratios and exponents: std::pow's
  // ulp noise must never drop an edge demand into bucket j−1.
  for (double ratio : {1.5, 2.0, 3.0, 10.0}) {
    o.bucket_ratio = ratio;
    for (int j = -3; j <= 3; ++j) {
      std::vector<double> demands(6, 1.0);
      demands[0] = std::pow(ratio, j);
      classing.build(problem, demands, o);
      EXPECT_EQ(bucket_of(0), j) << "ratio " << ratio << ", edge " << j;
    }
  }
}

TEST(DemandClassing, RejectsBadInputs) {
  Instance inst = make_instance(15, 6, 10);
  DemandClassing classing;
  AggregationOptions bad;
  bad.bucket_ratio = 1.0;
  EXPECT_THROW(classing.build(*inst.problem, inst.demands, bad),
               common::InvalidArgument);
  std::vector<double> short_demands(5, 1.0);
  EXPECT_THROW(classing.build(*inst.problem, short_demands, AggregationOptions{}),
               common::InvalidArgument);
}

// ---------------------------------------------------------------------
// Aggregated solve: exactness of the class-level objective.
// ---------------------------------------------------------------------

TEST(SolveClasses, ClassRowsSumToOneAndExpandExactly) {
  Instance inst = make_instance(21, 12, 90);
  DemandClassing classing;
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  ASSERT_LT(classing.num_classes(), 90u);  // something actually aggregated

  FractionalSolver solver(*inst.problem);
  FractionalSolution cls = solver.solve_classes(classing, inst.theta);
  ASSERT_EQ(cls.x.size(), classing.num_classes());
  for (const auto& row : cls.x) {
    double sum = 0.0;
    for (double v : row) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }

  // The class cost coefficients are exact member sums, so evaluating
  // the Eq. 3 objective on the uniformly expanded per-request solution
  // must reproduce the solver-reported class objective (FP noise only).
  FractionalSolution per_request = expand(cls, classing);
  double expanded_obj =
      solver.objective(per_request, inst.demands, inst.theta);
  EXPECT_NEAR(expanded_obj, cls.objective, 1e-7 * (1.0 + cls.objective));
}

TEST(SolveClasses, ObjectiveIsCloseToPerRequestSolve) {
  Instance inst = make_instance(22, 12, 90);
  DemandClassing classing;
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  FractionalSolver solver(*inst.problem);
  double flat = solver.solve(inst.demands, inst.theta).objective;
  double agg = solver.solve_classes(classing, inst.theta).objective;
  // Aggregation restricts the LP (members share one row), so the class
  // optimum cannot genuinely beat per-request; both paths share the
  // same amortization heuristic, so allow slack both ways.
  EXPECT_GE(agg, flat * 0.98);
  EXPECT_LE(agg, flat * 1.25);
}

TEST(SolveClasses, DegradedPathAcceptsClassesUnderCapacityShortfall) {
  Instance inst = make_instance(23, 6, 40);
  // Blow demands up past total capacity; with a report the class solve
  // must degrade gracefully instead of throwing, and keep Σx = 1.
  std::vector<double> heavy(inst.demands);
  for (double& d : heavy) d *= 1e4;
  DemandClassing classing;
  classing.build(*inst.problem, heavy, AggregationOptions{});
  FractionalSolver solver(*inst.problem);
  EXPECT_THROW(solver.solve_classes(classing, inst.theta), common::Infeasible);
  SolveReport report;
  FractionalSolution cls = solver.solve_classes(classing, inst.theta, &report);
  EXPECT_TRUE(report.degraded);
  EXPECT_GT(report.unrouted_mhz, 0.0);
  for (const auto& row : cls.x) {
    double sum = 0.0;
    for (double v : row) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

// ---------------------------------------------------------------------
// De-aggregating rounding.
// ---------------------------------------------------------------------

TEST(RoundAggregated, ProducesValidFeasibleAssignment) {
  Instance inst = make_instance(31, 12, 90);
  DemandClassing classing;
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  FractionalSolver solver(*inst.problem);
  FractionalSolution cls = solver.solve_classes(classing, inst.theta);

  RoundingOptions ropt;
  ropt.epsilon = 0.0;  // pure exploit: repair must yield feasibility
  common::Rng rng(31);
  Assignment a = round_assignment_aggregated(*inst.problem, cls, classing,
                                             inst.demands, inst.theta, ropt, rng);
  ASSERT_EQ(a.station_of_request.size(), 90u);
  for (std::size_t l = 0; l < a.station_of_request.size(); ++l) {
    EXPECT_LT(a.station_of_request[l], inst.problem->num_stations());
  }
  EXPECT_EQ(a.cached, derive_cached(*inst.problem, a.station_of_request));
  EXPECT_DOUBLE_EQ(capacity_violation(*inst.problem, a, inst.demands), 0.0);
}

TEST(RoundAggregated, MembersSampleIndependentlyFromTheClassRow) {
  Instance inst = make_instance(32, 10, 120);
  std::vector<double> flat(inst.demands.size(), 2.0);
  DemandClassing classing;
  classing.build(*inst.problem, flat, AggregationOptions{});
  FractionalSolver solver(*inst.problem);
  FractionalSolution cls = solver.solve_classes(classing, inst.theta);

  // With a fractional class row split across stations, independent
  // per-member sampling means members of one class do not all land on
  // one station (overwhelmingly likely across 120 requests and many
  // draws); a class-level (one-draw-per-class) rounding would.
  RoundingOptions ropt;
  ropt.epsilon = 0.25;
  common::Rng rng(32);
  std::size_t split_classes = 0;
  for (int rep = 0; rep < 8 && split_classes == 0; ++rep) {
    Assignment a = round_assignment_aggregated(
        *inst.problem, cls, classing, flat, inst.theta, ropt, rng);
    std::vector<std::set<std::size_t>> stations_of_class(classing.num_classes());
    for (std::size_t l = 0; l < flat.size(); ++l) {
      stations_of_class[classing.class_of_request()[l]].insert(
          a.station_of_request[l]);
    }
    for (std::size_t c = 0; c < classing.num_classes(); ++c) {
      if (classing.classes()[c].count > 1 && stations_of_class[c].size() > 1) {
        ++split_classes;
      }
    }
  }
  EXPECT_GT(split_classes, 0u);
}

TEST(RoundAggregated, RejectsMismatchedInputs) {
  Instance inst = make_instance(33, 8, 30);
  DemandClassing classing;
  classing.build(*inst.problem, inst.demands, AggregationOptions{});
  FractionalSolver solver(*inst.problem);
  FractionalSolution cls = solver.solve_classes(classing, inst.theta);
  cls.x.pop_back();  // wrong class count
  RoundingOptions ropt;
  common::Rng rng(33);
  EXPECT_THROW(round_assignment_aggregated(*inst.problem, cls, classing,
                                           inst.demands, inst.theta, ropt, rng),
               common::InvalidArgument);
}

}  // namespace
}  // namespace mecsc::core

// ---------------------------------------------------------------------
// End-to-end: OL_GD with aggregation forced on.
// ---------------------------------------------------------------------

namespace mecsc {
namespace {

sim::ScenarioParams agg_params(std::uint64_t seed) {
  sim::ScenarioParams p;
  p.num_stations = 15;
  p.horizon = 12;
  p.workload.num_requests = 40;
  p.workload.num_services = 4;
  p.history_horizon = 30;
  p.seed = seed;
  return p;
}

sim::RunResult run_olgd(sim::Scenario& s, core::AggregateMode mode) {
  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  opt.aggregate = mode;
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                     s.algorithm_seed(0));
  return s.simulator().run(*algo);
}

TEST(OlGdAggregated, FlowPathRunsWithDelayCloseToPerRequest) {
  sim::Scenario s(agg_params(41));
  sim::RunResult flat = run_olgd(s, core::AggregateMode::kOff);
  sim::RunResult agg = run_olgd(s, core::AggregateMode::kOn);
  ASSERT_EQ(agg.slots.size(), 12u);
  for (const auto& rec : agg.slots) EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
  EXPECT_GT(agg.mean_delay_ms(), 0.0);
  // Same candidate/exploration machinery on expanded rows: the realised
  // delay stays in the per-request ballpark even on a tiny instance.
  EXPECT_NEAR(agg.mean_delay_ms(), flat.mean_delay_ms(),
              0.15 * flat.mean_delay_ms());
}

TEST(OlGdAggregated, AutoModeUsesThresholds) {
  sim::Scenario s(agg_params(43));
  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  opt.aggregate = core::AggregateMode::kAuto;
  opt.aggregation.auto_threshold = 1;  // 40 requests >= 1: aggregates
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                     s.algorithm_seed(0));
  (void)s.simulator().run(*algo);
  auto* ol = dynamic_cast<algorithms::OnlineCachingAlgorithm*>(algo.get());
  ASSERT_NE(ol, nullptr);
  EXPECT_GT(ol->last_num_classes(), 0u);
  EXPECT_LT(ol->last_num_classes(), 40u);

  opt.aggregation.auto_threshold = 1000;  // 40 < 1000: per-request path
  auto algo2 = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                      s.algorithm_seed(0));
  (void)s.simulator().run(*algo2);
  auto* ol2 = dynamic_cast<algorithms::OnlineCachingAlgorithm*>(algo2.get());
  ASSERT_NE(ol2, nullptr);
  EXPECT_EQ(ol2->last_num_classes(), 0u);
}

TEST(OlGdAggregated, ParallelReplicationsBitwiseIdenticalWithAggregationOn) {
  auto run_reps = [](const char* workers) {
    setenv("MECSC_WORKERS", workers, 1);
    std::vector<double> delays;
    sim::run_replications(
        4,
        [&](std::size_t rep) {
          sim::Scenario s(agg_params(3000 + rep));
          algorithms::OlOptions opt;
          opt.theta_prior = s.theta_prior();
          opt.aggregate = core::AggregateMode::kOn;
          auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                             s.algorithm_seed(0));
          return s.simulator().run(*algo).mean_delay_ms();
        },
        [&](std::size_t, double& d) { delays.push_back(d); });
    unsetenv("MECSC_WORKERS");
    return delays;
  };
  auto seq = run_reps("1");
  auto par = run_reps("8");
  ASSERT_EQ(seq.size(), 4u);
  ASSERT_EQ(par.size(), 4u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], par[i]) << "rep " << i << " diverged under parallelism";
  }
}

TEST(OlGdAggregated, SurvivesFaultChurn) {
  sim::ScenarioParams p = agg_params(44);
  p.horizon = 40;
  p.fault.mode = fault::FaultMode::kChurn;
  p.fault.macro = {40.0, 3.0};
  p.fault.micro = {20.0, 4.0};
  p.fault.femto = {10.0, 5.0};
  sim::Scenario s(p);
  ASSERT_NE(s.fault_injector(), nullptr);
  EXPECT_GT(s.fault_injector()->plan().total_outage_slots(), 0u);
  sim::RunResult r = run_olgd(s, core::AggregateMode::kOn);
  ASSERT_EQ(r.slots.size(), 40u);
  for (const auto& rec : r.slots) EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
  // Effective capacities restored after the run.
  for (std::size_t i = 0; i < s.problem().num_stations(); ++i) {
    EXPECT_DOUBLE_EQ(s.problem().station_capacity_mhz(i),
                     s.topology().station(i).capacity_mhz);
  }
}

}  // namespace
}  // namespace mecsc
