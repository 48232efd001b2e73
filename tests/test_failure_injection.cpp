// Failure injection and degenerate-input tests: the library must fail
// loudly on broken inputs and keep working at the edges of its domain
// (single station, zero bursty demand, delay spikes, tiny GANs, ...).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "algorithms/baselines.h"
#include "algorithms/ol_gd.h"
#include "common/error.h"
#include "core/fractional_solver.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "gan/info_rnn_gan.h"
#include "net/delay_process.h"
#include "net/generators.h"
#include "predict/gan_predictor.h"
#include "sim/replication.h"
#include "sim/scenario.h"

namespace mecsc {
namespace {

// ---------------------------------------------------------------------
// Loud failures on broken inputs.
// ---------------------------------------------------------------------

TEST(FailureInjection, ScenarioRejectsZeroHorizon) {
  sim::ScenarioParams p;
  p.horizon = 0;
  EXPECT_THROW(sim::Scenario{p}, common::InvalidArgument);
}

TEST(FailureInjection, ScenarioDeratesOverloadedWorkload) {
  // 400 requests on 5 stations cannot fit at the default C_unit; the
  // scenario derates C_unit deterministically instead of failing, and
  // says so.
  sim::ScenarioParams p;
  p.num_stations = 5;
  p.horizon = 4;
  p.workload.num_requests = 400;
  p.seed = 3;
  sim::Scenario s(p);
  EXPECT_TRUE(s.c_unit_derated());
  EXPECT_LT(s.problem().options().c_unit_mhz, p.problem.c_unit_mhz);
  // And the derated instance really is feasible on every slot.
  for (std::size_t t = 0; t < p.horizon; ++t) {
    EXPECT_NO_THROW(s.problem().check_capacity_feasible(s.demands().slot(t)));
  }
}

TEST(FailureInjection, ScenarioKeepsRequestedCUnitWhenFeasible) {
  sim::ScenarioParams p;
  p.num_stations = 40;
  p.horizon = 4;
  p.workload.num_requests = 10;
  p.seed = 5;
  sim::Scenario s(p);
  EXPECT_FALSE(s.c_unit_derated());
  EXPECT_DOUBLE_EQ(s.problem().options().c_unit_mhz, p.problem.c_unit_mhz);
}

TEST(FailureInjection, ProblemRejectsForeignRequests) {
  common::Rng rng(1);
  net::GtItmParams gp;
  gp.num_stations = 5;
  net::Topology topo = net::generate_gtitm_like(gp, rng);
  workload::WorkloadParams wp;
  wp.num_requests = 3;
  workload::Workload w = workload::make_workload(topo, wp, rng, false);
  w.requests[0].service_id = 99;  // unknown service
  EXPECT_THROW(core::CachingProblem(&topo, w.services, w.requests,
                                    core::ProblemOptions{}, rng),
               common::InvalidArgument);
}

TEST(FailureInjection, ProblemRejectsBadOptions) {
  common::Rng rng(2);
  net::GtItmParams gp;
  gp.num_stations = 5;
  net::Topology topo = net::generate_gtitm_like(gp, rng);
  workload::WorkloadParams wp;
  wp.num_requests = 3;
  workload::Workload w = workload::make_workload(topo, wp, rng, false);
  core::ProblemOptions bad;
  bad.c_unit_mhz = 0.0;
  EXPECT_THROW(core::CachingProblem(&topo, w.services, w.requests, bad, rng),
               common::InvalidArgument);
}

TEST(FailureInjection, OlGdRejectsMismatchedDemandMatrix) {
  sim::ScenarioParams p;
  p.num_stations = 10;
  p.horizon = 4;
  p.workload.num_requests = 8;
  p.seed = 5;
  sim::Scenario s(p);
  workload::DemandMatrix wrong(3, 4);  // wrong request count
  EXPECT_THROW(algorithms::OnlineCachingAlgorithm("x", s.problem(), &wrong,
                                                  algorithms::OlOptions{}, 1),
               common::InvalidArgument);
}

TEST(FailureInjection, BaselinesRejectWrongEstimateCount) {
  sim::ScenarioParams p;
  p.num_stations = 10;
  p.horizon = 4;
  p.workload.num_requests = 8;
  p.seed = 7;
  sim::Scenario s(p);
  EXPECT_THROW(
      algorithms::make_greedy_gd(s.problem(), s.demands(), {1.0, 2.0}),
      common::InvalidArgument);
  std::vector<double> negative(10, -1.0);
  EXPECT_THROW(algorithms::make_pri_gd(s.problem(), s.demands(), negative),
               common::InvalidArgument);
}

TEST(FailureInjection, GanPredictorRejectsForeignCluster) {
  sim::ScenarioParams p;
  p.num_stations = 10;
  p.horizon = 4;
  p.bursty = true;
  p.workload.num_requests = 8;
  p.workload.num_clusters = 4;
  p.seed = 9;
  sim::Scenario s(p);
  auto requests = s.workload().requests;
  requests[0].location_cluster = 99;
  predict::GanPredictorOptions o;
  o.train_steps = 1;
  EXPECT_THROW(predict::GanDemandPredictor(requests, s.trace(), o, 1),
               common::InvalidArgument);
}

// ---------------------------------------------------------------------
// Degenerate-but-legal domains keep working.
// ---------------------------------------------------------------------

TEST(EdgeCases, SingleRequestSingleService) {
  sim::ScenarioParams p;
  p.num_stations = 6;
  p.horizon = 5;
  p.workload.num_requests = 1;
  p.workload.num_services = 1;
  p.workload.num_clusters = 1;
  p.seed = 11;
  sim::Scenario s(p);
  algorithms::OlOptions opt;
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt, 1);
  sim::RunResult r = s.simulator().run(*algo);
  EXPECT_EQ(r.slots.size(), 5u);
  for (const auto& rec : r.slots) EXPECT_GT(rec.avg_delay_ms, 0.0);
}

TEST(EdgeCases, TwoStationNetwork) {
  common::Rng rng(13);
  net::GtItmParams gp;
  gp.num_stations = 2;
  net::Topology topo = net::generate_gtitm_like(gp, rng);
  EXPECT_TRUE(topo.is_connected());
  workload::WorkloadParams wp;
  wp.num_requests = 2;
  wp.num_services = 1;
  workload::Workload w = workload::make_workload(topo, wp, rng, false);
  core::ProblemOptions po;
  po.c_unit_mhz = 5.0;  // keep two requests inside two stations
  core::CachingProblem problem(&topo, w.services, w.requests, po, rng);
  core::FractionalSolver solver(problem);
  std::vector<double> demands{w.requests[0].basic_demand,
                              w.requests[1].basic_demand};
  std::vector<double> theta{10.0, 20.0};
  core::FractionalSolution sol = solver.solve(demands, theta);
  EXPECT_GT(sol.objective, 0.0);
}

TEST(EdgeCases, ZeroDemandSlotCostsOnlyInstantiation) {
  sim::ScenarioParams p;
  p.num_stations = 8;
  p.horizon = 3;
  p.workload.num_requests = 5;
  p.seed = 17;
  sim::Scenario s(p);
  core::FractionalSolver solver(s.problem());
  std::vector<double> zero(5, 0.0);
  std::vector<double> theta(8, 10.0);
  core::FractionalSolution sol = solver.solve(zero, theta);
  // All processing terms vanish; objective is access + instantiation only.
  EXPECT_GE(sol.objective, 0.0);
  for (std::size_t l = 0; l < 5; ++l) {
    double sum = 0.0;
    for (double v : sol.x[l]) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(EdgeCases, DelaySpikesDoNotBreakLearning) {
  // A spiky delay process (rare 3x congestion spikes) must not crash the
  // pipeline nor produce non-finite estimates.
  sim::ScenarioParams p;
  p.num_stations = 15;
  p.horizon = 20;
  p.workload.num_requests = 15;
  p.delay_kind = net::DelayModelKind::kSpiky;
  p.seed = 19;
  sim::Scenario s(p);
  algorithms::OlOptions opt;
  algorithms::OnlineCachingAlgorithm algo("OL_GD", s.problem(), &s.demands(),
                                          opt, 3);
  sim::RunResult r = s.simulator().run(algo);
  for (const auto& rec : r.slots) {
    EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
  }
  for (std::size_t i = 0; i < s.problem().num_stations(); ++i) {
    EXPECT_TRUE(std::isfinite(algo.bandit().theta(i)));
    EXPECT_GE(algo.bandit().theta(i), 0.0);
  }
}

TEST(EdgeCases, Ar1DelayScenarioRuns) {
  sim::ScenarioParams p;
  p.num_stations = 12;
  p.horizon = 10;
  p.workload.num_requests = 10;
  p.delay_kind = net::DelayModelKind::kAr1;
  p.seed = 23;
  sim::Scenario s(p);
  algorithms::OlOptions opt;
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt, 1);
  EXPECT_EQ(s.simulator().run(*algo).slots.size(), 10u);
}

TEST(EdgeCases, GanWithMinimalDimensions) {
  gan::InfoRnnGanConfig c;
  c.noise_dim = 1;
  c.num_codes = 1;
  c.hidden = 2;
  c.seq_len = 2;
  c.batch_size = 1;
  gan::InfoRnnGan g(c, 1);
  std::vector<std::vector<double>> series{{0.1, 0.2, 0.3, 0.4, 0.5}};
  EXPECT_NO_THROW(g.train(series, 3));
  double pred = g.predict_next({0.3, 0.4}, 0);
  EXPECT_GE(pred, 0.0);
  EXPECT_LE(pred, 1.0);
}

TEST(EdgeCases, HistoryFreeScenarioStillProvidesTrace) {
  sim::ScenarioParams p;
  p.num_stations = 10;
  p.horizon = 5;
  p.history_horizon = 0;  // degenerate: no past period
  p.workload.num_requests = 8;
  p.seed = 31;
  sim::Scenario s(p);
  EXPECT_GE(s.trace().rows().size(), 1u);
  EXPECT_EQ(s.trace().horizon(), 1u);
}

TEST(EdgeCases, PerSlotCoinVariantRuns) {
  sim::ScenarioParams p;
  p.num_stations = 12;
  p.horizon = 12;
  p.workload.num_requests = 10;
  p.seed = 37;
  sim::Scenario s(p);
  algorithms::OlOptions opt;
  opt.per_slot_coin = true;
  opt.epsilon = core::EpsilonSchedule::fixed(0.5);
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt, 1);
  sim::RunResult r = s.simulator().run(*algo);
  EXPECT_EQ(r.slots.size(), 12u);
}

TEST(EdgeCases, FlatPriorVariantRuns) {
  sim::ScenarioParams p;
  p.num_stations = 12;
  p.horizon = 8;
  p.workload.num_requests = 10;
  p.seed = 41;
  sim::Scenario s(p);
  algorithms::OlOptions opt;
  opt.tier_priors = false;
  opt.theta_prior = s.theta_prior();
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt, 1);
  EXPECT_EQ(s.simulator().run(*algo).slots.size(), 8u);
}

// ---------------------------------------------------------------------
// Fault injection (DESIGN.md §9): deterministic plans, graceful
// degradation mid-run, post-outage recovery.
// ---------------------------------------------------------------------

/// Churn aggressive enough that a 40-slot, ~15-station run sees real
/// outages (the library defaults are tuned for 100x100 runs).
fault::FaultOptions aggressive_churn() {
  fault::FaultOptions f;
  f.mode = fault::FaultMode::kChurn;
  f.macro = {40.0, 3.0};
  f.micro = {20.0, 4.0};
  f.femto = {10.0, 5.0};
  return f;
}

sim::ScenarioParams churn_params(std::uint64_t seed) {
  sim::ScenarioParams p;
  p.num_stations = 15;
  p.horizon = 40;
  p.workload.num_requests = 12;
  p.seed = seed;
  p.fault = aggressive_churn();
  return p;
}

TEST(FaultInjection, PlanIsDeterministic) {
  common::Rng rng(43);
  net::GtItmParams gp;
  gp.num_stations = 12;
  net::Topology topo = net::generate_gtitm_like(gp, rng);
  fault::FaultOptions f = aggressive_churn();
  fault::FaultPlan a = fault::FaultPlan::generate(topo, 50, f, 7);
  fault::FaultPlan b = fault::FaultPlan::generate(topo, 50, f, 7);
  ASSERT_EQ(a.horizon(), b.horizon());
  for (std::size_t t = 0; t < a.horizon(); ++t) {
    EXPECT_EQ(a.slot(t).station_up, b.slot(t).station_up);
    EXPECT_EQ(a.slot(t).capacity_factor, b.slot(t).capacity_factor);
    EXPECT_EQ(a.slot(t).feedback_lost, b.slot(t).feedback_lost);
    EXPECT_EQ(a.slot(t).cluster_multiplier, b.slot(t).cluster_multiplier);
  }
  EXPECT_GT(a.total_outage_slots(), 0u);
}

TEST(FaultInjection, PlanKeepsOneStationUpEvenUnderBrutalChurn) {
  common::Rng rng(44);
  net::GtItmParams gp;
  gp.num_stations = 8;
  net::Topology topo = net::generate_gtitm_like(gp, rng);
  fault::FaultOptions f;
  f.mode = fault::FaultMode::kChurn;
  f.macro = f.micro = f.femto = {1.0, 50.0};  // nearly always down
  fault::FaultPlan plan = fault::FaultPlan::generate(topo, 60, f, 11);
  EXPECT_LT(plan.availability(), 0.5);
  for (std::size_t t = 0; t < plan.horizon(); ++t) {
    bool any_up = false;
    for (char c : plan.slot(t).station_up) any_up |= (c != 0);
    EXPECT_TRUE(any_up) << "slot " << t << " lost every station";
  }
}

TEST(FaultInjection, PlanRespectsFaultWindow) {
  common::Rng rng(45);
  net::GtItmParams gp;
  gp.num_stations = 10;
  net::Topology topo = net::generate_gtitm_like(gp, rng);
  fault::FaultOptions f = aggressive_churn();
  f.feedback_loss_probability = 0.5;
  f.first_fault_slot = 10;
  f.last_fault_slot = 19;
  fault::FaultPlan plan = fault::FaultPlan::generate(topo, 40, f, 13);
  for (std::size_t t = 0; t < 40; ++t) {
    if (t >= 10 && t <= 19) continue;
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_NE(plan.slot(t).station_up[i], 0) << "outage outside window";
      EXPECT_EQ(plan.slot(t).feedback_lost[i], 0) << "censoring outside window";
    }
  }
}

TEST(FaultInjection, ChurnRunSurvivesWithPartialShedding) {
  sim::Scenario s(churn_params(101));
  ASSERT_NE(s.fault_injector(), nullptr);
  EXPECT_GT(s.fault_injector()->plan().total_outage_slots(), 0u);

  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                     s.algorithm_seed(0));
  sim::RunResult r = s.simulator().run(*algo);
  ASSERT_EQ(r.slots.size(), 40u);
  std::size_t outage_slots = 0, shed = 0;
  for (const auto& rec : r.slots) {
    EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
    outage_slots += rec.fault_active_outages > 0 ? 1 : 0;
    shed += rec.fault_shed_requests;
  }
  EXPECT_GT(outage_slots, 0u);
  // Admission control must never shed the whole workload.
  EXPECT_LT(shed, 12u * 40u);
  // Effective capacities are restored after the run.
  for (std::size_t i = 0; i < s.problem().num_stations(); ++i) {
    EXPECT_DOUBLE_EQ(s.problem().station_capacity_mhz(i),
                     s.topology().station(i).capacity_mhz);
  }
}

TEST(FaultInjection, PostOutageDelayRecovers) {
  // A churn run whose fault window closes mid-horizon must return to
  // within 5% of its no-fault twin's delay over the fault-free tail
  // (same topology / workload / delay sample paths by construction).
  sim::ScenarioParams off = churn_params(202);
  off.horizon = 48;
  off.fault.mode = fault::FaultMode::kOff;
  sim::ScenarioParams churn = churn_params(202);
  churn.horizon = 48;
  churn.fault.last_fault_slot = 24;

  auto run_olgd = [](const sim::ScenarioParams& p) {
    sim::Scenario s(p);
    algorithms::OlOptions opt;
    opt.theta_prior = s.theta_prior();
    auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                       s.algorithm_seed(0));
    return s.simulator().run(*algo);
  };
  sim::RunResult base = run_olgd(off);
  sim::RunResult faulted = run_olgd(churn);

  // The fault window really bit (outages happened)...
  std::size_t outages = 0;
  for (const auto& rec : faulted.slots) outages += rec.fault_active_outages;
  EXPECT_GT(outages, 0u);
  // ...and the tail after it is clean and recovered.
  for (std::size_t t = 25; t < faulted.slots.size(); ++t) {
    EXPECT_EQ(faulted.slots[t].fault_active_outages, 0u);
  }
  const double base_tail = base.tail_mean_delay_ms(8);
  const double fault_tail = faulted.tail_mean_delay_ms(8);
  EXPECT_NEAR(fault_tail, base_tail, 0.05 * base_tail)
      << "post-outage delay did not recover";
}

TEST(FaultInjection, FullyCensoredFeedbackTolerated) {
  // Every d_i(t) observation lost for the whole run: the bandit must
  // simply keep its priors (finite thetas), not corrupt or crash.
  sim::ScenarioParams p = churn_params(303);
  p.fault.macro = p.fault.micro = p.fault.femto = {0.0, 0.0};  // no outages
  p.fault.derate_probability = 0.0;
  p.fault.flash_crowd_probability = 0.0;
  p.fault.feedback_loss_probability = 1.0;
  sim::Scenario s(p);
  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  algorithms::OnlineCachingAlgorithm algo("OL_GD", s.problem(), &s.demands(),
                                          opt, s.algorithm_seed(0));
  sim::RunResult r = s.simulator().run(algo);
  std::size_t censored = 0;
  for (const auto& rec : r.slots) {
    EXPECT_TRUE(std::isfinite(rec.avg_delay_ms));
    censored += rec.fault_censored_feedback;
  }
  EXPECT_EQ(censored, 15u * 40u);  // every station, every slot
  for (std::size_t i = 0; i < s.problem().num_stations(); ++i) {
    EXPECT_TRUE(std::isfinite(algo.bandit().theta(i)));
  }
}

TEST(FaultInjection, RegretStaysBoundedUnderChurn) {
  sim::ScenarioParams p = churn_params(404);
  p.track_regret = true;
  sim::Scenario s(p);
  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                     s.algorithm_seed(0));
  sim::RunResult r = s.simulator().run(*algo);
  ASSERT_EQ(r.cumulative_regret.size(), 40u);
  for (std::size_t t = 0; t < r.cumulative_regret.size(); ++t) {
    EXPECT_TRUE(std::isfinite(r.cumulative_regret[t]));
  }
  // Mean per-slot regret stays below the largest possible per-slot gap
  // (the delay range plus the outage surcharge is a loose cap; what this
  // really guards is regret blowing up when the oracle degrades too).
  const double per_slot = r.cumulative_regret.back() / 40.0;
  EXPECT_LT(per_slot, s.d_max() * p.fault.outage_penalty_factor);
}

TEST(FaultInjection, DegradedSolveKeepsAssignmentsComplete) {
  // On a capacity-short instance solve() stays loud (Infeasible), while
  // solve_degraded() reports the shortfall and still returns a complete
  // assignment (sum_i x_li = 1 for every request).
  sim::ScenarioParams p;
  p.num_stations = 10;
  p.horizon = 3;
  p.workload.num_requests = 6;
  p.seed = 606;
  sim::Scenario s(p);
  core::FractionalSolver solver(s.problem());
  std::vector<double> demands(6, 1e7);
  std::vector<double> theta(10, s.theta_prior());
  EXPECT_THROW(solver.solve(demands, theta), common::Infeasible);

  core::SolveReport report;
  core::FractionalSolution sol = solver.solve_degraded(demands, theta, &report);
  EXPECT_TRUE(report.degraded);
  EXPECT_GT(report.unrouted_mhz, 0.0);
  for (std::size_t l = 0; l < 6; ++l) {
    double sum = 0.0;
    for (double v : sol.x[l]) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(FaultInjection, FaultRunsBitwiseIdenticalAcrossWorkers) {
  // Replicated churn runs must merge to identical doubles whether the
  // bodies run sequentially or on a pool: the plan is pre-materialised
  // from the scenario seed, so worker scheduling can't perturb it.
  auto run_reps = [](const char* workers) {
    setenv("MECSC_WORKERS", workers, 1);
    std::vector<double> out;
    sim::run_replications(
        3,
        [](std::size_t rep) {
          sim::Scenario s(churn_params(900 + rep));
          algorithms::OlOptions opt;
          opt.theta_prior = s.theta_prior();
          auto algo = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                             s.algorithm_seed(0));
          sim::RunResult r = s.simulator().run(*algo);
          double shed = 0.0;
          for (const auto& rec : r.slots) {
            shed += static_cast<double>(rec.fault_shed_requests);
          }
          return std::pair<double, double>(r.mean_delay_ms(), shed);
        },
        [&](std::size_t, std::pair<double, double>& v) {
          out.push_back(v.first);
          out.push_back(v.second);
        });
    unsetenv("MECSC_WORKERS");
    return out;
  };
  std::vector<double> seq = run_reps("1");
  std::vector<double> par = run_reps("3");
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], par[i]) << "value " << i << " diverged under parallelism";
  }
}

}  // namespace
}  // namespace mecsc
