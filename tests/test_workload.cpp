// Tests for the workload substrate: bursty demand models, workload
// generation, and the NYC-hotspot-like trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "net/generators.h"
#include "workload/demand_model.h"
#include "workload/mobility.h"
#include "workload/trace.h"

namespace mecsc::workload {
namespace {

net::Topology test_topology(std::uint64_t seed = 3, std::size_t n = 40) {
  common::Rng rng(seed);
  net::GtItmParams p;
  p.num_stations = n;
  return net::generate_gtitm_like(p, rng);
}

TEST(ConstantDemand, AlwaysZero) {
  ConstantDemand d;
  common::Rng rng(1);
  for (std::size_t t = 0; t < 100; ++t) EXPECT_DOUBLE_EQ(d.sample(t, rng), 0.0);
}

TEST(OnOffBurstDemand, NonNegativeAndCapped) {
  OnOffBurstDemand d(0.3, 0.3, 5.0, 1.5, 20.0);
  common::Rng rng(2);
  for (std::size_t t = 0; t < 5000; ++t) {
    double v = d.sample(t, rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 20.0);
  }
}

TEST(OnOffBurstDemand, StationaryOnFractionApproximate) {
  OnOffBurstDemand d(0.2, 0.4, 5.0, 1.5, 50.0);
  EXPECT_NEAR(d.stationary_on(), 1.0 / 3.0, 1e-12);
  common::Rng rng(3);
  int on_slots = 0;
  const int n = 60000;
  for (int t = 0; t < n; ++t) {
    if (d.sample(static_cast<std::size_t>(t), rng) > 0.0) ++on_slots;
  }
  EXPECT_NEAR(static_cast<double>(on_slots) / n, 1.0 / 3.0, 0.02);
}

TEST(OnOffBurstDemand, BurstinessIsCorrelated) {
  // ON runs should be longer than i.i.d. coin flips would produce:
  // expected run length = 1/p_off.
  OnOffBurstDemand d(0.05, 0.2, 5.0, 1.5, 50.0);
  common::Rng rng(5);
  std::vector<bool> on;
  for (int t = 0; t < 50000; ++t) on.push_back(d.sample(t, rng) > 0.0);
  double runs = 0.0;
  double on_total = 0.0;
  for (std::size_t i = 0; i < on.size(); ++i) {
    if (on[i]) {
      ++on_total;
      if (i == 0 || !on[i - 1]) ++runs;
    }
  }
  ASSERT_GT(runs, 0.0);
  EXPECT_NEAR(on_total / runs, 5.0, 1.0);  // 1/p_off = 5 slots per burst
}

TEST(DiurnalDemand, PeriodicPeaksWithoutNoise) {
  DiurnalDemand d(10.0, 24.0, 0.0, 0.0);
  common::Rng rng(7);
  // sin peaks at t = 6 (quarter period), troughs at t = 18.
  double peak = d.sample(6, rng);
  double trough = d.sample(18, rng);
  EXPECT_NEAR(peak, 10.0, 1e-9);
  EXPECT_NEAR(trough, 0.0, 1e-9);
  // Periodicity.
  EXPECT_NEAR(d.sample(6, rng), d.sample(30, rng), 1e-9);
}

TEST(DiurnalDemand, NoiseNeverMakesItNegative) {
  DiurnalDemand d(2.0, 24.0, 0.0, 5.0);
  common::Rng rng(9);
  for (std::size_t t = 0; t < 2000; ++t) EXPECT_GE(d.sample(t, rng), 0.0);
}

TEST(EventSchedule, MultiplierBoundsAndCount) {
  common::Rng rng(11);
  EventSchedule s(4, 200, 0.2, 3, 2.5, rng);
  EXPECT_GT(s.num_events(), 0u);
  bool any_boost = false;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t t = 0; t < 200; ++t) {
      double m = s.multiplier(c, t);
      EXPECT_TRUE(m == 1.0 || m == 2.5);
      if (m > 1.0) any_boost = true;
    }
  }
  EXPECT_TRUE(any_boost);
}

TEST(EventSchedule, EventsLastTheirDuration) {
  common::Rng rng(13);
  EventSchedule s(1, 400, 0.05, 4, 3.0, rng);
  // Count maximal boosted runs; each must span >= 1 and <= horizon slots,
  // and mean run length should be close to the duration (events can
  // overlap, elongating runs).
  std::size_t runs = 0;
  std::size_t boosted = 0;
  for (std::size_t t = 0; t < 400; ++t) {
    bool b = s.multiplier(0, t) > 1.0;
    if (b) {
      ++boosted;
      if (t == 0 || s.multiplier(0, t - 1) == 1.0) ++runs;
    }
  }
  ASSERT_GT(runs, 0u);
  EXPECT_GE(static_cast<double>(boosted) / static_cast<double>(runs), 3.9);
}

TEST(EventSchedule, NoEventsAtZeroProbability) {
  common::Rng rng(15);
  EventSchedule s(3, 100, 0.0, 3, 2.0, rng);
  EXPECT_EQ(s.num_events(), 0u);
}

TEST(DemandMatrix, AccessorsAndBounds) {
  DemandMatrix m(3, 5);
  m.set(1, 2, 7.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.5);
  EXPECT_THROW(m.at(3, 0), std::exception);
  EXPECT_THROW(m.set(0, 5, 1.0), std::exception);
  EXPECT_THROW(m.set(0, 0, -1.0), std::exception);
  auto col = m.slot(2);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[1], 7.5);
  auto row = m.series(1);
  ASSERT_EQ(row.size(), 5u);
  EXPECT_DOUBLE_EQ(row[2], 7.5);
  EXPECT_DOUBLE_EQ(m.max_value(), 7.5);
}

TEST(MakeWorkload, GivenDemandRegimeIsConstant) {
  net::Topology topo = test_topology();
  common::Rng rng(17);
  WorkloadParams p;
  p.num_requests = 25;
  p.num_services = 5;
  Workload w = make_workload(topo, p, rng, /*bursty=*/false);
  ASSERT_EQ(w.requests.size(), 25u);
  ASSERT_EQ(w.processes.size(), 25u);
  ASSERT_EQ(w.services.size(), 5u);
  common::Rng drng(19);
  DemandMatrix m = realize_demands(w.requests, w.processes, 20, drng);
  for (std::size_t l = 0; l < 25; ++l) {
    for (std::size_t t = 0; t < 20; ++t) {
      EXPECT_DOUBLE_EQ(m.at(l, t), w.requests[l].basic_demand);
    }
  }
}

TEST(MakeWorkload, BurstyDemandsExceedBasicSometimes) {
  net::Topology topo = test_topology();
  common::Rng rng(21);
  WorkloadParams p;
  p.num_requests = 30;
  p.horizon = 150;
  Workload w = make_workload(topo, p, rng, /*bursty=*/true);
  common::Rng drng(23);
  DemandMatrix m = realize_demands(w.requests, w.processes, 150, drng);
  std::size_t above_basic = 0;
  for (std::size_t l = 0; l < 30; ++l) {
    for (std::size_t t = 0; t < 150; ++t) {
      EXPECT_GE(m.at(l, t), w.requests[l].basic_demand - 1e-9);
      if (m.at(l, t) > w.requests[l].basic_demand + 1e-9) ++above_basic;
    }
  }
  EXPECT_GT(above_basic, 100u);  // bursts actually happen
}

TEST(MakeWorkload, RequestAttributesValid) {
  net::Topology topo = test_topology();
  common::Rng rng(25);
  WorkloadParams p;
  p.num_requests = 40;
  p.num_services = 6;
  p.num_clusters = 5;
  Workload w = make_workload(topo, p, rng, true);
  for (const auto& r : w.requests) {
    EXPECT_LT(r.service_id, 6u);
    EXPECT_LT(r.location_cluster, 5u);
    EXPECT_LT(r.home_station, topo.num_stations());
    EXPECT_GE(r.basic_demand, p.basic_demand_lo);
    EXPECT_LE(r.basic_demand, p.basic_demand_hi);
  }
  for (const auto& s : w.services) {
    EXPECT_GE(s.base_instantiation_ms, p.service_inst_lo_ms);
    EXPECT_LE(s.base_instantiation_ms, p.service_inst_hi_ms);
    EXPECT_FALSE(s.name.empty());
  }
}

TEST(MakeWorkload, HomeStationIsNearest) {
  net::Topology topo = test_topology();
  common::Rng rng(27);
  WorkloadParams p;
  p.num_requests = 20;
  Workload w = make_workload(topo, p, rng, false);
  for (const auto& r : w.requests) {
    const auto& home = topo.station(r.home_station);
    double dx = r.x_m - home.x_m;
    double dy = r.y_m - home.y_m;
    double home_dist = std::sqrt(dx * dx + dy * dy);
    // If home doesn't cover the user, nothing nearer may either.
    if (home_dist > home.radius_m) {
      for (const auto& bs : topo.stations()) {
        double bx = r.x_m - bs.x_m;
        double by = r.y_m - bs.y_m;
        double d = std::sqrt(bx * bx + by * by);
        EXPECT_GE(d + 1e-9, std::min(home_dist, d));  // trivially true guard
        EXPECT_FALSE(d <= bs.radius_m && d < home_dist - 1e-9)
            << "a nearer covering station exists";
      }
    }
  }
}

TEST(Trace, OneHotEncoding) {
  Trace t({TraceRow{0, 1, 0, 5.0}}, 3, 10);
  auto v = t.one_hot(1);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_THROW(t.one_hot(3), std::exception);
}

TEST(Trace, ClusterSeriesAveragesRows) {
  std::vector<TraceRow> rows{
      {0, 0, 0, 4.0}, {1, 0, 0, 6.0},  // slot 0, cluster 0: mean 5
      {0, 0, 2, 9.0},                  // slot 2
      {2, 1, 1, 3.0},                  // other cluster
  };
  Trace t(std::move(rows), 2, 4);
  auto s = t.cluster_series(0);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 5.0);
  EXPECT_DOUBLE_EQ(s[1], 5.0);  // unobserved slot: forward-filled
  EXPECT_DOUBLE_EQ(s[2], 9.0);
  EXPECT_DOUBLE_EQ(s[3], 9.0);  // trailing gap: forward-filled
  // Cluster 1 observed only at slot 1: leading gap backfilled.
  auto s1 = t.cluster_series(1);
  EXPECT_DOUBLE_EQ(s1[0], 3.0);
  EXPECT_DOUBLE_EQ(s1[1], 3.0);
  auto u = t.user_series(0);
  EXPECT_DOUBLE_EQ(u[0], 4.0);
  EXPECT_DOUBLE_EQ(u[2], 9.0);
}

TEST(Trace, ValidatesRows) {
  EXPECT_THROW(Trace({TraceRow{0, 5, 0, 1.0}}, 2, 10), std::exception);
  EXPECT_THROW(Trace({TraceRow{0, 0, 12, 1.0}}, 2, 10), std::exception);
}

TEST(Trace, FromDemandsSamplingFraction) {
  net::Topology topo = test_topology();
  common::Rng rng(29);
  WorkloadParams p;
  p.num_requests = 20;
  Workload w = make_workload(topo, p, rng, false);
  common::Rng drng(31);
  DemandMatrix m = realize_demands(w.requests, w.processes, 50, drng);
  common::Rng trng(33);
  Trace full = Trace::from_demands(w.requests, m, p.num_clusters, 1.0, trng);
  EXPECT_EQ(full.rows().size(), 20u * 50u);
  common::Rng trng2(35);
  Trace sampled = Trace::from_demands(w.requests, m, p.num_clusters, 0.3, trng2);
  double frac = static_cast<double>(sampled.rows().size()) / (20.0 * 50.0);
  EXPECT_NEAR(frac, 0.3, 0.06);
}

TEST(Trace, FromDemandsNeverEmpty) {
  net::Topology topo = test_topology();
  common::Rng rng(37);
  WorkloadParams p;
  p.num_requests = 1;
  Workload w = make_workload(topo, p, rng, false);
  common::Rng drng(39);
  DemandMatrix m = realize_demands(w.requests, w.processes, 1, drng);
  common::Rng trng(41);
  Trace t = Trace::from_demands(w.requests, m, p.num_clusters, 1e-9, trng);
  EXPECT_GE(t.rows().size(), 1u);
}

TEST(Mobility, RejectsBadParameters) {
  EXPECT_THROW(MobilityModel(MobilityParams{}, {}), std::exception);
  MobilityParams bad;
  bad.relocate_probability = 1.5;
  EXPECT_THROW(MobilityModel(bad, {{0.0, 0.0}}), std::exception);
}

TEST(Mobility, ZeroRatesKeepUsersAlmostStill) {
  net::Topology topo = test_topology();
  common::Rng rng(61);
  WorkloadParams p;
  p.num_requests = 10;
  Workload w = make_workload(topo, p, rng, false);
  MobilityParams mp;
  mp.relocate_probability = 0.0;
  mp.wander_sigma_m = 0.0;
  MobilityModel m(mp, w.cluster_centers);
  auto before = w.requests;
  common::Rng mrng(63);
  m.step(w.requests, topo, mrng);
  for (std::size_t l = 0; l < before.size(); ++l) {
    EXPECT_DOUBLE_EQ(w.requests[l].x_m, before[l].x_m);
    EXPECT_EQ(w.requests[l].location_cluster, before[l].location_cluster);
    EXPECT_EQ(w.requests[l].home_station, before[l].home_station);
  }
}

TEST(Mobility, RelocationChangesClusterAndNeverSelf) {
  net::Topology topo = test_topology();
  common::Rng rng(65);
  WorkloadParams p;
  p.num_requests = 30;
  p.num_clusters = 4;
  Workload w = make_workload(topo, p, rng, false);
  MobilityParams mp;
  mp.relocate_probability = 1.0;  // everyone relocates every slot
  MobilityModel m(mp, w.cluster_centers);
  common::Rng mrng(67);
  for (int step = 0; step < 5; ++step) {
    auto before = w.requests;
    m.step(w.requests, topo, mrng);
    for (std::size_t l = 0; l < before.size(); ++l) {
      EXPECT_NE(w.requests[l].location_cluster, before[l].location_cluster);
      EXPECT_LT(w.requests[l].location_cluster, 4u);
      EXPECT_LT(w.requests[l].home_station, topo.num_stations());
    }
  }
}

TEST(Mobility, UnrollIsReplayable) {
  net::Topology topo = test_topology();
  common::Rng rng(69);
  WorkloadParams p;
  p.num_requests = 8;
  Workload w = make_workload(topo, p, rng, false);
  MobilityModel m(MobilityParams{}, w.cluster_centers);
  common::Rng r1(71);
  common::Rng r2(71);
  auto a = m.unroll(w.requests, topo, 10, r1);
  auto b = m.unroll(w.requests, topo, 10, r2);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t t = 0; t < 10; ++t) {
    for (std::size_t l = 0; l < 8; ++l) {
      EXPECT_DOUBLE_EQ(a[t][l].x_m, b[t][l].x_m);
      EXPECT_EQ(a[t][l].home_station, b[t][l].home_station);
    }
  }
  // Slot 0 is the initial state.
  for (std::size_t l = 0; l < 8; ++l) {
    EXPECT_DOUBLE_EQ(a[0][l].x_m, w.requests[l].x_m);
  }
}

TEST(Mobility, HomeStationFollowsPosition) {
  net::Topology topo = test_topology();
  common::Rng rng(73);
  WorkloadParams p;
  p.num_requests = 20;
  p.num_clusters = 5;
  Workload w = make_workload(topo, p, rng, false);
  MobilityParams mp;
  mp.relocate_probability = 0.5;
  MobilityModel m(mp, w.cluster_centers);
  common::Rng mrng(75);
  m.step(w.requests, topo, mrng);
  for (const auto& u : w.requests) {
    EXPECT_EQ(u.home_station, nearest_home_station(topo, u.x_m, u.y_m));
  }
}

}  // namespace
}  // namespace mecsc::workload
