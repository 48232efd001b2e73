#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"

namespace mecsc::workload {

namespace {

const char* kServiceNames[] = {
    "vr-rendering", "cloud-gaming",  "iot-analytics", "video-transcode",
    "ar-overlay",   "speech-to-text", "object-detect", "map-matching",
    "recommender",  "health-monitor",
};

// (implementation of workload::nearest_home_station lives below)
std::size_t pick_home_station(const net::Topology& topo, double x, double y) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  std::size_t best_covering = topo.num_stations();
  double best_cover_dist = std::numeric_limits<double>::infinity();
  for (const auto& bs : topo.stations()) {
    double dx = x - bs.x_m;
    double dy = y - bs.y_m;
    double d = std::sqrt(dx * dx + dy * dy);
    if (d < best_dist) {
      best_dist = d;
      best = bs.id;
    }
    if (d <= bs.radius_m && d < best_cover_dist) {
      best_cover_dist = d;
      best_covering = bs.id;
    }
  }
  return best_covering < topo.num_stations() ? best_covering : best;
}

}  // namespace

std::size_t nearest_home_station(const net::Topology& topology, double x, double y) {
  return pick_home_station(topology, x, y);
}

Workload make_workload(const net::Topology& topology, const WorkloadParams& params,
                       common::Rng& rng, bool bursty) {
  MECSC_CHECK_MSG(params.num_services > 0, "need at least one service");
  MECSC_CHECK_MSG(params.num_requests > 0, "need at least one request");
  MECSC_CHECK_MSG(params.num_clusters > 0, "need at least one cluster");
  MECSC_CHECK_MSG(topology.num_stations() > 0, "empty topology");

  Workload w;
  w.services.reserve(params.num_services);
  constexpr std::size_t kNumNames = sizeof(kServiceNames) / sizeof(kServiceNames[0]);
  for (std::size_t k = 0; k < params.num_services; ++k) {
    Service s;
    s.id = k;
    s.name = std::string(kServiceNames[k % kNumNames]);
    if (k >= kNumNames) s.name += "-" + std::to_string(k / kNumNames);
    s.base_instantiation_ms =
        rng.uniform(params.service_inst_lo_ms, params.service_inst_hi_ms);
    w.services.push_back(std::move(s));
  }

  // Hotspot clusters centred on random stations.
  std::vector<std::pair<double, double>> centers;
  centers.reserve(params.num_clusters);
  for (std::size_t c = 0; c < params.num_clusters; ++c) {
    const auto& bs = topology.station(rng.index(topology.num_stations()));
    centers.emplace_back(bs.x_m, bs.y_m);
  }
  w.cluster_centers = centers;

  if (bursty) {
    w.events = std::make_shared<EventSchedule>(
        params.num_clusters, params.horizon, params.event_prob,
        params.event_duration, params.event_boost, rng);
  }

  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  w.requests.reserve(params.num_requests);
  w.processes.reserve(params.num_requests);
  for (std::size_t l = 0; l < params.num_requests; ++l) {
    Request r;
    r.id = l;
    r.service_id = rng.index(params.num_services);
    r.location_cluster = rng.index(params.num_clusters);
    r.group_tag = rng.index(std::max<std::size_t>(params.num_groups, 1));
    const auto& [cx, cy] = centers[r.location_cluster];
    r.x_m = cx + rng.normal(0.0, 40.0);
    r.y_m = cy + rng.normal(0.0, 40.0);
    r.home_station = pick_home_station(topology, r.x_m, r.y_m);
    r.basic_demand = rng.uniform(params.basic_demand_lo, params.basic_demand_hi);
    w.requests.push_back(r);

    if (!bursty) {
      w.processes.push_back(std::make_unique<ConstantDemand>());
      continue;
    }
    // Users of the same cluster share the diurnal phase (same hotspot
    // peaks together — "users in the same location may have similar
    // distributions of their data volumes", §V.A).
    double phase = kTwoPi * static_cast<double>(r.location_cluster) /
                   static_cast<double>(params.num_clusters);
    auto diurnal = std::make_unique<DiurnalDemand>(
        params.diurnal_amplitude, params.diurnal_period, phase,
        params.diurnal_noise);
    auto burst = std::make_unique<OnOffBurstDemand>(
        params.burst_p_on, params.burst_p_off, params.burst_scale,
        params.burst_shape, params.burst_cap);
    auto composite = std::make_unique<CompositeDemand>(
        std::move(diurnal), std::move(burst), w.events, r.location_cluster);
    w.processes.push_back(std::make_unique<CappedDemand>(
        std::move(composite), r.basic_demand, params.demand_cap));
  }
  return w;
}

Trace::Trace(std::vector<TraceRow> rows, std::size_t num_clusters,
             std::size_t horizon)
    : rows_(std::move(rows)), num_clusters_(num_clusters), horizon_(horizon) {
  MECSC_CHECK_MSG(num_clusters_ > 0, "trace needs at least one cluster");
  MECSC_CHECK_MSG(horizon_ > 0, "trace needs a positive horizon");
  for (const auto& r : rows_) {
    MECSC_CHECK_MSG(r.cluster < num_clusters_, "trace row cluster out of range");
    MECSC_CHECK_MSG(r.slot < horizon_, "trace row slot out of range");
  }
}

std::vector<double> Trace::one_hot(std::size_t cluster) const {
  MECSC_CHECK(cluster < num_clusters_);
  std::vector<double> v(num_clusters_, 0.0);
  v[cluster] = 1.0;
  return v;
}

std::vector<double> Trace::cluster_series(std::size_t cluster) const {
  MECSC_CHECK(cluster < num_clusters_);
  std::vector<double> sum(horizon_, 0.0);
  std::vector<std::size_t> count(horizon_, 0);
  for (const auto& r : rows_) {
    if (r.cluster != cluster) continue;
    sum[r.slot] += r.demand;
    ++count[r.slot];
  }
  fill_gaps(sum, count);
  return sum;
}

void Trace::fill_gaps(std::vector<double>& sum,
                      const std::vector<std::size_t>& count) {
  // A slot with no sampled row is *unobserved*, not zero-demand: the
  // small-sample regime drops rows at random. Hold the last observation
  // across gaps (and backfill leading gaps with the first one) so the
  // series stays in the demand distribution.
  double last = -1.0;
  for (std::size_t t = 0; t < sum.size(); ++t) {
    if (count[t] > 0) {
      sum[t] /= static_cast<double>(count[t]);
      last = sum[t];
    } else if (last >= 0.0) {
      sum[t] = last;  // forward-fill
    }
  }
  if (last < 0.0) return;  // never observed: all zeros
  std::size_t first = 0;
  while (count[first] == 0) ++first;
  for (std::size_t t = 0; t < first; ++t) sum[t] = sum[first];
}

std::vector<double> Trace::user_series(std::size_t user) const {
  std::vector<double> sum(horizon_, 0.0);
  std::vector<std::size_t> count(horizon_, 0);
  for (const auto& r : rows_) {
    if (r.user != user) continue;
    sum[r.slot] += r.demand;
    ++count[r.slot];
  }
  fill_gaps(sum, count);
  return sum;
}

Trace Trace::from_demands(const std::vector<Request>& requests,
                          const DemandMatrix& demands, std::size_t num_clusters,
                          double sample_fraction, common::Rng& rng) {
  MECSC_CHECK_MSG(requests.size() == demands.num_requests(),
                  "requests / demand matrix size mismatch");
  MECSC_CHECK_MSG(sample_fraction > 0.0 && sample_fraction <= 1.0,
                  "sample fraction out of (0,1]");
  std::vector<TraceRow> rows;
  for (std::size_t l = 0; l < requests.size(); ++l) {
    for (std::size_t t = 0; t < demands.horizon(); ++t) {
      if (!rng.bernoulli(sample_fraction)) continue;
      rows.push_back(TraceRow{l, requests[l].location_cluster, t, demands.at(l, t)});
    }
  }
  // Guarantee at least one row so downstream consumers have data even at
  // tiny sample fractions.
  if (rows.empty()) {
    rows.push_back(TraceRow{0, requests[0].location_cluster, 0, demands.at(0, 0)});
  }
  return Trace(std::move(rows), num_clusters, demands.horizon());
}

}  // namespace mecsc::workload
