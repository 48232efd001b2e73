#ifndef MECSC_WORKLOAD_TRACE_H
#define MECSC_WORKLOAD_TRACE_H

#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "workload/demand_model.h"
#include "workload/request.h"
#include "workload/service.h"

namespace mecsc::workload {

/// Parameters of a generated workload.
struct WorkloadParams {
  std::size_t num_services = 10;
  std::size_t num_requests = 100;
  /// Number of location clusters ("hotspots"). The GAN's latent code is
  /// the one-hot encoding of the cluster id (paper §V.B preprocesses
  /// locations with one-hot encoding).
  std::size_t num_clusters = 8;
  std::size_t num_groups = 4;

  double basic_demand_lo = 5.0;    // data units per slot
  double basic_demand_hi = 20.0;
  double service_inst_lo_ms = 20.0;  // base instantiation delay range
  double service_inst_hi_ms = 60.0;

  // On/off Pareto burst component.
  double burst_p_on = 0.08;
  double burst_p_off = 0.35;
  double burst_scale = 6.0;
  double burst_shape = 1.6;
  double burst_cap = 50.0;

  // Diurnal component (24-slot "day").
  double diurnal_amplitude = 8.0;
  double diurnal_period = 24.0;
  double diurnal_noise = 1.0;

  // Cluster-level events (hotspot-wide bursts, the paper's motivating
  // "sudden event" scenario).
  double event_prob = 0.08;
  std::size_t event_duration = 4;
  double event_boost = 3.0;
  /// Hard cap on any request's total per-slot demand, keeping even
  /// event × burst coincidences inside the largest station's capacity
  /// (demand_cap · C_unit must stay below the macro capacity floor).
  double demand_cap = 130.0;

  /// Horizon used to size the shared event schedule.
  std::size_t horizon = 100;
};

/// A complete generated workload: services, requests (with hidden
/// features), the shared event schedule, and one demand process per
/// request. `processes` are stateful; realising a matrix consumes them.
struct Workload {
  std::vector<Service> services;
  std::vector<Request> requests;
  std::shared_ptr<EventSchedule> events;
  std::vector<std::unique_ptr<DemandProcess>> processes;
  /// Hotspot cluster centres (x, y), index-aligned with cluster ids —
  /// the anchors the mobility model moves users between.
  std::vector<std::pair<double, double>> cluster_centers;
};

/// The station a user at (x, y) registers with: the nearest station
/// whose coverage disk contains the point, or the nearest station
/// overall when none covers it.
std::size_t nearest_home_station(const net::Topology& topology, double x, double y);

/// Builds a workload on top of a topology: hotspot clusters are centred
/// on random stations, users scatter around their cluster centre, each
/// user's home station is the nearest covering station (nearest station
/// overall if none covers), and each request demands one of the
/// services. With `bursty == false` every process is ConstantDemand
/// (the "given demands" regime of Figs. 3-5).
Workload make_workload(const net::Topology& topology, const WorkloadParams& params,
                       common::Rng& rng, bool bursty);

/// A small-sample historical trace in the shape of the NYC Wi-Fi hotspot
/// dataset the paper samples: rows of (user, location cluster, slot,
/// observed demand). This is the GAN/ARMA training input.
struct TraceRow {
  std::size_t user = 0;
  std::size_t cluster = 0;
  std::size_t slot = 0;
  double demand = 0.0;
};

class Trace {
 public:
  Trace(std::vector<TraceRow> rows, std::size_t num_clusters, std::size_t horizon);

  const std::vector<TraceRow>& rows() const noexcept { return rows_; }
  std::size_t num_clusters() const noexcept { return num_clusters_; }
  std::size_t horizon() const noexcept { return horizon_; }

  /// One-hot encoding of a cluster id (length == num_clusters).
  std::vector<double> one_hot(std::size_t cluster) const;

  /// Mean observed demand per slot for one cluster — a per-hotspot time
  /// series the predictors can learn from. Unobserved slots are
  /// forward-filled from the last observation (leading gaps backfilled):
  /// a missing sample is not zero demand.
  std::vector<double> cluster_series(std::size_t cluster) const;

  /// Observed demand per slot for one user, gap-filled the same way —
  /// the per-request training series of the GAN predictor.
  std::vector<double> user_series(std::size_t user) const;

  /// Builds a trace from realised demands; `sample_fraction` < 1 keeps a
  /// random subset of rows, reproducing the paper's small-sample regime.
  static Trace from_demands(const std::vector<Request>& requests,
                            const DemandMatrix& demands, std::size_t num_clusters,
                            double sample_fraction, common::Rng& rng);

 private:
  /// Converts per-slot sums+counts into a gap-filled mean series.
  static void fill_gaps(std::vector<double>& sum,
                        const std::vector<std::size_t>& count);

  std::vector<TraceRow> rows_;
  std::size_t num_clusters_;
  std::size_t horizon_;
};

}  // namespace mecsc::workload

#endif  // MECSC_WORKLOAD_TRACE_H
