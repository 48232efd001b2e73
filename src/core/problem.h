#ifndef MECSC_CORE_PROBLEM_H
#define MECSC_CORE_PROBLEM_H

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "workload/request.h"
#include "workload/service.h"

namespace mecsc::core {

/// Tunables of a caching problem instance.
struct ProblemOptions {
  /// Computing resource (MHz) needed per unit of data per slot — the
  /// paper's C_unit. The default puts aggregate demand at a substantial
  /// fraction of aggregate capacity at the paper's default scales
  /// (100 requests on 100 stations), so the low-delay femtocells are
  /// genuinely scarce and the caching/assignment decision matters; the
  /// paper only assumes total capacity exceeds total demand (§III.E).
  double c_unit_mhz = 60.0;
  /// Whether a request served away from its home station also pays the
  /// shortest-path network latency between the two stations. The paper's
  /// formal objective (Eq. 3) omits this term, but its AS1755 experiment
  /// attributes the larger algorithm gap to bottleneck links, so the
  /// default includes it; set to false for the strict-Eq.(3) objective.
  bool include_access_latency = true;
  /// Spread of the per-station instantiation-delay factor: d_ins[i][k] =
  /// base_k * factor_i with factor_i uniform in [lo, hi]. Macro stations
  /// (beefier cloudlets) get the low end.
  double inst_factor_lo = 0.6;  ///< Low end of the factor spread (macro tier).
  double inst_factor_hi = 1.6;  ///< High end of the factor spread (femto tier).
  /// Charge the user -> home-station wireless hop (truncated-Shannon
  /// rate from the §VI.A radio parameters, bandwidth shared among the
  /// users homed at the station). The hop is identical for every
  /// candidate serving station, so it shifts delays without changing
  /// decisions.
  bool include_wireless_delay = true;
};

/// One dynamic-service-caching problem instance (paper §III.E): the MEC
/// network, the services, the requests, the per-(station, service)
/// instantiation delays, and the objective's cost coefficients.
///
/// The instance is immutable after creation except for two explicitly
/// mutable views of per-slot state: user locations (mobility,
/// update_user_locations) and effective station capacities (fault
/// injection, set_station_capacities). Everything else — demands,
/// realised delays, bandit estimates — lives outside.
class CachingProblem {
 public:
  /// Binds the instance to `topology` (non-owning; must outlive the
  /// problem) and draws the per-(station, service) instantiation delays
  /// from `rng`.
  CachingProblem(const net::Topology* topology,
                 std::vector<workload::Service> services,
                 std::vector<workload::Request> requests,
                 ProblemOptions options, common::Rng& rng);

  /// The MEC network the instance lives on.
  const net::Topology& topology() const noexcept { return *topology_; }
  /// The service catalogue (the paper's S).
  const std::vector<workload::Service>& services() const noexcept { return services_; }
  /// The request population (the paper's R).
  const std::vector<workload::Request>& requests() const noexcept { return requests_; }
  /// The options the instance was built with.
  const ProblemOptions& options() const noexcept { return options_; }

  /// |BS|, the number of base stations.
  std::size_t num_stations() const noexcept { return topology_->num_stations(); }
  /// |S|, the number of services.
  std::size_t num_services() const noexcept { return services_.size(); }
  /// |R|, the number of requests.
  std::size_t num_requests() const noexcept { return requests_.size(); }

  /// Instantiation delay d_ins[i][k] (ms) of caching service k at
  /// station i.
  double instantiation_delay_ms(std::size_t station, std::size_t service) const;

  /// Largest minus smallest instantiation delay (Lemma 1's Δ_ins).
  double instantiation_delay_spread() const;

  /// Network-access latency (ms) request l pays when served at station i
  /// (0 when `include_access_latency` is off or i is l's home).
  double access_latency_ms(std::size_t request, std::size_t station) const;

  /// Wireless transmission delay (ms) of moving `rho` data units from
  /// request l's user to its home station (0 when the wireless hop is
  /// disabled).
  double transmission_delay_ms(std::size_t request, double rho) const;

  /// Per-unit wireless transmission time of request l (ms per data
  /// unit) — the LP folds this into the x-coefficients.
  double tx_unit_ms(std::size_t request) const;

  /// Full delay of serving request l with demand rho at station i whose
  /// per-unit delay is `unit_delay`: rho * unit_delay + access latency
  /// + wireless hop. (Instantiation delay is accounted per cached
  /// (service, station) pair, not per request.)
  double request_delay_ms(std::size_t request, std::size_t station, double rho,
                          double unit_delay) const;

  /// Computing resource demand (MHz) of request l at demand rho.
  double resource_demand_mhz(double rho) const { return rho * options_.c_unit_mhz; }

  /// Verifies the paper's standing assumption that total capacity covers
  /// total demand for the given per-request demands; throws Infeasible
  /// otherwise.
  void check_capacity_feasible(const std::vector<double>& demands) const;

  /// Effective (fault-adjusted) capacity of station i for the current
  /// slot. Equals the topology's static capacity until a fault injector
  /// installs a derated view; solvers and baselines must read this, not
  /// topology().station(i).capacity_mhz, so degraded slots are honoured.
  double station_capacity_mhz(std::size_t station) const {
    return effective_capacity_[station];
  }

  /// Whether station i currently has any serving capacity (false during
  /// an injected outage).
  bool station_up(std::size_t station) const {
    return effective_capacity_[station] > 0.0;
  }

  /// Installs a per-slot effective-capacity view (fault injection:
  /// outages set a station to 0, derating scales it down). Sizes must
  /// match num_stations(); values must be in [0, static capacity].
  void set_station_capacities(const std::vector<double>& capacities);

  /// Restores the static topology capacities.
  void reset_station_capacities();

  /// Mobility support: replaces the requests' positions, clusters and
  /// home stations (service ids, ids and basic demands must be
  /// unchanged) and recomputes the wireless per-unit terms. Algorithms
  /// holding a reference to this problem observe the move on their next
  /// decide(); the simulator applies the slot's user states before each
  /// decision.
  void update_user_locations(const std::vector<workload::Request>& moved);

 private:
  void recompute_wireless_terms();

  const net::Topology* topology_;  // non-owning; outlives the problem
  std::vector<workload::Service> services_;
  std::vector<workload::Request> requests_;
  ProblemOptions options_;
  std::vector<double> inst_factor_;  // per station
  std::vector<double> tx_unit_ms_;   // per request, wireless ms per data unit
  std::vector<double> effective_capacity_;  // per station, fault-adjusted MHz
};

/// A fractional solution to the per-slot LP relaxation: x[l][i] in [0,1]
/// (assignment fractions), y[k][i] in [0,1] (caching fractions), and the
/// objective value (average per-request delay, ms).
struct FractionalSolution {
  std::vector<std::vector<double>> x;  ///< x[l][i]: fraction of request l at station i.
  std::vector<std::vector<double>> y;  ///< y[k][i]: cached fraction of service k at station i.
  double objective = 0.0;  ///< Eq. 3 value: average per-request delay (ms).
};

}  // namespace mecsc::core

#endif  // MECSC_CORE_PROBLEM_H
