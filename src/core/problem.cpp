#include "core/problem.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "net/wireless.h"

namespace mecsc::core {

CachingProblem::CachingProblem(const net::Topology* topology,
                               std::vector<workload::Service> services,
                               std::vector<workload::Request> requests,
                               ProblemOptions options, common::Rng& rng)
    : topology_(topology),
      services_(std::move(services)),
      requests_(std::move(requests)),
      options_(options) {
  MECSC_CHECK_MSG(topology_ != nullptr, "null topology");
  MECSC_CHECK_MSG(!services_.empty(), "need at least one service");
  MECSC_CHECK_MSG(!requests_.empty(), "need at least one request");
  MECSC_CHECK_MSG(options_.c_unit_mhz > 0.0, "C_unit must be > 0");
  MECSC_CHECK_MSG(options_.inst_factor_lo > 0.0 &&
                      options_.inst_factor_lo <= options_.inst_factor_hi,
                  "bad instantiation factor range");
  for (const auto& r : requests_) {
    MECSC_CHECK_MSG(r.service_id < services_.size(), "request references unknown service");
    MECSC_CHECK_MSG(r.home_station < topology_->num_stations(),
                    "request home station out of range");
  }
  inst_factor_.reserve(topology_->num_stations());
  for (const auto& bs : topology_->stations()) {
    double lo = options_.inst_factor_lo;
    double hi = options_.inst_factor_hi;
    // Macro cloudlets instantiate fastest, femto slowest.
    switch (bs.tier) {
      case net::Tier::kMacro: hi = lo + 0.25 * (hi - lo); break;
      case net::Tier::kMicro: lo += 0.25 * (hi - lo); hi -= 0.25 * (hi - lo); break;
      case net::Tier::kFemto: lo += 0.5 * (hi - lo); break;
    }
    inst_factor_.push_back(rng.uniform(lo, hi));
  }

  reset_station_capacities();
  recompute_wireless_terms();
}

void CachingProblem::set_station_capacities(const std::vector<double>& capacities) {
  MECSC_CHECK_MSG(capacities.size() == topology_->num_stations(),
                  "capacity vector size mismatch");
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    MECSC_CHECK_MSG(capacities[i] >= 0.0 &&
                        capacities[i] <= topology_->station(i).capacity_mhz + 1e-9,
                    "effective capacity outside [0, static capacity]");
  }
  effective_capacity_ = capacities;
}

void CachingProblem::reset_station_capacities() {
  effective_capacity_.resize(topology_->num_stations());
  for (std::size_t i = 0; i < effective_capacity_.size(); ++i) {
    effective_capacity_[i] = topology_->station(i).capacity_mhz;
  }
}

void CachingProblem::recompute_wireless_terms() {
  // Wireless hop: per-request ms-per-data-unit over the air to the home
  // station, with the home station's bandwidth shared evenly among the
  // users registered there.
  tx_unit_ms_.assign(requests_.size(), 0.0);
  if (!options_.include_wireless_delay) return;
  std::vector<std::size_t> homed(topology_->num_stations(), 0);
  for (const auto& r : requests_) ++homed[r.home_station];
  net::WirelessModel wireless;
  for (std::size_t l = 0; l < requests_.size(); ++l) {
    const auto& r = requests_[l];
    const auto& bs = topology_->station(r.home_station);
    double dx = r.x_m - bs.x_m;
    double dy = r.y_m - bs.y_m;
    double dist = std::sqrt(dx * dx + dy * dy);
    double share =
        1.0 / static_cast<double>(std::max<std::size_t>(homed[r.home_station], 1));
    tx_unit_ms_[l] = wireless.transmission_delay_ms(bs, dist, 1.0, share);
  }
}

void CachingProblem::update_user_locations(
    const std::vector<workload::Request>& moved) {
  MECSC_CHECK_MSG(moved.size() == requests_.size(),
                  "moved-user vector size mismatch");
  for (std::size_t l = 0; l < requests_.size(); ++l) {
    MECSC_CHECK_MSG(moved[l].id == requests_[l].id &&
                        moved[l].service_id == requests_[l].service_id,
                    "mobility must not change request identity");
    MECSC_CHECK_MSG(moved[l].home_station < topology_->num_stations(),
                    "moved home station out of range");
    requests_[l].x_m = moved[l].x_m;
    requests_[l].y_m = moved[l].y_m;
    requests_[l].home_station = moved[l].home_station;
    requests_[l].location_cluster = moved[l].location_cluster;
  }
  recompute_wireless_terms();
}

double CachingProblem::instantiation_delay_ms(std::size_t station,
                                              std::size_t service) const {
  MECSC_CHECK(station < inst_factor_.size() && service < services_.size());
  return services_[service].base_instantiation_ms * inst_factor_[station];
}

double CachingProblem::instantiation_delay_spread() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t i = 0; i < inst_factor_.size(); ++i) {
    for (std::size_t k = 0; k < services_.size(); ++k) {
      double d = instantiation_delay_ms(i, k);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
  }
  return hi - lo;
}

double CachingProblem::access_latency_ms(std::size_t request,
                                         std::size_t station) const {
  MECSC_CHECK(request < requests_.size() && station < topology_->num_stations());
  if (!options_.include_access_latency) return 0.0;
  return topology_->path_latency_ms(requests_[request].home_station, station);
}

double CachingProblem::transmission_delay_ms(std::size_t request, double rho) const {
  MECSC_CHECK(request < requests_.size());
  return rho * tx_unit_ms_[request];
}

double CachingProblem::tx_unit_ms(std::size_t request) const {
  MECSC_CHECK(request < requests_.size());
  return tx_unit_ms_[request];
}

double CachingProblem::request_delay_ms(std::size_t request, std::size_t station,
                                        double rho, double unit_delay) const {
  return rho * unit_delay + access_latency_ms(request, station) +
         transmission_delay_ms(request, rho);
}

void CachingProblem::check_capacity_feasible(const std::vector<double>& demands) const {
  MECSC_CHECK_MSG(demands.size() == requests_.size(), "demand vector size mismatch");
  double need = 0.0;
  for (double rho : demands) need += resource_demand_mhz(rho);
  double have = topology_->total_capacity_mhz();
  if (need > have) {
    throw common::Infeasible(
        "total demand " + std::to_string(need) + " MHz exceeds total capacity " +
        std::to_string(have) + " MHz");
  }
  // Every request must also fit in *some* single station.
  double biggest_station = 0.0;
  for (const auto& bs : topology_->stations()) {
    biggest_station = std::max(biggest_station, bs.capacity_mhz);
  }
  for (double rho : demands) {
    if (resource_demand_mhz(rho) > biggest_station) {
      throw common::Infeasible("a single request exceeds every station's capacity");
    }
  }
}

}  // namespace mecsc::core
