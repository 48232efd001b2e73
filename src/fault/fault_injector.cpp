#include "fault/fault_injector.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace mecsc::fault {

FaultInjector::FaultInjector(core::CachingProblem& problem, FaultPlan plan)
    : problem_(&problem), plan_(std::move(plan)) {
  MECSC_CHECK_MSG(!plan_.empty(), "empty fault plan");
  MECSC_CHECK_MSG(plan_.slot(0).station_up.size() == problem.num_stations(),
                  "fault plan / problem station count mismatch");
  shed_requests_.assign(plan_.horizon(), 0);
  shed_penalty_ms_.assign(plan_.horizon(), 0.0);
  state_.outage_penalty_factor = plan_.options().outage_penalty_factor;
}

void FaultInjector::apply_to_demands(workload::DemandMatrix& demands) {
  MECSC_CHECK_MSG(!demands_applied_, "apply_to_demands called twice");
  demands_applied_ = true;
  const core::CachingProblem& p = *problem_;
  const std::size_t nr = p.num_requests();
  const std::size_t ns = p.num_stations();
  MECSC_CHECK_MSG(demands.num_requests() == nr,
                  "demand matrix / problem size mismatch");
  const std::size_t horizon = std::min(plan_.horizon(), demands.horizon());
  const FaultOptions& opt = plan_.options();

  std::size_t num_clusters = 0;
  for (const auto& r : p.requests()) {
    num_clusters = std::max(num_clusters, r.location_cluster + 1);
  }

  std::vector<std::size_t> order(nr);
  for (std::size_t t = 0; t < horizon; ++t) {
    const SlotFaults& sf = plan_.slot(t);

    // 1. Flash crowds: amplify the affected clusters' demand.
    for (std::size_t j = 0; j + 1 < sf.cluster_multiplier.size(); j += 2) {
      std::size_t cluster =
          static_cast<std::size_t>(sf.cluster_multiplier[j]) % num_clusters;
      double mult = sf.cluster_multiplier[j + 1];
      for (std::size_t l = 0; l < nr; ++l) {
        if (p.requests()[l].location_cluster == cluster) {
          demands.set(l, t, demands.at(l, t) * mult);
        }
      }
    }

    // 2. Admission control against the surviving (derated) capacity.
    double up_capacity = 0.0;
    double biggest_up = 0.0;
    for (std::size_t i = 0; i < ns; ++i) {
      double cap =
          p.topology().station(i).capacity_mhz * sf.capacity_factor[i];
      up_capacity += cap;
      biggest_up = std::max(biggest_up, cap);
    }
    const double budget = opt.admission_margin * up_capacity;
    double need = 0.0;
    for (std::size_t l = 0; l < nr; ++l) {
      need += p.resource_demand_mhz(demands.at(l, t));
    }
    // Shed any request that no longer fits the largest surviving
    // station (integral assignment needs a single host), then the
    // largest-demand requests until the slot fits the budget — the
    // deterministic "biggest spender defers" policy.
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      double da = demands.at(a, t), db = demands.at(b, t);
      if (da != db) return da > db;
      return a < b;
    });
    for (std::size_t l : order) {
      double res = p.resource_demand_mhz(demands.at(l, t));
      if (res <= 0.0) break;  // descending order: the rest are zero too
      bool oversize = res > opt.admission_margin * biggest_up;
      // Descending order again: once the aggregate fits and this request
      // fits the biggest station, every remaining (smaller) one does.
      if (!oversize && need <= budget) break;
      demands.set(l, t, 0.0);
      need -= res;
      ++shed_requests_[t];
      shed_penalty_ms_[t] += opt.shed_penalty_ms;
    }
  }
}

const SlotFaultState& FaultInjector::begin_slot(std::size_t t) {
  MECSC_CHECK_MSG(t < plan_.horizon(), "slot beyond fault plan horizon");
  const SlotFaults& sf = plan_.slot(t);
  const std::size_t ns = problem_->num_stations();
  state_.station_up = sf.station_up;
  state_.feedback_lost = sf.feedback_lost;
  state_.effective_capacity_mhz.resize(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    state_.effective_capacity_mhz[i] =
        problem_->topology().station(i).capacity_mhz * sf.capacity_factor[i];
  }
  problem_->set_station_capacities(state_.effective_capacity_mhz);
  state_.shed_requests = shed_requests_[t];
  state_.shed_penalty_ms = shed_penalty_ms_[t];
  return state_;
}

void FaultInjector::end_run() { problem_->reset_station_capacities(); }

}  // namespace mecsc::fault
