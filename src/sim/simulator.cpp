#include "sim/simulator.h"

#include <algorithm>

#include "common/error.h"

namespace mecsc::sim {

double RunResult::mean_delay_ms() const {
  if (slots.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : slots) s += r.avg_delay_ms;
  return s / static_cast<double>(slots.size());
}

double RunResult::mean_delay_incremental_ms() const {
  if (slots.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : slots) s += r.avg_delay_incremental_ms;
  return s / static_cast<double>(slots.size());
}

double RunResult::total_decision_time_ms() const {
  double s = 0.0;
  for (const auto& r : slots) s += r.decision_time_ms;
  return s;
}

double RunResult::mean_decision_time_ms() const {
  return slots.empty() ? 0.0
                       : total_decision_time_ms() / static_cast<double>(slots.size());
}

double RunResult::total_capacity_violation_mhz() const {
  double s = 0.0;
  for (const auto& r : slots) s += r.capacity_violation_mhz;
  return s;
}

double RunResult::tail_mean_delay_ms(std::size_t n) const {
  if (slots.empty()) return 0.0;
  n = std::min(n, slots.size());
  double s = 0.0;
  for (std::size_t i = slots.size() - n; i < slots.size(); ++i) {
    s += slots[i].avg_delay_ms;
  }
  return s / static_cast<double>(n);
}

Simulator::Simulator(const core::CachingProblem& problem,
                     const workload::DemandMatrix* demands,
                     std::vector<std::vector<double>> unit_delays,
                     bool track_regret)
    : problem_(&problem),
      demands_(demands),
      unit_delays_(std::move(unit_delays)),
      track_regret_(track_regret) {
  MECSC_CHECK_MSG(demands_ != nullptr, "null demand matrix");
  MECSC_CHECK_MSG(demands_->num_requests() == problem.num_requests(),
                  "demand matrix / problem size mismatch");
  MECSC_CHECK_MSG(!unit_delays_.empty(), "no realised delays");
  for (const auto& d : unit_delays_) {
    MECSC_CHECK_MSG(d.size() == problem.num_stations(),
                    "unit delay vector size mismatch");
  }
  horizon_ = std::min(demands_->horizon(), unit_delays_.size());
}

RunResult Simulator::run(algorithms::CachingAlgorithm& algorithm) const {
  RunResult result;
  result.algorithm = algorithm.name();
  result.slots.reserve(horizon_);

  SlotEngine engine(*problem_, track_regret_);
  for (std::size_t t = 0; t < horizon_; ++t) {
    if (before_slot_) before_slot_(t);
    const fault::SlotFaultState* faults =
        fault_injector_ != nullptr ? &fault_injector_->begin_slot(t) : nullptr;
    result.slots.push_back(
        engine.step(t, algorithm, demands_->slot(t), unit_delays_[t], faults));
  }
  if (fault_injector_ != nullptr) fault_injector_->end_run();
  if (track_regret_) result.cumulative_regret = engine.cumulative_regret();
  return result;
}

}  // namespace mecsc::sim
