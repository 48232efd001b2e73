#ifndef MECSC_SIM_SIMULATOR_H
#define MECSC_SIM_SIMULATOR_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/algorithm.h"
#include "core/problem.h"
#include "core/regret.h"
#include "fault/fault_injector.h"
#include "obs/span.h"
#include "sim/slot_engine.h"
#include "workload/demand_model.h"

namespace mecsc::sim {

/// Result of running one algorithm over the horizon.
struct RunResult {
  /// Name of the algorithm that produced this run.
  std::string algorithm;
  /// One record per simulated slot, in slot order.
  std::vector<SlotRecord> slots;
  /// Filled when regret tracking is enabled.
  std::vector<double> cumulative_regret;

  /// Mean of SlotRecord::avg_delay_ms over the horizon.
  double mean_delay_ms() const;
  /// Mean of SlotRecord::avg_delay_incremental_ms over the horizon.
  double mean_delay_incremental_ms() const;
  /// Sum of the per-slot decide() wall-clocks (ms).
  double total_decision_time_ms() const;
  /// Mean decide() wall-clock per slot (ms).
  double mean_decision_time_ms() const;
  /// Sum of the per-slot capacity violations (MHz).
  double total_capacity_violation_mhz() const;
  /// Mean delay over the last `n` slots (steady-state view).
  double tail_mean_delay_ms(std::size_t n) const;
};

/// Time-slotted driver (paper §III): per slot it asks the algorithm to
/// decide, realises the slot's true demands and unit delays, scores the
/// decision ex post (Eq. 3 with realised values), and reveals the slot's
/// ground truth to the algorithm.
///
/// The true demand matrix and the realised per-slot unit delays are
/// fixed at construction so every algorithm is compared on identical
/// sample paths.
class Simulator {
 public:
  /// unit_delays[t][i] = realised d_i(t). Horizon = min(demands horizon,
  /// unit_delays size).
  Simulator(const core::CachingProblem& problem,
            const workload::DemandMatrix* demands,
            std::vector<std::vector<double>> unit_delays,
            bool track_regret = false);

  /// Number of slots a run() simulates.
  std::size_t horizon() const noexcept { return horizon_; }

  /// Hook invoked before every slot's decide() — used by mobility
  /// experiments to apply the slot's user states
  /// (CachingProblem::update_user_locations). The same hook runs for
  /// every algorithm, keeping sample paths identical.
  void set_before_slot(std::function<void(std::size_t)> hook) {
    before_slot_ = std::move(hook);
  }

  /// Attaches a fault injector (non-owning; must outlive the simulator's
  /// runs). Per slot the simulator then installs the plan's effective
  /// capacities before decide() (FaultInjector::begin_slot) and hands
  /// the slot's realised fault state to SlotEngine::step, and restores
  /// the static capacities after the run. Everything the injector does
  /// is precomputed from its deterministic plan, so runs stay replayable
  /// across algorithms and worker counts.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Runs one algorithm over the full horizon. Each run drives a fresh
  /// SlotEngine over the pre-realised demand matrix, so repeated runs
  /// (and runs of different algorithms) are independent.
  RunResult run(algorithms::CachingAlgorithm& algorithm) const;

  /// Realised per-unit delays d_i(t) of slot t — the sample path live
  /// drivers (mecsc::serve) share with the batch runs of this scenario.
  const std::vector<double>& unit_delays(std::size_t t) const {
    return unit_delays_.at(t);
  }

 private:
  const core::CachingProblem* problem_;
  const workload::DemandMatrix* demands_;
  std::vector<std::vector<double>> unit_delays_;
  std::size_t horizon_;
  bool track_regret_;
  std::function<void(std::size_t)> before_slot_;
  fault::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace mecsc::sim

#endif  // MECSC_SIM_SIMULATOR_H
