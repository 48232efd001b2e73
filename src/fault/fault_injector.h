#ifndef MECSC_FAULT_FAULT_INJECTOR_H
#define MECSC_FAULT_FAULT_INJECTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "fault/fault_plan.h"
#include "workload/demand_model.h"

namespace mecsc::fault {

/// One slot's realised fault state: what FaultInjector::begin_slot
/// returns, what sim::SlotEngine::step applies, and what a serve trace
/// record's fault block stores, so a replay needs no fault plan.
struct SlotFaultState {
  /// Per station, nonzero = up (serving, possibly derated).
  std::vector<std::uint8_t> station_up;
  /// Per station, nonzero = d_i(t) censored towards the algorithm.
  std::vector<std::uint8_t> feedback_lost;
  /// Per-station effective (derated) capacities in MHz, installed into
  /// the problem for the slot.
  std::vector<double> effective_capacity_mhz;
  /// Unit-delay multiplier for a request served at a down station.
  double outage_penalty_factor = 1.0;
  /// Requests admission control shed (demand deferred) this slot.
  std::uint32_t shed_requests = 0;
  /// Total delay penalty (ms, pre-averaging) the shed requests incur.
  double shed_penalty_ms = 0.0;
};

/// Applies a FaultPlan to a run: mutates the problem's effective station
/// capacities per slot, and bakes flash crowds and admission-control
/// shedding into the demand matrix up front (so every algorithm and the
/// scorer see the same post-fault sample path).
///
/// Everything is precomputed at construction/apply time from the
/// deterministic plan — begin_slot only copies state into the problem —
/// so replaying the run for a second algorithm, or under a different
/// MECSC_WORKERS, is bitwise identical.
class FaultInjector {
 public:
  /// `problem` must outlive the injector; its station capacities are
  /// overwritten per slot during a run (reset by end_run()).
  FaultInjector(core::CachingProblem& problem, FaultPlan plan);

  /// Bakes the plan's flash crowds into `demands`, then applies
  /// admission control per slot: while a slot's aggregate resource
  /// demand exceeds admission_margin × surviving capacity (or a request
  /// cannot fit the largest up station), the largest-demand requests are
  /// shed — their demand is zeroed (deferred) and the per-request shed
  /// penalty is recorded for the slot. Call once, before the run.
  void apply_to_demands(workload::DemandMatrix& demands);

  /// Installs slot t's effective capacities into the problem and
  /// returns the slot's realised fault state (valid until the next
  /// begin_slot).
  const SlotFaultState& begin_slot(std::size_t t);

  /// Restores the problem's full static capacities.
  void end_run();

  /// The materialised fault schedule being applied.
  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  core::CachingProblem* problem_;
  FaultPlan plan_;
  std::vector<std::uint32_t> shed_requests_;  // per slot
  std::vector<double> shed_penalty_ms_;       // per slot
  SlotFaultState state_;                      // the latest begin_slot's
  bool demands_applied_ = false;
};

}  // namespace mecsc::fault

#endif  // MECSC_FAULT_FAULT_INJECTOR_H
