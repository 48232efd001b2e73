#ifndef MECSC_SIM_SLOT_ENGINE_H
#define MECSC_SIM_SLOT_ENGINE_H

#include <memory>
#include <optional>
#include <vector>

#include "algorithms/algorithm.h"
#include "core/assignment.h"
#include "core/problem.h"
#include "core/regret.h"
#include "fault/fault_injector.h"
#include "obs/span.h"

namespace mecsc::sim {

/// Metrics of one simulated slot.
struct SlotRecord {
  /// Realised Eq. 3 objective (mean per-request delay, ms).
  double avg_delay_ms = 0.0;
  /// Realised delay charging instantiation only for instances newly
  /// cached this slot (operational accounting; see
  /// realized_average_delay_incremental).
  double avg_delay_incremental_ms = 0.0;
  /// Wall-clock of the algorithm's decide() — derived from the
  /// timeline's "algo.decide" span, so the two can never disagree.
  double decision_time_ms = 0.0;
  /// Total MHz by which the decision exceeded station capacities.
  double capacity_violation_mhz = 0.0;
  /// Stations down this slot (zero when the slot ran without faults).
  std::size_t fault_active_outages = 0;
  /// Cached instances lost to outages this slot.
  std::size_t fault_evictions = 0;
  /// Requests deferred by admission control this slot.
  std::size_t fault_shed_requests = 0;
  /// Stations whose d_i(t) feedback was censored this slot.
  std::size_t fault_censored_feedback = 0;
  /// Per-request shed penalty folded into avg_delay_ms this slot
  /// (pre-averaging total).
  double fault_shed_penalty_ms = 0.0;
  /// Span timeline of this slot's phases (algo.decide / sim.score /
  /// sim.observe) — the structured replacement for bolting further
  /// ad-hoc timing doubles onto this record. Always present after a
  /// Simulator::run or SlotEngine::step; null only for hand-built
  /// records (e.g. in tests).
  std::shared_ptr<const obs::SlotTimeline> timeline;
};

/// Cross-slot engine state a checkpoint captures: the latest committed
/// decision and the previous caching set the incremental accounting
/// compares against.
struct SlotEngineState {
  bool has_decision = false;                    ///< A step has committed.
  core::Assignment decision;                    ///< Latest committed decision.
  std::vector<std::vector<bool>> prev_cached;   ///< Previous caching set.
};

/// The per-slot decision protocol (paper §III), extracted from the batch
/// simulator so live drivers can reuse it verbatim: given slot t's true
/// demands and realised unit delays, run the algorithm's decide(), score
/// the decision ex post (Eq. 3 with realised values), apply the slot's
/// realised fault state when one is given, and reveal the slot's ground
/// truth to the algorithm.
///
/// One engine instance carries the cross-slot state of a run (previous
/// caching set for incremental accounting, fault eviction bookkeeping,
/// optional regret tracker). sim::Simulator::run drives one engine over a
/// pre-realised demand matrix; mecsc::serve drives one over live demand
/// snapshots closed by a wall-clock slot scheduler; serve::replay_trace
/// drives one over a recorded trace. All three call the one step() —
/// live runs with the fault injector's state, replay with the state the
/// trace recorded — which is what makes a recorded live trace replay
/// bit-for-bit.
class SlotEngine {
 public:
  /// Binds the engine to a problem instance (non-owning; must outlive
  /// the engine). `track_regret` enables the per-slot hindsight-optimum
  /// computation (slow; regret benches only).
  explicit SlotEngine(const core::CachingProblem& problem,
                      bool track_regret = false);

  /// Runs the full slot protocol for slot `t`: decide → score → observe.
  /// Slots must be stepped in increasing order within one run.
  ///
  /// With `faults` non-null the slot runs under that realised fault
  /// state, whose effective capacities the caller must already have
  /// installed into the problem (FaultInjector::begin_slot does; replay
  /// installs the recorded ones): the engine evicts cached instances
  /// from down stations, scores requests served at a down station with
  /// the outage penalty, folds the admission-control shed penalty into
  /// the slot delay, and censors the algorithm's bandit feedback. A
  /// state whose masks or capacities do not match the problem's station
  /// count, or whose capacities are not the installed ones, throws
  /// common::InvalidArgument.
  ///
  /// With `run_decide` false the engine skips the algorithm's decide()
  /// and re-commits the previous slot's placement verbatim (the
  /// watchdog's last resort; requires a prior decision), still scoring
  /// and observing the slot normally.
  SlotRecord step(std::size_t t, algorithms::CachingAlgorithm& algorithm,
                  const std::vector<double>& true_demands,
                  const std::vector<double>& unit_delays,
                  const fault::SlotFaultState* faults = nullptr,
                  bool run_decide = true);

  /// The integral decision of the latest step() (valid after the first).
  const core::Assignment& last_decision() const noexcept { return decision_; }

  /// True once a decision exists (after the first step, or after
  /// import_state of a state that had one) — the precondition of a
  /// re-commit step.
  bool has_decision() const noexcept { return has_decision_; }

  /// Snapshots the engine's cross-slot state (checkpointing).
  SlotEngineState export_state() const {
    return SlotEngineState{has_decision_, decision_, prev_cached_};
  }

  /// Restores a snapshot taken by export_state().
  void import_state(const SlotEngineState& state) {
    has_decision_ = state.has_decision;
    decision_ = state.decision;
    prev_cached_ = state.prev_cached;
  }

  /// Cumulative regret series recorded so far (empty unless
  /// track_regret was set).
  std::vector<double> cumulative_regret() const {
    return regret_ ? regret_->cumulative_series() : std::vector<double>{};
  }

 private:
  const core::CachingProblem* problem_;
  std::optional<core::RegretTracker> regret_;
  core::Assignment decision_;
  bool has_decision_ = false;
  std::vector<std::vector<bool>> prev_cached_;  // empty at slot 0
  std::vector<double> eff_delays_;              // fault-mode scratch
  std::vector<double> censored_delays_;         // fault-mode scratch
};

}  // namespace mecsc::sim

#endif  // MECSC_SIM_SLOT_ENGINE_H
