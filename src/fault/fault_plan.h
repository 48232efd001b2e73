#ifndef MECSC_FAULT_FAULT_PLAN_H
#define MECSC_FAULT_FAULT_PLAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/base_station.h"
#include "net/topology.h"

namespace mecsc::fault {

/// Fault model selection: no faults or the full churn model (outages +
/// derating + censored feedback + flash crowds). kOff and kChurn are
/// also the 0/1 of a serve trace recipe's `faults` byte.
enum class FaultMode {
  kOff = 0,    ///< No faults: every station up, feedback intact.
  kChurn = 1,  ///< Outages + derating + censored feedback + flash crowds.
  /// Resolve from the MECSC_FAULTS environment variable ("off" |
  /// "churn"); unset or empty means kOff. The FaultOptions default, so
  /// every bench re-runs under churn without code changes.
  kEnv = 2,
};

/// Maps kEnv to MECSC_FAULTS (defaulting to kOff); explicit modes pass
/// through unchanged, so code-level settings always win over the
/// environment. An unrecognised value warns on stderr and yields kOff —
/// a silently misparsed fault switch would invalidate a whole benchmark
/// run.
FaultMode resolve_fault_mode(FaultMode configured);

/// Per-tier outage churn: exponential up-times with mean `mtbf_slots`
/// alternating with exponential down-times with mean `mttr_slots`.
/// Macro cloudlets are engineered infrastructure (rare, short outages);
/// femtocells churn like consumer hardware.
struct TierChurn {
  double mtbf_slots = 0.0;  ///< Mean slots between failures (up-time).
  double mttr_slots = 0.0;  ///< Mean slots to repair (down-time).
};

/// Tunables of the fault model (DESIGN.md §9). Defaults give a run with
/// visible-but-survivable degradation at the paper's 100-station /
/// 100-slot scale: a handful of concurrent outages, occasional capacity
/// dips, and roughly one flash crowd per run.
struct FaultOptions {
  /// Master switch; kOff generates an all-up plan, kEnv defers to
  /// MECSC_FAULTS.
  FaultMode mode = FaultMode::kEnv;

  TierChurn macro{500.0, 3.0};  ///< Churn of macro-cloudlet stations.
  TierChurn micro{200.0, 5.0};  ///< Churn of micro-cloudlet stations.
  TierChurn femto{80.0, 8.0};   ///< Churn of femtocell stations.

  /// Transient capacity derating: with this per-station-slot probability
  /// an (up) station serves at a factor drawn uniformly from
  /// [derate_floor, 1).
  double derate_probability = 0.05;
  /// Lower bound of the derating factor draw.
  double derate_floor = 0.4;

  /// Bandit-feedback loss: with this per-station-slot probability the
  /// realised d_i(t) of a station is censored (the algorithm's observe
  /// sees NaN for that station and must skip the update).
  double feedback_loss_probability = 0.10;

  /// Flash crowds layered on the bursty demand model: with this per-slot
  /// probability a uniformly chosen location cluster's demand is
  /// multiplied by `flash_crowd_multiplier` for `flash_crowd_duration`
  /// slots.
  double flash_crowd_probability = 0.03;
  /// Demand multiplier applied to the crowded cluster.
  double flash_crowd_multiplier = 4.0;
  /// Slots a flash crowd lasts.
  std::size_t flash_crowd_duration = 3;

  /// Admission control: requests are shed (demand deferred to 0 for the
  /// slot) until the slot's aggregate resource demand fits within
  /// `admission_margin` of the surviving (derated) capacity.
  double admission_margin = 0.9;
  /// Delay penalty charged per shed request into the slot's realised
  /// average delay (a deferred user waits roughly one slot).
  double shed_penalty_ms = 250.0;
  /// Scoring multiplier on the unit delay of a request that ends up
  /// served at a down station despite the degradation machinery.
  double outage_penalty_factor = 10.0;

  /// Churn/censoring/flash crowds are confined to slots in
  /// [first_fault_slot, last_fault_slot]; outside the window every
  /// station is up and feedback is intact. Benches and the recovery
  /// tests use this to leave a clean post-fault period.
  std::size_t first_fault_slot = 0;
  std::size_t last_fault_slot = static_cast<std::size_t>(-1);
};

/// One slot's materialised fault state.
struct SlotFaults {
  /// station_up[i] == 0 means bs_i (and its cached instances) is down.
  std::vector<std::uint8_t> station_up;
  /// Effective-capacity factor per station (0 when down, (0,1] when
  /// derated, 1 when healthy).
  std::vector<double> capacity_factor;
  /// feedback_lost[i] != 0 censors d_i(t) towards the algorithms.
  std::vector<std::uint8_t> feedback_lost;
  /// Active flash crowds, flattened as (cluster_draw, multiplier) pairs.
  /// `cluster_draw` is a workload-independent id the injector maps to a
  /// concrete location cluster modulo the workload's cluster count.
  /// Empty when no flash crowd touches this slot.
  std::vector<double> cluster_multiplier;
};

/// A deterministic, fully pre-materialised fault schedule: every outage,
/// derating, censoring and flash crowd of the run is fixed by
/// (topology, horizon, options, seed) at generation time, so the same
/// plan replayed against any algorithm — or under any MECSC_WORKERS — is
/// bitwise identical. Generation draws from independent child RNG
/// streams per fault type, so tweaking one knob never shifts another
/// type's draws.
///
/// Invariant: at least one station is up in every slot (the generator
/// forces the largest-capacity station back up if churn ever takes the
/// whole network down), so "shed everything forever" is unreachable.
class FaultPlan {
 public:
  /// An empty plan (no slots; empty() is true).
  FaultPlan() = default;

  /// Materialises the full schedule from (topology, horizon, options,
  /// seed) — the only way to build a non-empty plan. A kEnv mode is
  /// resolved here; options() reports the resolved mode.
  static FaultPlan generate(const net::Topology& topology, std::size_t horizon,
                            const FaultOptions& options, std::uint64_t seed);

  /// True for a default-constructed (slotless) plan.
  bool empty() const noexcept { return slots_.empty(); }
  /// Number of slots the plan covers.
  std::size_t horizon() const noexcept { return slots_.size(); }
  /// The options the plan was generated from.
  const FaultOptions& options() const noexcept { return options_; }
  /// Slot t's materialised faults.
  const SlotFaults& slot(std::size_t t) const { return slots_.at(t); }

  /// Fraction of station-slots that are up — the availability axis of
  /// the delay-vs-availability curve in bench_fault_churn.
  double availability() const;

  /// Total station-slots spent down.
  std::size_t total_outage_slots() const;

 private:
  FaultOptions options_;
  std::vector<SlotFaults> slots_;
};

}  // namespace mecsc::fault

#endif  // MECSC_FAULT_FAULT_PLAN_H
