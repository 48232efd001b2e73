#include "serve/replay.h"

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/ol_gd.h"
#include "common/error.h"
#include "sim/scenario.h"
#include "sim/slot_engine.h"
#include "workload/demand_model.h"

namespace mecsc::serve {

namespace {

/// Bitwise double comparison: replay promises the identical arithmetic,
/// so even the last ulp must match (and NaN payloads compare equal).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A recorded recipe names the env-resolved mode and tier, so kEnv (0)
// never appears in a genuine trace; neither do the retired auto modes
// (aggregate 2, solver 4), the retired simplex tier (solver 2) or a
// value past the enums. Each is a corrupt trace.
core::AggregateMode recorded_aggregate(std::uint8_t value) {
  const auto mode = static_cast<core::AggregateMode>(value);
  MECSC_CHECK_MSG(mode == core::AggregateMode::kOff ||
                      mode == core::AggregateMode::kOn,
                  "trace recipe names no aggregation mode: byte " +
                      std::to_string(value));
  return mode;
}

core::SolverTier recorded_tier(std::uint8_t value) {
  const auto tier = static_cast<core::SolverTier>(value);
  MECSC_CHECK_MSG(tier == core::SolverTier::kFlow ||
                      tier == core::SolverTier::kLagrangian,
                  "trace recipe names no live solver tier: byte " +
                      std::to_string(value));
  return tier;
}

}  // namespace

TraceConfig trace_config_for(const ServeOptions& options,
                             const sim::Scenario& scenario) {
  TraceConfig cfg;
  cfg.seed = options.seed;
  cfg.num_stations = static_cast<std::uint32_t>(options.num_stations);
  cfg.num_requests = static_cast<std::uint32_t>(options.num_requests);
  cfg.num_services = static_cast<std::uint32_t>(options.num_services);
  cfg.horizon = static_cast<std::uint32_t>(options.horizon);
  cfg.slot_ms = static_cast<std::uint32_t>(options.slot_ms);
  cfg.bursty = options.bursty ? 1 : 0;
  cfg.aggregate = static_cast<std::uint8_t>(scenario.aggregate_mode());
  cfg.solver = static_cast<std::uint8_t>(scenario.solver_tier());
  // Which fault mode the scenario resolved to (the injector exists iff
  // churn is on) — part of the recipe, so a resume under a different
  // MECSC_FAULTS is rejected instead of silently diverging.
  cfg.faults = scenario.fault_injector() != nullptr ? 1 : 0;
  cfg.algo_seed = scenario.algorithm_seed(0);
  cfg.shed_penalty_ms = options.shed_penalty_ms;
  return cfg;
}

ServeOptions options_from_trace(const TraceConfig& config) {
  ServeOptions options;
  options.seed = config.seed;
  options.num_stations = config.num_stations;
  options.num_requests = config.num_requests;
  options.num_services = config.num_services;
  options.horizon = config.horizon;
  options.slot_ms = config.slot_ms == 0 ? 1 : config.slot_ms;
  options.bursty = config.bursty != 0;
  options.shed_penalty_ms = config.shed_penalty_ms;
  return options;
}

ReplayResult replay_trace(const std::string& path, ReplayOptions options) {
  TraceReader reader(path);
  ReplayResult result;
  std::vector<SlotTraceRecord> records;
  {
    SlotTraceRecord rec;
    std::string error;
    for (;;) {
      const RecordStatus status = reader.next_status(rec, &error);
      if (status == RecordStatus::kRecord) {
        records.push_back(std::move(rec));
        continue;
      }
      if (status == RecordStatus::kFooter) {
        result.sealed = true;
      } else if (options.salvage) {
        // Truncate at the last checksum-valid record and replay the
        // intact prefix; what was lost is reported, not fatal.
        result.salvaged = true;
        result.lost_bytes = reader.file_bytes() - reader.last_good_offset();
        result.tail_error = error;
      } else if (status == RecordStatus::kCorrupt) {
        MECSC_CHECK_MSG(false, error.empty() ? "corrupt trace record" : error);
      } else {
        // Truncated tail (writer died mid-stream): the intact prefix
        // still replays; --verify reports the missing seal.
        result.tail_error = error;
      }
      break;
    }
  }
  if (records.empty()) {
    result.bit_identical = true;  // vacuously: nothing to diverge on
    result.detail = "trace holds no slot records";
    return result;
  }

  const TraceConfig& cfg = reader.config();
  sim::ScenarioParams params = scenario_params(options_from_trace(cfg));
  // Pin the recorded env-resolved aggregate mode and solver tier: replay
  // must reproduce the run as recorded, not as the current environment
  // would run it.
  params.aggregate = recorded_aggregate(cfg.aggregate);
  params.solver = recorded_tier(cfg.solver);
  // Faults are replayed from the records' realised-fault blocks, never
  // from a regenerated plan — build the faults-off problem instance and
  // ignore MECSC_FAULTS entirely.
  params.fault.mode = fault::FaultMode::kOff;
  params.fault_env_override = false;
  sim::Scenario scenario(params);
  const core::CachingProblem& problem = scenario.problem();
  const std::size_t n = problem.num_requests();
  const std::size_t stations = problem.num_stations();

  workload::DemandMatrix demands(n, records.size());
  for (std::size_t t = 0; t < records.size(); ++t) {
    const SlotTraceRecord& rec = records[t];
    MECSC_CHECK_MSG(rec.slot == t, "trace slots out of order");
    MECSC_CHECK_MSG(rec.unit_delays.size() == stations,
                    "trace delay vector does not match the scenario");
    MECSC_CHECK_MSG(rec.station_of_request.size() == n,
                    "trace decision vector does not match the scenario");
    for (const auto& [id, demand] : rec.demands) {
      MECSC_CHECK_MSG(id < n, "trace demand entry out of range");
      demands.set(id, t, demand);
    }
  }

  algorithms::OlOptions ol_options;
  ol_options.aggregate = params.aggregate;
  ol_options.solver = params.solver;
  algorithms::OnlineCachingAlgorithm algorithm("OL_GD", problem, &demands,
                                               ol_options, cfg.algo_seed);
  sim::SlotEngine engine(problem);

  bool replayed_faults = false;
  for (std::size_t t = 0; t < records.size(); ++t) {
    const SlotTraceRecord& rec = records[t];
    // Honor the watchdog flags the live run recorded: the replay must
    // walk the exact same decision path, degraded or re-committed.
    if ((rec.flags & kSlotFlagDegradedHint) != 0) algorithm.set_decide_hint(2);
    const bool run_decide = (rec.flags & kSlotFlagRecommit) == 0;
    sim::SlotRecord stepped;
    if ((rec.flags & kSlotFlagFaults) != 0) {
      MECSC_CHECK_MSG(rec.station_up.size() == stations &&
                          rec.feedback_lost.size() == stations &&
                          rec.effective_capacity_mhz.size() == stations,
                      "trace fault block does not match the scenario");
      scenario.mutable_problem().set_station_capacities(
          rec.effective_capacity_mhz);
      replayed_faults = true;
      sim::SlotFaultState faults;
      faults.station_up = rec.station_up;
      faults.feedback_lost = rec.feedback_lost;
      faults.outage_penalty_factor = rec.outage_penalty_factor;
      faults.shed_requests = rec.fault_shed_requests;
      faults.shed_penalty_ms = rec.fault_shed_penalty_ms;
      stepped = engine.step_recorded(t, algorithm, demands.slot(t),
                                     rec.unit_delays, faults, run_decide);
    } else {
      stepped =
          engine.step(t, algorithm, demands.slot(t), rec.unit_delays,
                      run_decide);
    }
    const core::Assignment& decision = engine.last_decision();

    for (std::size_t l = 0; l < n; ++l) {
      if (decision.station_of_request[l] != rec.station_of_request[l]) {
        std::ostringstream msg;
        msg << "slot " << t << ": request " << l << " replays to station "
            << decision.station_of_request[l] << ", trace recorded "
            << rec.station_of_request[l];
        result.first_mismatch_slot = t;
        result.detail = msg.str();
        return result;
      }
    }
    if (pack_cached_bits(decision.cached) != rec.cached_bits) {
      std::ostringstream msg;
      msg << "slot " << t << ": replayed caching set differs from the trace";
      result.first_mismatch_slot = t;
      result.detail = msg.str();
      return result;
    }
    // The recorded objective folds the serve-side shed penalty in after
    // the engine scored the slot; redo the identical arithmetic.
    const double replayed_delay =
        stepped.avg_delay_ms +
        rec.shed_penalty_ms / static_cast<double>(n == 0 ? 1 : n);
    if (!same_bits(replayed_delay, rec.avg_delay_ms)) {
      std::ostringstream msg;
      msg << "slot " << t << ": replayed objective " << replayed_delay
          << " ms is not bitwise the recorded " << rec.avg_delay_ms << " ms";
      result.first_mismatch_slot = t;
      result.detail = msg.str();
      return result;
    }
    ++result.slots_compared;
  }
  if (replayed_faults) scenario.mutable_problem().reset_station_capacities();
  engine.end_run();
  result.bit_identical = true;
  return result;
}

}  // namespace mecsc::serve
