#include "sim/slot_engine.h"

#include <limits>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"

namespace mecsc::sim {

SlotEngine::SlotEngine(const core::CachingProblem& problem, bool track_regret)
    : problem_(&problem) {
  if (track_regret) regret_.emplace(problem);
}

SlotRecord SlotEngine::step(std::size_t t,
                            algorithms::CachingAlgorithm& algorithm,
                            const std::vector<double>& true_demands,
                            const std::vector<double>& unit_delays,
                            const fault::SlotFaultState* faults,
                            bool run_decide) {
  const std::size_t ns = problem_->num_stations();
  MECSC_CHECK_MSG(true_demands.size() == problem_->num_requests(),
                  "demand snapshot size mismatch");
  MECSC_CHECK_MSG(unit_delays.size() == ns, "unit delay vector size mismatch");
  const bool telemetry = obs::enabled();
  std::size_t active_outages = 0;
  std::size_t censored = 0;
  std::size_t evictions = 0;
  if (faults != nullptr) {
    MECSC_CHECK_MSG(faults->station_up.size() == ns &&
                        faults->feedback_lost.size() == ns &&
                        faults->effective_capacity_mhz.size() == ns,
                    "fault state size mismatch");
    for (std::size_t i = 0; i < ns; ++i) {
      MECSC_CHECK_MSG(
          problem_->station_capacity_mhz(i) == faults->effective_capacity_mhz[i],
          "fault state capacities are not the installed ones");
      if (faults->station_up[i] == 0) ++active_outages;
      if (faults->feedback_lost[i] != 0) ++censored;
    }
    // Evict every cached instance sitting on a down station — its
    // re-instantiation after recovery is then naturally re-charged
    // d_ins by the incremental accounting.
    for (std::size_t i = 0; i < ns; ++i) {
      if (faults->station_up[i] != 0) continue;
      for (auto& row : prev_cached_) {
        if (row[i]) {
          row[i] = false;
          ++evictions;
        }
      }
    }
    if (evictions > 0) {
      MECSC_COUNT("fault.evictions", static_cast<double>(evictions));
    }
    MECSC_GAUGE_SET("fault.active_outages",
                    static_cast<double>(active_outages));
  }
  // Every slot's phases are timed into its span timeline; the record's
  // decision_time_ms is derived from the "algo.decide" span so the two
  // sources can never disagree. A re-commit slot records no decide span
  // and therefore a ~zero decision time.
  auto timeline = std::make_shared<obs::SlotTimeline>();
  if (run_decide) {
    obs::TimelineSpan span(timeline.get(), "algo.decide");
    decision_ = algorithm.decide(t);
  } else {
    MECSC_CHECK_MSG(has_decision_,
                    "re-commit requested before any decision exists");
    MECSC_COUNT("serve.recommits", 1.0);
  }
  has_decision_ = true;

  const std::vector<double>* delays = &unit_delays;
  if (faults != nullptr) {
    // A request that still lands on a down station (the degradation
    // machinery makes this rare) is scored with the plan's outage
    // penalty on its unit delay.
    eff_delays_ = unit_delays;
    for (std::size_t i = 0; i < eff_delays_.size(); ++i) {
      if (faults->station_up[i] == 0) {
        eff_delays_[i] *= faults->outage_penalty_factor;
      }
    }
    delays = &eff_delays_;
  }

  SlotRecord rec;
  {
    obs::TimelineSpan span(timeline.get(), "sim.score");
    rec.avg_delay_ms = core::realized_average_delay(*problem_, decision_,
                                                    true_demands, *delays);
    rec.avg_delay_incremental_ms = core::realized_average_delay_incremental(
        *problem_, decision_, prev_cached_, true_demands, *delays);
    rec.capacity_violation_mhz =
        core::capacity_violation(*problem_, decision_, true_demands);
  }
  // Regret compares against the hindsight optimum of the same degraded
  // slot, so it is recorded before the shed penalty — shed requests
  // cost every algorithm identically and are not a learning failure.
  const double pre_penalty_delay = rec.avg_delay_ms;
  if (faults != nullptr) {
    const double nr = static_cast<double>(problem_->num_requests());
    rec.avg_delay_ms += faults->shed_penalty_ms / nr;
    rec.avg_delay_incremental_ms += faults->shed_penalty_ms / nr;
    rec.fault_active_outages = active_outages;
    rec.fault_evictions = evictions;
    rec.fault_shed_requests = faults->shed_requests;
    rec.fault_censored_feedback = censored;
    rec.fault_shed_penalty_ms = faults->shed_penalty_ms;
    if (faults->shed_requests > 0) {
      MECSC_COUNT("fault.shed_requests",
                  static_cast<double>(faults->shed_requests));
    }
  }
  rec.decision_time_ms = timeline->ms_of("algo.decide");
  rec.timeline = timeline;
  prev_cached_ = decision_.cached;

  {
    obs::TimelineSpan span(timeline.get(), "sim.observe");
    if (regret_) regret_->record(pre_penalty_delay, true_demands, *delays);
    const std::vector<double>* observed = delays;
    if (censored > 0) {
      // Censored bandit feedback: the lost d_i(t) reach the algorithm
      // as NaN and must be skipped, not averaged.
      censored_delays_ = *delays;
      for (std::size_t i = 0; i < censored_delays_.size(); ++i) {
        if (faults->feedback_lost[i] != 0) {
          censored_delays_[i] = std::numeric_limits<double>::quiet_NaN();
        }
      }
      observed = &censored_delays_;
      MECSC_COUNT("fault.censored_feedback", static_cast<double>(censored));
    }
    algorithm.observe(t, decision_, true_demands, *observed);
  }

  if (telemetry) {
    obs::Registry& reg = obs::current();
    for (const auto& e : timeline->events()) {
      reg.histogram(std::string("span.") + e.name).observe(e.ms);
    }
    reg.counter("sim.slots").inc();
    if (obs::full_enabled()) {
      std::ostringstream ev;
      ev << "{\"type\":\"slot\",\"algo\":\"" << algorithm.name()
         << "\",\"t\":" << t << ",\"avg_delay_ms\":" << rec.avg_delay_ms
         << ",\"decision_time_ms\":" << rec.decision_time_ms
         << ",\"capacity_violation_mhz\":" << rec.capacity_violation_mhz
         << ",\"phases\":{";
      bool first = true;
      for (const auto& e : timeline->events()) {
        if (!first) ev << ',';
        first = false;
        ev << '"' << e.name << "\":" << e.ms;
      }
      ev << "}}";
      reg.record_event(ev.str());
    }
  }
  return rec;
}

}  // namespace mecsc::sim
