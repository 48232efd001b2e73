#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"

namespace mecsc::fault {

FaultMode resolve_fault_mode(FaultMode configured) {
  if (configured != FaultMode::kEnv) return configured;
  const char* v = std::getenv("MECSC_FAULTS");
  if (v == nullptr || *v == '\0' || std::strcmp(v, "off") == 0) {
    return FaultMode::kOff;
  }
  if (std::strcmp(v, "churn") == 0) return FaultMode::kChurn;
  std::fprintf(stderr,
               "mecsc: ignoring MECSC_FAULTS=\"%s\" — expected \"off\" or "
               "\"churn\"\n",
               v);
  return FaultMode::kOff;
}

namespace {

const TierChurn& churn_of(const FaultOptions& o, net::Tier tier) {
  switch (tier) {
    case net::Tier::kMacro: return o.macro;
    case net::Tier::kMicro: return o.micro;
    case net::Tier::kFemto: return o.femto;
  }
  return o.femto;  // unreachable
}

}  // namespace

FaultPlan FaultPlan::generate(const net::Topology& topology, std::size_t horizon,
                              const FaultOptions& options, std::uint64_t seed) {
  MECSC_CHECK_MSG(horizon > 0, "fault plan needs a positive horizon");
  MECSC_CHECK_MSG(options.admission_margin > 0.0 && options.admission_margin <= 1.0,
                  "admission margin out of (0,1]");
  MECSC_CHECK_MSG(options.derate_floor > 0.0 && options.derate_floor <= 1.0,
                  "derate floor out of (0,1]");
  MECSC_CHECK_MSG(options.flash_crowd_multiplier >= 1.0,
                  "flash crowd must amplify demand");

  const std::size_t ns = topology.num_stations();
  FaultPlan plan;
  plan.options_ = options;
  plan.options_.mode = resolve_fault_mode(options.mode);
  plan.slots_.resize(horizon);
  for (auto& sf : plan.slots_) {
    sf.station_up.assign(ns, 1);
    sf.capacity_factor.assign(ns, 1.0);
    sf.feedback_lost.assign(ns, 0);
  }
  if (plan.options_.mode == FaultMode::kOff) return plan;

  const std::size_t lo = std::min(options.first_fault_slot, horizon);
  const std::size_t hi = std::min(options.last_fault_slot, horizon - 1);

  // Independent child streams per fault type: adding draws to one type
  // (e.g. more outages under a shorter MTBF) never perturbs another.
  common::Rng root(seed);
  common::Rng churn_rng = root.split();
  common::Rng derate_rng = root.split();
  common::Rng censor_rng = root.split();
  common::Rng crowd_rng = root.split();

  // --- Outage churn: alternating exponential up/down renewal process
  // per station, clipped to the fault window.
  for (std::size_t i = 0; i < ns; ++i) {
    const TierChurn& tc = churn_of(options, topology.station(i).tier);
    if (tc.mtbf_slots <= 0.0 || tc.mttr_slots <= 0.0) continue;
    double t = static_cast<double>(lo);
    bool up = true;
    while (t < static_cast<double>(hi + 1)) {
      double dur = churn_rng.exponential(1.0 / (up ? tc.mtbf_slots : tc.mttr_slots));
      double end = t + std::max(dur, 1e-9);
      if (!up) {
        std::size_t from = static_cast<std::size_t>(t);
        std::size_t to = std::min(hi, static_cast<std::size_t>(end));
        for (std::size_t s = from; s <= to && s < horizon; ++s) {
          plan.slots_[s].station_up[i] = 0;
          plan.slots_[s].capacity_factor[i] = 0.0;
        }
      }
      t = end;
      up = !up;
    }
  }

  // Never let churn take the whole network down: force the
  // largest-capacity station back up where needed (invariant relied on
  // by admission control — "sheds < 100% of requests").
  const std::size_t biggest = topology.largest_station();
  for (auto& sf : plan.slots_) {
    if (std::find(sf.station_up.begin(), sf.station_up.end(), 1) ==
        sf.station_up.end()) {
      sf.station_up[biggest] = 1;
      sf.capacity_factor[biggest] = 1.0;
    }
  }

  // --- Transient capacity derating of up stations.
  if (options.derate_probability > 0.0) {
    for (std::size_t t = lo; t <= hi && t < horizon; ++t) {
      SlotFaults& sf = plan.slots_[t];
      for (std::size_t i = 0; i < ns; ++i) {
        if (!sf.station_up[i]) continue;
        if (derate_rng.bernoulli(options.derate_probability)) {
          sf.capacity_factor[i] = derate_rng.uniform(options.derate_floor, 1.0);
        }
      }
    }
  }

  // --- Bandit-feedback censoring.
  if (options.feedback_loss_probability > 0.0) {
    for (std::size_t t = lo; t <= hi && t < horizon; ++t) {
      SlotFaults& sf = plan.slots_[t];
      for (std::size_t i = 0; i < ns; ++i) {
        if (censor_rng.bernoulli(options.feedback_loss_probability)) {
          sf.feedback_lost[i] = 1;
        }
      }
    }
  }

  // --- Flash crowds: a cluster's demand spikes for a few slots. The
  // cluster count is not known here, so multipliers are stored per
  // cluster id up to a generous bound and sized lazily by the injector.
  if (options.flash_crowd_probability > 0.0 &&
      options.flash_crowd_multiplier > 1.0) {
    for (std::size_t t = lo; t <= hi && t < horizon; ++t) {
      if (!crowd_rng.bernoulli(options.flash_crowd_probability)) continue;
      // The cluster count is a workload property unknown here; drawing a
      // fixed-range id (mapped modulo the cluster count at apply time)
      // keeps the plan workload-independent.
      std::size_t cluster_draw = crowd_rng.index(1u << 16);
      std::size_t until = std::min({hi, horizon - 1,
                                    t + std::max<std::size_t>(
                                            options.flash_crowd_duration, 1) - 1});
      for (std::size_t s = t; s <= until; ++s) {
        SlotFaults& sf = plan.slots_[s];
        sf.cluster_multiplier.push_back(static_cast<double>(cluster_draw));
        sf.cluster_multiplier.push_back(options.flash_crowd_multiplier);
      }
    }
  }

  return plan;
}

double FaultPlan::availability() const {
  if (slots_.empty() || slots_.front().station_up.empty()) return 1.0;
  std::size_t up = 0, total = 0;
  for (const auto& sf : slots_) {
    for (std::uint8_t c : sf.station_up) {
      up += c ? 1 : 0;
      ++total;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(up) / static_cast<double>(total);
}

std::size_t FaultPlan::total_outage_slots() const {
  std::size_t down = 0;
  for (const auto& sf : slots_) {
    for (std::uint8_t c : sf.station_up) down += c ? 0 : 1;
  }
  return down;
}

}  // namespace mecsc::fault
