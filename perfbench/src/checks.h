#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

// Output checks run on every slot, outside the timed spans. Each returns
// an empty string when the output passes, else what is wrong.

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.h"

namespace perfbench::checks {

namespace core = ::mecsc::core;

/// Every request sits on exactly one in-range station, and every
/// (service, station) pair that serves a request is cached.
std::string decision(const core::CachingProblem& problem,
                     const std::vector<std::size_t>& station_of_request,
                     const std::vector<std::vector<bool>>& cached);

/// The slot's Eq. 3 delay recomputed from the decision, the demands, the
/// realised unit delays, the congestion factor max(1, load/C), the
/// topology's path latencies, each request's wireless per-unit cost and
/// the instantiation delays of the cached pairs.
double recomputed_delay(const core::CachingProblem& problem,
                        const std::vector<std::size_t>& station_of_request,
                        const std::vector<std::vector<bool>>& cached,
                        const std::vector<double>& demands,
                        const std::vector<double>& unit_delays);

/// (1/|R|) Σ_l min_i (ρ_l·d_i + path_{home(l),i} + ρ_l·tx_l): no assignment
/// can score lower, since congestion factors are ≥ 1 and instantiation
/// delays ≥ 0.
double delay_lower_bound(const core::CachingProblem& problem,
                         const std::vector<double>& demands,
                         const std::vector<double>& unit_delays);

/// `reported` equals the recomputed delay to 1e-9 relative and is not
/// below the lower bound.
std::string delay(const core::CachingProblem& problem,
                  const std::vector<std::size_t>& station_of_request,
                  const std::vector<std::vector<bool>>& cached,
                  const std::vector<double>& demands,
                  const std::vector<double>& unit_delays, double reported);

/// Every forecast is finite and non-negative.
std::string forecast(const std::vector<double>& demands);

/// Every submitted event was ingested and nothing was shed.
std::string ingest(std::uint64_t submitted, std::uint64_t ingested,
                   std::uint64_t shed);

/// Σ_l ρ_l·C_unit / Σ_i C_i for one slot's demands.
double load_factor(const core::CachingProblem& problem,
                   const std::vector<double>& demands);

/// Feeds each check one genuine slot and one corrupted copy (a request
/// moved to an uncached station, a perturbed objective, a dropped event,
/// a negative forecast). Returns the checks that did not behave.
std::vector<std::string> self_test();

}  // namespace perfbench::checks

#endif  // PERFBENCH_CHECKS_H
