#ifndef MECSC_CORE_ROUNDING_H
#define MECSC_CORE_ROUNDING_H

#include <vector>

#include "common/rng.h"
#include "core/aggregation.h"
#include "core/assignment.h"
#include "core/problem.h"

namespace mecsc::core {

/// Options of the ε-greedy randomized rounding of Algorithm 1.
struct RoundingOptions {
  /// Candidate threshold γ: BS_l^candi = {bs_i | x*_li >= γ} (Eq. 9).
  double gamma = 0.25;
  /// ε for this slot (the schedule lives with the caller).
  double epsilon = 0.25;
  /// Coin granularity. Algorithm 1's pseudocode draws one random number
  /// per slot (all requests explore together); drawing one per request
  /// explores a few arms every slot instead of all arms on rare slots
  /// and is the library default — `bench_ablation_epsilon` compares both.
  bool per_slot_coin = false;
};

/// Per-request candidate base stations (Eq. 9); a request whose
/// fractional row never reaches γ falls back to its argmax station, so
/// the set is never empty.
std::vector<std::vector<std::size_t>> candidate_sets(const FractionalSolution& frac,
                                                     double gamma);

/// ε-greedy randomized rounding (Algorithm 1, lines 5-9) with a
/// capacity-repair pass:
///  * exploit: assign request l to a candidate station with probability
///    proportional to x*_li;
///  * explore: assign to a uniformly random non-candidate station (any
///    station when every station is a candidate);
///  * repair: for each overloaded station, move its requests —
///    smallest x* first, until the station fits — to the cheapest (per
///    current θ) station with room for the whole request, candidates
///    preferred;
///  * improve: a 1-opt pass over the exploit-branch requests (moves
///    restricted to their candidate sets, instantiation sharing
///    accounted) removes the variance randomized rounding leaves behind.
///    Exploration picks are never touched — they are the bandit plays.
///
/// Capacity contract: repair and 1-opt only ever move a request to a
/// station with room for all of it, so neither creates an overload or
/// deepens one. The result is *not* guaranteed capacity-feasible, even
/// when the fractional solution was: a request that no other station
/// has room for stays where rounding put it, and its station stays
/// overloaded (a feasible x* does not imply that a feasible integral
/// assignment exists). Residual overload shows up as
/// sim::SlotRecord::capacity_violation_mhz and is scored as congestion.
Assignment round_assignment(const CachingProblem& problem,
                            const FractionalSolution& frac,
                            const std::vector<double>& demands,
                            const std::vector<double>& theta,
                            const RoundingOptions& options, common::Rng& rng);

/// De-aggregating variant of round_assignment (DESIGN.md §11): takes a
/// *class-level* fractional solution (one x row per demand class of
/// `classing`, as produced by FractionalSolver::solve_classes or
/// LagrangianSolver::solve_classes) and rounds every member request
/// against its class's row — i.e. the uniform expansion
/// x_li := x_{class(l),i}. Over a singleton classing
/// (DemandClassing::build_singletons) this is round_assignment exactly:
/// same draws, same result, and no `agg.spill_requests` count.
///
/// Because each member samples independently from the class row, the
/// per-request assignment distribution is exactly what per-request
/// rounding of the expanded solution would produce: candidate sets,
/// ε-greedy exploration, the bandit's observe() feedback and the
/// realised Eq. 3 objective are all unchanged in expectation. Capacity
/// repair and the 1-opt pass run at per-request granularity, so the
/// final assignment satisfies the same per-request constraints as the
/// unaggregated path; requests the repair pass relocates are counted by
/// the `agg.spill_requests` telemetry counter.
Assignment round_assignment_aggregated(const CachingProblem& problem,
                                       const FractionalSolution& class_frac,
                                       const DemandClassing& classing,
                                       const std::vector<double>& demands,
                                       const std::vector<double>& theta,
                                       const RoundingOptions& options,
                                       common::Rng& rng);

}  // namespace mecsc::core

#endif  // MECSC_CORE_ROUNDING_H
