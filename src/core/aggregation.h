#ifndef MECSC_CORE_AGGREGATION_H
#define MECSC_CORE_AGGREGATION_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/problem.h"

namespace mecsc::core {

/// Demand-class aggregation switch (DESIGN.md §11). Per-request LP
/// columns scale linearly in |R|; grouping near-identical requests into
/// demand classes keeps the optimisation core's work proportional to the
/// number of *distinct* (service, home station, demand bucket) profiles
/// instead, which is what makes 100k-request slots tractable.
enum class AggregateMode {
  /// Resolve from the MECSC_AGGREGATE environment variable
  /// ("off" | "auto" | "on"); unset, empty or unparsable values mean
  /// kOff. This is the library default, so every bench and example
  /// honours the env switch without code changes.
  kEnv,
  /// Never aggregate: the per-request path, bit-for-bit identical to the
  /// pre-aggregation library.
  kOff,
  /// Aggregate only when the instance is large enough for the class
  /// machinery to pay for itself (AggregationOptions::auto_threshold).
  kAuto,
  /// Always formulate the per-slot LP over demand classes.
  kOn,
};

/// Maps kEnv to the MECSC_AGGREGATE environment variable (defaulting to
/// kOff); explicit modes pass through unchanged, so code-level settings
/// always win over the environment.
AggregateMode resolve_aggregate_mode(AggregateMode configured);

/// Tunables of the demand-class construction.
struct AggregationOptions {
  /// Geometric width of the unit-demand buckets: requests l, l' of one
  /// (service, home station) pair land in the same class when their
  /// demands differ by less than this factor, i.e. the bucket index is
  /// floor(log(ρ) / log(bucket_ratio)), computed platform-stably (the
  /// default 2.0 reads the IEEE-754 exponent via std::ilogb; other
  /// ratios use an epsilon-nudged log quotient) so demands sitting
  /// exactly on a bucket edge land in the same bucket on every
  /// libm/FMA configuration. Must be > 1. Smaller values mean
  /// more classes and a tighter de-aggregation; 2.0 keeps the realised
  /// delay within ~2% of the per-request path on the paper's workloads
  /// (bench_scale) while compressing dense instances by an order of
  /// magnitude (class cost coefficients stay exact sums regardless of
  /// the ratio — only within-class demand heterogeneity grows).
  double bucket_ratio = 2.0;
  /// kAuto aggregates only when the instance has at least this many
  /// requests; below it the per-request path is already fast and exact.
  std::size_t auto_threshold = 1024;
};

/// One demand class: the requests of one service, homed at one base
/// station, whose per-slot demands fall in one geometric bucket (or,
/// from DemandClassing::build_singletons, exactly one request). The LP
/// column x_{class,i} carries the class's *summed* demand, so routing a
/// class is exactly as hard on station capacity as routing its members
/// individually.
struct DemandClass {
  /// Service id shared by every member (k in the paper's S_k).
  std::uint32_t service = 0;
  /// Home base station shared by every member — members therefore share
  /// the network-access latency to every candidate serving station.
  std::uint32_t home_station = 0;
  /// Geometric demand-bucket index (see AggregationOptions);
  /// kZeroDemandBucket for ρ = 0 members. A singleton build does not
  /// bucket and leaves it 0.
  std::int32_t bucket = 0;
  /// Σ_l ρ_l(t) over the members — the class's demand this slot.
  double rho_sum = 0.0;
  /// ρ-weighted mean of the members' per-unit wireless time
  /// tx_unit_ms(l). The wireless term varies per member (user position)
  /// even within a class. The mean is seeded with the first member's
  /// value exactly, so a one-member class carries its request's own
  /// tx_unit_ms, and it stays finite when every member has ρ = 0.
  double tx_unit_ms = 0.0;
  /// Number of member requests.
  std::uint32_t count = 0;

  /// Member-summed serving cost at a station with per-unit delay
  /// `theta_i` and network-access latency `access` from the shared home
  /// station: Σ_l [ρ_l·(θ_i + tx_l) + access] =
  /// rho_sum·(θ_i + tx_unit_ms) + count·access. This is the one cost
  /// row of every solver; for a one-member class it equals the
  /// request's ρ_l·(θ_i + tx_l) + access_li bit for bit.
  double serving_cost(double theta_i, double access) const noexcept {
    return rho_sum * (theta_i + tx_unit_ms) + static_cast<double>(count) * access;
  }

  /// Bucket index reserved for zero-demand members (they consume no
  /// capacity and are pinned, not routed).
  static constexpr std::int32_t kZeroDemandBucket = INT32_MIN;
};

/// The per-slot request → class partition (DESIGN.md §11) — the one
/// column type of the per-slot LP.
///
/// Built once per slot from the slot's demand vector in O(|R|); class
/// order is first-appearance (request-index) order, so the partition —
/// and everything solved on top of it — is deterministic. The instance
/// owns reusable buffers: steady-state rebuilds allocate nothing beyond
/// hash-table churn.
///
/// Two builds: build() groups requests into demand classes, and
/// build_singletons() makes request l its own class l — the per-request
/// path, whose columns (and hence solutions) are bit for bit the
/// request columns.
///
/// De-aggregation invariants (tests/test_aggregation.cpp):
///  * a class-level fractional solution expanded uniformly to members
///    (x_li := x_{class(l),i}) preserves Σ_i x_li = 1 per request;
///  * the expansion loads every station with exactly the class flow, so
///    capacity feasibility of the class solution carries over;
///  * the Eq. 3 objective of the expansion equals the class objective
///    up to floating-point rounding (class cost coefficients are the
///    member sums).
class DemandClassing {
 public:
  /// Rebuilds the partition for one slot. `demands` is the slot's ρ_l
  /// vector (one entry per request of `problem`).
  void build(const CachingProblem& problem, const std::vector<double>& demands,
             const AggregationOptions& options);

  /// Rebuilds the partition with one class per request: class l is
  /// request l, in request order, with no bucketing or hashing.
  void build_singletons(const CachingProblem& problem,
                        const std::vector<double>& demands);

  /// True when the latest build was build_singletons(), i.e.
  /// class_of_request() is the identity.
  bool singletons() const noexcept { return singletons_; }

  /// Number of classes of the latest build (0 before the first build).
  std::size_t num_classes() const noexcept { return classes_.size(); }

  /// Number of requests the latest build partitioned.
  std::size_t num_requests() const noexcept { return class_of_.size(); }

  /// The classes, in first-appearance order.
  const std::vector<DemandClass>& classes() const noexcept { return classes_; }

  /// class_of_request()[l] = index into classes() of request l's class.
  const std::vector<std::uint32_t>& class_of_request() const noexcept {
    return class_of_;
  }

  /// Requests per class: |R| / max(1, #classes). The solver's speedup is
  /// roughly this factor (columns shrink by it).
  double compression_ratio() const noexcept {
    return classes_.empty()
               ? 1.0
               : static_cast<double>(class_of_.size()) /
                     static_cast<double>(classes_.size());
  }

 private:
  std::vector<DemandClass> classes_;
  std::vector<std::uint32_t> class_of_;
  bool singletons_ = false;
  /// Packed (service, home, bucket) key → class index; reused across
  /// builds.
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
};

}  // namespace mecsc::core

#endif  // MECSC_CORE_AGGREGATION_H
