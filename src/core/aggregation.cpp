#include "core/aggregation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.h"

namespace mecsc::core {

AggregateMode resolve_aggregate_mode(AggregateMode configured) {
  if (configured != AggregateMode::kEnv) return configured;
  const char* v = std::getenv("MECSC_AGGREGATE");
  if (v == nullptr || *v == '\0') return AggregateMode::kOff;
  if (std::strcmp(v, "off") == 0) return AggregateMode::kOff;
  if (std::strcmp(v, "auto") == 0) return AggregateMode::kAuto;
  if (std::strcmp(v, "on") == 0) return AggregateMode::kOn;
  std::fprintf(stderr,
               "mecsc: ignoring MECSC_AGGREGATE=\"%s\" — expected off, auto "
               "or on\n",
               v);
  return AggregateMode::kOff;
}

namespace {

/// Packs (service, home, bucket) into one 64-bit hash key. Services and
/// stations each get 24 bits (16M — far beyond any instance here); the
/// bucket is clamped into 16 bits, which spans demand ratios of
/// bucket_ratio^±32767 — unreachable for finite demands.
std::uint64_t pack_key(std::uint32_t service, std::uint32_t home,
                       std::int32_t bucket) {
  std::int32_t clamped = std::clamp(bucket, -32767, 32767);
  auto biased = static_cast<std::uint64_t>(clamped + 32768);
  return (static_cast<std::uint64_t>(service) << 40) |
         (static_cast<std::uint64_t>(home) << 16) | biased;
}

/// Nudge applied before the floor of the generic log-ratio bucketing: a
/// demand sitting exactly on a bucket edge (ρ = ratio^j) evaluates
/// log(ρ)·inv_log_ratio to j ± a few ulp depending on the libm build and
/// whether the compiler contracts the multiply into an FMA; flooring
/// that raw value puts edge demands in bucket j on one CI leg and j−1 on
/// another, so MECSC_AGGREGATE runs were not reproducible across the
/// SIMD/scalar matrix. The nudge absorbs the ulp noise (it only moves
/// demands within a ~1e-9 relative band below an edge up into the edge's
/// bucket — far tighter than any bucket_ratio > 1 resolves anyway).
constexpr double kBucketEdgeNudge = 1e-9;

/// Platform-stable geometric bucket index of a positive demand:
/// floor(log(ρ) / log(bucket_ratio)). The default ratio 2.0 uses the
/// IEEE-754 exponent directly (std::ilogb — exact on every platform, no
/// libm in the loop); other ratios fall back to the epsilon-nudged
/// log-quotient. Pinned by AggregationTest.BucketEdgesArePlatformStable.
std::int32_t demand_bucket(double rho, double bucket_ratio,
                           double inv_log_ratio) {
  if (bucket_ratio == 2.0) return static_cast<std::int32_t>(std::ilogb(rho));
  return static_cast<std::int32_t>(
      std::floor(std::log(rho) * inv_log_ratio + kBucketEdgeNudge));
}

}  // namespace

void DemandClassing::build(const CachingProblem& problem,
                           const std::vector<double>& demands,
                           const AggregationOptions& options) {
  const std::size_t nr = problem.num_requests();
  MECSC_CHECK_MSG(demands.size() == nr, "demand vector size mismatch");
  MECSC_CHECK_MSG(options.bucket_ratio > 1.0, "bucket_ratio must be > 1");
  MECSC_CHECK_MSG(problem.num_services() < (1u << 24) &&
                      problem.num_stations() < (1u << 24),
                  "instance too large for the packed class key");

  classes_.clear();
  class_of_.resize(nr);
  index_.clear();
  singletons_ = false;

  const double inv_log_ratio = 1.0 / std::log(options.bucket_ratio);
  const auto& requests = problem.requests();
  for (std::size_t l = 0; l < nr; ++l) {
    const double rho = demands[l];
    std::int32_t bucket = DemandClass::kZeroDemandBucket;
    if (rho > 0.0) {
      bucket = demand_bucket(rho, options.bucket_ratio, inv_log_ratio);
    }
    const auto service = static_cast<std::uint32_t>(requests[l].service_id);
    const auto home = static_cast<std::uint32_t>(requests[l].home_station);
    const std::uint64_t key = pack_key(service, home, bucket);
    auto [it, inserted] =
        index_.try_emplace(key, static_cast<std::uint32_t>(classes_.size()));
    const double tx = problem.tx_unit_ms(l);
    if (inserted) {
      DemandClass c;
      c.service = service;
      c.home_station = home;
      c.bucket = bucket;
      c.tx_unit_ms = tx;
      classes_.push_back(c);
    }
    DemandClass& c = classes_[it->second];
    if (!inserted && rho > 0.0) {
      c.tx_unit_ms += rho / (c.rho_sum + rho) * (tx - c.tx_unit_ms);
    }
    c.rho_sum += rho;
    ++c.count;
    class_of_[l] = it->second;
  }
}

void DemandClassing::build_singletons(const CachingProblem& problem,
                                      const std::vector<double>& demands) {
  const std::size_t nr = problem.num_requests();
  MECSC_CHECK_MSG(demands.size() == nr, "demand vector size mismatch");
  classes_.resize(nr);
  class_of_.resize(nr);
  singletons_ = true;
  const auto& requests = problem.requests();
  for (std::size_t l = 0; l < nr; ++l) {
    DemandClass& c = classes_[l];
    c.service = static_cast<std::uint32_t>(requests[l].service_id);
    c.home_station = static_cast<std::uint32_t>(requests[l].home_station);
    c.bucket = 0;
    c.rho_sum = demands[l];
    c.tx_unit_ms = problem.tx_unit_ms(l);
    c.count = 1;
    class_of_[l] = static_cast<std::uint32_t>(l);
  }
}

}  // namespace mecsc::core
