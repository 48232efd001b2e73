#ifndef MECSC_COMMON_STATS_H
#define MECSC_COMMON_STATS_H

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace mecsc::common {

/// Numerically stable running statistics (Welford's algorithm).
///
/// Collects count / mean / variance / min / max of a stream of samples
/// without storing them. Used for per-slot delay accounting and for
/// aggregating results over the 80 topology replications the paper uses.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator into this one (parallel Welford merge).
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const noexcept;
  /// Sample (n-1) variance; 0 for fewer than 2 samples.
  double sample_variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean of a vector; 0 for empty input.
double mean_of(const std::vector<double>& v) noexcept;

/// Exact quantile of a copy of `v` (linear interpolation); q in [0,1].
double quantile_of(std::vector<double> v, double q);

}  // namespace mecsc::common

#endif  // MECSC_COMMON_STATS_H
