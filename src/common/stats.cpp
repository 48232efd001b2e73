#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mecsc::common {

void RunningStats::add(double x) noexcept {
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(n_);
  double nb = static_cast<double>(other.n_);
  double delta = other.mean_ - mean_;
  double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean_of(const std::vector<double>& v) noexcept {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile_of: empty input");
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(v.size() - 1);
  auto i = static_cast<std::size_t>(pos);
  double frac = pos - static_cast<double>(i);
  if (i + 1 >= v.size()) return v.back();
  return v[i] * (1.0 - frac) + v[i + 1] * frac;
}

}  // namespace mecsc::common
