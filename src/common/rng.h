#ifndef MECSC_COMMON_RNG_H
#define MECSC_COMMON_RNG_H

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace mecsc::common {

/// Deterministic random number generator used by every stochastic
/// component in the library.
///
/// All simulator entities (topology generators, demand models, bandit
/// exploration, GAN initialisation) draw from an explicitly seeded Rng so
/// that every experiment in the paper reproduction is replayable from a
/// single root seed. Child generators are derived with `split()` so that
/// adding draws to one component never perturbs another.
class Rng {
 public:
  using engine_type = std::mt19937_64;

  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Seed this generator was constructed with.
  std::uint64_t seed() const noexcept { return seed_; }

  /// Derives an independent child generator. Successive calls yield
  /// distinct streams; the parent's future output is unaffected by how
  /// much the child is used.
  Rng split() {
    // SplitMix64-style mixing of a fresh draw decorrelates child seeds.
    std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Normal draw. stddev == 0 returns `mean` without a draw
  /// (std::normal_distribution requires stddev > 0).
  double normal(double mean = 0.0, double stddev = 1.0) {
    if (stddev == 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential draw with the given rate (lambda > 0).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Pareto draw with scale x_m > 0 and shape alpha > 0. Heavy-tailed;
  /// used by the bursty-demand models.
  double pareto(double x_m, double alpha) {
    double u = uniform(0.0, 1.0);
    // Guard against u == 0 which would blow up the inverse CDF.
    if (u < 1e-12) u = 1e-12;
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Poisson draw.
  int poisson(double mean) {
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Geometric draw (number of failures before first success).
  int geometric(double p) {
    return std::geometric_distribution<int>(p)(engine_);
  }

  /// Samples an index according to non-negative `weights`. Zero-sum weight
  /// vectors fall back to a uniform choice. Requires weights non-empty.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  engine_type& engine() noexcept { return engine_; }

  /// Serialises the engine's exact stream position (std::mt19937_64's
  /// textual state) for checkpointing. restore_state() resumes the
  /// stream bit-for-bit where save_state() left it.
  std::string save_state() const {
    std::ostringstream os;
    os << engine_;
    return os.str();
  }

  /// Restores a stream position captured by save_state(). Returns false
  /// (leaving the engine untouched on failure paths where extraction
  /// already consumed state is acceptable) when the text does not parse.
  bool restore_state(const std::string& state) {
    std::istringstream is(state);
    is >> engine_;
    return !is.fail();
  }

 private:
  engine_type engine_;
  std::uint64_t seed_;
};

}  // namespace mecsc::common

#endif  // MECSC_COMMON_RNG_H
