// SIMD-vs-scalar equivalence suite (DESIGN.md "SIMD & batching").
//
// Every vectorized kernel is checked against its scalar reference
// (nn::scalar::*) on the same inputs, across shapes chosen to exercise
// the vector main loops, the unrolled multi-stream loops, and the
// scalar/padded tails (sizes mod 4 and mod 16), plus NaN and denormal
// inputs. The FP contract being verified (documented in DESIGN.md):
//   * add/sub/mul/scale/axpy/sigmoid_grad/tanh_grad are bit-exact —
//     same IEEE ops in the same order;
//   * matmul and matmul_aTb keep the scalar k-accumulation order and
//     differ only by FMA contraction (tolerance ~1e-13 relative);
//   * matmul_abT uses partial accumulators (reduction order differs);
//   * sigmoid/tanh use a polynomial exp (tolerance ~1e-12 absolute) and
//     must be position-independent: an element's value may not depend on
//     where it sits in the buffer (this is what makes batched GAN
//     inference bit-identical to sequential).
//
// The flow solver's kernels (flow/simd_relax.h) are bit-exact too and
// are checked against restated copies of MinCostFlow's scalar loops.
//
// When SIMD is inactive (scalar build or non-AVX2 CPU) the dispatchers
// run the reference itself and every nn check still holds trivially;
// the flow-kernel tests skip. The suite is safe in all CI legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "flow/simd_relax.h"
#include "gan/info_rnn_gan.h"
#include "nn/matrix.h"

namespace mecsc {
namespace {

using nn::Matrix;

// Shapes that hit: tiny all-tail, 4-multiples, 16-multiples (unrolled
// streams), and odd sizes whose tails land on every lane count.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 96, 97};

Matrix random_matrix(std::size_t r, std::size_t c, common::Rng& rng) {
  return Matrix::randn(r, c, rng, 2.0);
}

// Bit pattern of a double, so -0.0 vs 0.0 and NaN payloads compare too.
std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof b == sizeof v);
  __builtin_memcpy(&b, &v, sizeof b);
  return b;
}

void expect_bit_equal(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits_of(a[i]), bits_of(b[i]))
        << what << " diverges at " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_close(const Matrix& a, const Matrix& b, double tol,
                  const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      ASSERT_EQ(std::isnan(a[i]), std::isnan(b[i]))
          << what << " NaN mismatch at " << i;
      continue;
    }
    const double scale = std::max(1.0, std::max(std::fabs(a[i]), std::fabs(b[i])));
    ASSERT_NEAR(a[i], b[i], tol * scale) << what << " at " << i;
  }
}

TEST(SimdEquivalence, BitExactElementwise) {
  common::Rng rng(1);
  for (std::size_t n : kSizes) {
    Matrix a = random_matrix(3, n, rng);
    Matrix b = random_matrix(3, n, rng);
    Matrix got, want;

    nn::add_into(got, a, b);
    nn::scalar::add_into(want, a, b);
    expect_bit_equal(got, want, "add");

    nn::sub_into(got, a, b);
    nn::scalar::sub_into(want, a, b);
    expect_bit_equal(got, want, "sub");

    nn::hadamard_into(got, a, b);
    nn::scalar::hadamard_into(want, a, b);
    expect_bit_equal(got, want, "hadamard");

    nn::scale_into(got, a, -1.75);
    nn::scalar::scale_into(want, a, -1.75);
    expect_bit_equal(got, want, "scale");

    nn::sigmoid_grad_into(got, a, b);
    nn::scalar::sigmoid_grad_into(want, a, b);
    expect_bit_equal(got, want, "sigmoid_grad");

    nn::tanh_grad_into(got, a, b);
    nn::scalar::tanh_grad_into(want, a, b);
    expect_bit_equal(got, want, "tanh_grad");

    Matrix y1 = random_matrix(3, n, rng);
    Matrix y2 = y1;
    nn::axpy(y1, a, 0.37);
    nn::scalar::axpy(y2, a, 0.37);
    expect_bit_equal(y1, y2, "axpy");
  }
}

TEST(SimdEquivalence, MatmulWithinFmaTolerance) {
  common::Rng rng(2);
  // (m, k, n) triples covering odd inner/outer dims, single rows/cols
  // (the GAN head is batch×1), and the 16-wide unrolled j-loop.
  const std::size_t dims[][3] = {{1, 1, 1},  {1, 17, 1},  {5, 3, 7},
                                 {4, 4, 4},  {3, 96, 33}, {17, 5, 16},
                                 {8, 33, 1}, {2, 7, 96}};
  for (const auto& d : dims) {
    Matrix a = random_matrix(d[0], d[1], rng);
    Matrix b = random_matrix(d[1], d[2], rng);
    Matrix got, want;

    nn::matmul_into(got, a, b);
    nn::scalar::matmul_into(want, a, b);
    expect_close(got, want, 1e-13, "matmul");

    Matrix bt = random_matrix(d[2], d[1], rng);
    nn::matmul_abT_into(got, a, bt);
    nn::scalar::matmul_abT_into(want, a, bt);
    expect_close(got, want, 1e-12, "matmul_abT");

    Matrix a2 = random_matrix(d[1], d[0], rng);
    nn::matmul_aTb_into(got, a2, b);
    nn::scalar::matmul_aTb_into(want, a2, b);
    expect_close(got, want, 1e-13, "matmul_aTb");
  }
}

TEST(SimdEquivalence, MatmulZeroSkipSparseRows) {
  // The kernels skip a[i,k] == 0 (one-hot inputs); a mostly-zero A must
  // still agree, including an all-zero row.
  common::Rng rng(3);
  Matrix a(6, 9, 0.0);
  a.at(0, 4) = 1.0;
  a.at(2, 0) = -2.5;
  a.at(2, 8) = 0.5;
  Matrix b = random_matrix(9, 13, rng);
  Matrix got, want;
  nn::matmul_into(got, a, b);
  nn::scalar::matmul_into(want, a, b);
  expect_close(got, want, 1e-13, "sparse matmul");
}

TEST(SimdEquivalence, SigmoidTanhWithinTolerance) {
  common::Rng rng(4);
  for (std::size_t n : kSizes) {
    Matrix a = random_matrix(2, n, rng);
    a[0] = 0.0;
    if (n > 2) a[1] = -30.0;  // tanh saturation region
    Matrix got, want;
    nn::map_sigmoid_into(got, a);
    nn::scalar::map_sigmoid_into(want, a);
    expect_close(got, want, 1e-12, "sigmoid");

    nn::map_tanh_into(got, a);
    nn::scalar::map_tanh_into(want, a);
    expect_close(got, want, 1e-12, "tanh");
  }
}

TEST(SimdEquivalence, ExpKernelsArePositionIndependent) {
  // The same value must map to the same bits wherever it sits in the
  // buffer — vector lane, unrolled stream, or padded tail. This is the
  // property that makes batched inference bit-identical to sequential.
  const double probe = 0.62373;
  for (std::size_t n : kSizes) {
    for (std::size_t at : {std::size_t{0}, n - 1}) {
      Matrix a(1, n, -0.25);
      a[at] = probe;
      Matrix one(1, 1, probe);
      Matrix big, small;
      nn::map_sigmoid_into(big, a);
      nn::map_sigmoid_into(small, one);
      EXPECT_EQ(big[at], small[0]) << "sigmoid position-dependent at " << at
                                   << " of " << n;
      nn::map_tanh_into(big, a);
      nn::map_tanh_into(small, one);
      EXPECT_EQ(big[at], small[0]) << "tanh position-dependent at " << at
                                   << " of " << n;
    }
  }
}

TEST(SimdEquivalence, SpecialValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  Matrix a = Matrix::row({nan, -nan, inf, -inf, denorm, -denorm, 0.0, -0.0,
                          710.0, -710.0, 1e-300, -1.0, 1.0});
  Matrix got, want;

  // sigmoid/tanh: NaN propagates, ±inf and the exp over/underflow region
  // hit the exact limits; denormals pass through the polynomial.
  nn::map_sigmoid_into(got, a);
  nn::scalar::map_sigmoid_into(want, a);
  expect_close(got, want, 1e-12, "sigmoid special");
  EXPECT_TRUE(std::isnan(got[0]));
  EXPECT_EQ(got[2], 1.0);  // sigmoid(inf)

  nn::map_tanh_into(got, a);
  nn::scalar::map_tanh_into(want, a);
  expect_close(got, want, 1e-12, "tanh special");
  EXPECT_TRUE(std::isnan(got[0]));
  EXPECT_EQ(got[2], 1.0);
  EXPECT_EQ(got[3], -1.0);
}

TEST(SimdEquivalence, MatrixStorageIsAligned) {
  // The elementwise kernels issue aligned 256-bit loads; every Matrix
  // buffer (including pool-recycled and resized ones) must sit on a
  // 32-byte boundary.
  common::Rng rng(5);
  for (std::size_t n : {1u, 3u, 17u, 64u}) {
    Matrix m = Matrix::randn(n, n + 1, rng);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data().data()) % 32, 0u);
  }
  nn::MatrixPool pool;
  Matrix& s = pool.get(3);
  s.resize(7, 5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data().data()) % 32, 0u);
}

TEST(SimdEquivalence, BatchedGanInferenceMatchesSequential) {
  gan::InfoRnnGanConfig cfg;
  cfg.seq_len = 6;
  cfg.hidden = 8;
  gan::InfoRnnGan g(cfg, 1234);

  // Mixed history lengths (shorter than, equal to, longer than seq_len)
  // and batch sizes that are not lane multiples.
  std::vector<std::vector<double>> histories;
  std::vector<std::size_t> clusters;
  common::Rng rng(6);
  for (std::size_t i = 0; i < 11; ++i) {
    std::vector<double> h(2 + i);
    for (auto& v : h) v = 0.5 + 0.45 * rng.normal() / 3.0;
    histories.push_back(h);
    clusters.push_back(i % cfg.num_codes);
  }

  const std::vector<double> batched = g.predict_next_batch(histories, clusters);
  ASSERT_EQ(batched.size(), histories.size());
  for (std::size_t i = 0; i < histories.size(); ++i) {
    const double seq = g.predict_next(histories[i], clusters[i]);
    EXPECT_EQ(batched[i], seq) << "forecast " << i
                               << " depends on batch composition";
  }
}

// ---------------------------------------------------------------------
// Flow-solver kernels (flow/simd_relax.h) against MinCostFlow's scalar
// Dijkstra loops, restated below as references. The kernels promise bit
// identity — simd_relax.cpp is built with -ffp-contract=off — so every
// comparison is exact. No binary runs both paths of MinCostFlow, hence
// the kernel-level check. Each case covers lengths 0–13 (every tail
// path) plus a few multi-block lengths.
// ---------------------------------------------------------------------

#if defined(MECSC_SIMD_AVX2)
constexpr double kFlowEps = 1e-9;  // MinCostFlow's kEps
constexpr double kInf = std::numeric_limits<double>::infinity();
const std::size_t kFlowLengths[] = {0, 1, 2,  3,  4,  5,  6,  7,  8,
                                    9, 10, 11, 12, 13, 31, 64};

// A value from a small pool, so exact ties are frequent.
double tied_value(common::Rng& rng) {
  static const double kPool[] = {0.0, 0.5, 1.25, 2.0, 7.5};
  return kPool[rng.index(std::size(kPool))];
}
#endif  // MECSC_SIMD_AVX2

// Skips unless the AVX2 kernels run in this build on this CPU.
class FlowSimdKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!common::simd::active()) {
      GTEST_SKIP() << "AVX2 kernels inactive (" << common::simd::scalar_reason()
                   << ")";
    }
  }
};

// The relaxation loop's coarse test (residual capacity, then tentative
// distance), without the done-set check the kernel also leaves out.
TEST_F(FlowSimdKernels, FilterCandidatesMatchesScalarRelaxTest) {
#if defined(MECSC_SIMD_AVX2)
  constexpr std::size_t kNodes = 24;
  common::Rng rng(71);
  for (std::size_t len : kFlowLengths) {
    for (std::uint32_t lo : {0u, 1u, 3u}) {
      for (int trial = 0; trial < 50; ++trial) {
        const std::uint32_t hi = lo + static_cast<std::uint32_t>(len);
        std::vector<double> cap(hi), cost(hi);
        std::vector<std::uint32_t> to(hi);
        std::vector<double> pot(kNodes), dist(kNodes);
        for (std::size_t v = 0; v < kNodes; ++v) {
          pot[v] = tied_value(rng);
          // Undiscovered (+inf), tied and arbitrary distances.
          const double r = rng.uniform();
          dist[v] = r < 0.3   ? kInf
                    : r < 0.6 ? tied_value(rng)
                              : rng.uniform(0.0, 10.0);
        }
        const double base = tied_value(rng);
        for (std::uint32_t at = 0; at < hi; ++at) {
          // Capacities at, just above and below the eps threshold.
          const double r = rng.uniform();
          cap[at] = r < 0.2   ? kFlowEps
                    : r < 0.3 ? 0.0
                    : r < 0.4 ? 2 * kFlowEps
                              : rng.uniform(0.0, 5.0);
          to[at] = static_cast<std::uint32_t>(rng.index(kNodes));
          cost[at] =
              rng.bernoulli(0.5) ? tied_value(rng) : rng.uniform(0.0, 10.0);
          if (rng.bernoulli(0.2)) {
            // dist[v] sits eps above the tentative distance: the
            // threshold case of the strict <.
            const std::uint32_t v = to[at];
            dist[v] = base + cost[at] - pot[v] + kFlowEps;
          }
        }
        std::vector<std::uint32_t> want;
        for (std::uint32_t at = lo; at < hi; ++at) {
          if (cap[at] <= kFlowEps) continue;
          const std::uint32_t v = to[at];
          const double nd = base + cost[at] - pot[v];
          if (nd < dist[v] - kFlowEps) want.push_back(at);
        }
        std::vector<std::uint32_t> got(len + 1);
        got.resize(flow::avx2::filter_candidates(cap.data(), cost.data(),
                                                 to.data(), pot.data(),
                                                 dist.data(), base, kFlowEps,
                                                 lo, hi, got.data()));
        ASSERT_EQ(got, want)
            << "len " << len << " lo " << lo << " trial " << trial;
      }
    }
  }
#endif
}

// Johnson potential update: pot[v] += std::min(dist[v], dsink), which
// keeps dist on a tie — visible in the sign of a zero.
TEST_F(FlowSimdKernels, PotentialUpdateMatchesScalarLoop) {
#if defined(MECSC_SIMD_AVX2)
  common::Rng rng(72);
  for (std::size_t n : kFlowLengths) {
    for (int trial = 0; trial < 50; ++trial) {
      const double dsink = trial % 5 == 0 ? 0.0 : tied_value(rng);
      std::vector<double> pot(n), dist(n);
      for (std::size_t v = 0; v < n; ++v) {
        const double r = rng.uniform();
        if (dsink == 0.0 && r < 0.3) {
          dist[v] = -0.0;  // ties dsink = +0.0; -0.0 + -0.0 keeps the sign
          pot[v] = -0.0;
          continue;
        }
        dist[v] = r < 0.3 ? kInf : r < 0.6 ? dsink : rng.uniform(0.0, 10.0);
        pot[v] = rng.uniform(-5.0, 5.0);
      }
      std::vector<double> want = pot;
      for (std::size_t v = 0; v < n; ++v) want[v] += std::min(dist[v], dsink);
      flow::avx2::potential_update(pot.data(), dist.data(), dsink, n);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(bits_of(pot[v]), bits_of(want[v]))
            << "n " << n << " trial " << trial << " at " << v << ": " << pot[v]
            << " vs " << want[v];
      }
    }
  }
#endif
}

// The dense Dijkstra's frontier scan: smallest dist, first occurrence on
// exact ties (strict <), so both paths settle the same node.
TEST_F(FlowSimdKernels, FrontierArgminMatchesScalarScan) {
#if defined(MECSC_SIMD_AVX2)
  constexpr std::size_t kNodes = 80;
  common::Rng rng(73);
  for (std::size_t f : kFlowLengths) {
    if (f == 0) continue;  // the kernel requires a non-empty frontier
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<double> dist(kNodes);
      for (double& d : dist) {
        // trial 0: all +inf, the untouched-frontier corner.
        d = trial == 0 || rng.bernoulli(0.2) ? kInf : tied_value(rng);
      }
      std::vector<std::uint32_t> frontier(kNodes);
      for (std::uint32_t v = 0; v < kNodes; ++v) frontier[v] = v;
      rng.shuffle(frontier);
      frontier.resize(f);
      std::size_t want = 0;
      double best = dist[frontier[0]];
      for (std::size_t s = 1; s < f; ++s) {
        if (dist[frontier[s]] < best) {
          best = dist[frontier[s]];
          want = s;
        }
      }
      EXPECT_EQ(flow::avx2::frontier_argmin(frontier.data(), f, dist.data()),
                want)
          << "f " << f << " trial " << trial;
    }
  }
#endif
}

}  // namespace
}  // namespace mecsc
