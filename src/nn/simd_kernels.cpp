#include "nn/simd_kernels.h"

#if defined(MECSC_SIMD_AVX2)

#include <immintrin.h>

#include <cassert>
#include <cstdint>

// Every function in this TU carries the target attribute instead of the
// whole build using -mavx2: the binary stays runnable on any x86-64
// machine, and common::simd::active() gates entry at run time.
#define MECSC_AVX2 __attribute__((target("avx2,fma")))

namespace mecsc::nn::avx2 {

namespace {

inline void assert_aligned(const double* p) {
  assert(reinterpret_cast<std::uintptr_t>(p) % 32 == 0 &&
         "Matrix storage must be 32-byte aligned");
  (void)p;
}

// ---- vector exp ----------------------------------------------------------
// exp(x) for 4 doubles: range-reduce x = n·ln2 + r with |r| ≤ ln2/2,
// evaluate the degree-13 Taylor polynomial of exp(r) (truncation error
// ~1.7e-16 relative at the interval edge), scale by 2^n through the
// exponent bits. Out-of-range and NaN lanes are blended to 0 / inf /
// NaN explicitly, matching std::exp's limiting values.
MECSC_AVX2 inline __m256d exp_pd(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634074);
  const __m256d ln2_hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d ln2_lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d exp_hi = _mm256_set1_pd(709.0);   // above: overflow → inf
  const __m256d exp_lo = _mm256_set1_pd(-708.0);  // below: underflow → 0

  // Round x·log2e to the nearest integer with the 1.5·2^52 magic-number
  // add (round-to-nearest-even, identical to round_pd): t's low mantissa
  // bits then hold n + 2^51 directly, which both recovers n as a double
  // (t − shifter) and feeds the 2^n exponent construction below without
  // any cross-domain int↔fp converts on the critical path.
  const __m256d shifter = _mm256_set1_pd(6755399441055744.0);  // 1.5·2^52
  __m256d t = _mm256_fmadd_pd(x, log2e, shifter);
  __m256d n = _mm256_sub_pd(t, shifter);
  // r = x - n·ln2 in two pieces for extra precision.
  __m256d r = _mm256_fnmadd_pd(n, ln2_hi, x);
  r = _mm256_fnmadd_pd(n, ln2_lo, r);

  // Horner over 1/13!, 1/12!, ..., 1/1!, 1.
  __m256d p = _mm256_set1_pd(1.6059043836821614599e-10);  // 1/13!
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(2.0876756987868098979e-09));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(2.5052108385441718775e-08));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(2.7557319223985890653e-07));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(2.7557319223985892511e-06));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(2.4801587301587301566e-05));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.9841269841269841253e-04));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.3888888888888889419e-03));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(8.3333333333333332177e-03));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(4.1666666666666664354e-02));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.6666666666666665741e-01));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(5.0e-01));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));

  // 2^n via exponent bits: (n + 1023) << 52. |x| ≤ 709 keeps n (and the
  // biased exponent) in normal range, so the shift construction is exact.
  // t's low mantissa bits are n + 2^51 (see the magic-number add above);
  // the shift by 52 discards t's own exponent field.
  __m256i n64 = _mm256_add_epi64(_mm256_castpd_si256(t),
                                 _mm256_set1_epi64x(1023 - (1LL << 51)));
  __m256i pow2 = _mm256_slli_epi64(n64, 52);
  __m256d result = _mm256_mul_pd(p, _mm256_castsi256_pd(pow2));

  // Out-of-range / NaN fixups behind one predictable branch: activation
  // inputs are almost always well inside (−708, 708], so the three
  // always-on blends this replaces were pure inner-loop overhead. The
  // NLE_UQ compare is unordered-true, so NaN lanes take the slow path
  // too; results are bit-identical either way.
  __m256d ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  if (__builtin_expect(_mm256_movemask_pd(_mm256_cmp_pd(
                           ax, _mm256_set1_pd(708.0), _CMP_NLE_UQ)),
                       0) != 0) {
    __m256d inf = _mm256_set1_pd(__builtin_inf());
    __m256d zero = _mm256_setzero_pd();
    result =
        _mm256_blendv_pd(result, inf, _mm256_cmp_pd(x, exp_hi, _CMP_GT_OQ));
    result =
        _mm256_blendv_pd(result, zero, _mm256_cmp_pd(x, exp_lo, _CMP_LT_OQ));
    // NaN lanes: comparisons above are false for NaN, so propagate x.
    result = _mm256_blendv_pd(result, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
  }
  return result;
}

MECSC_AVX2 inline __m256d sigmoid_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d e = exp_pd(_mm256_sub_pd(_mm256_setzero_pd(), x));
  return _mm256_div_pd(one, _mm256_add_pd(one, e));
}

// tanh(x) = sign(x) · (e^{2|x|} − 1) / (e^{2|x|} + 1); |x| keeps the
// exponential bounded below by 1 so the quotient never hits inf/inf.
// |x| ≥ 20 saturates to ±1 (1 − 2e^{−40} rounds to 1 in double).
MECSC_AVX2 inline __m256d tanh_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d sat = _mm256_set1_pd(20.0);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d ax = _mm256_andnot_pd(sign_mask, x);
  __m256d sign = _mm256_and_pd(sign_mask, x);
  __m256d e = exp_pd(_mm256_mul_pd(two, ax));
  __m256d t = _mm256_div_pd(_mm256_sub_pd(e, one), _mm256_add_pd(e, one));
  t = _mm256_blendv_pd(t, one, _mm256_cmp_pd(ax, sat, _CMP_GE_OQ));
  // NaN: the blends above miss NaN lanes (comparisons are false), and
  // (e−1)/(e+1) already propagates NaN through e.
  return _mm256_or_pd(t, sign);
}

}  // namespace

MECSC_AVX2 void matmul(double* c, const double* a, const double* b,
                       std::size_t m, std::size_t kk, std::size_t n) {
  // Same i-k-j order, k-blocking, and zero-skip as the scalar reference
  // (matrix.cpp): each output element accumulates over k in the scalar
  // order, so the only FP difference is the FMA contraction.
  constexpr std::size_t kKB = 64;
  for (std::size_t k0 = 0; k0 < kk; k0 += kKB) {
    const std::size_t k1 = k0 + kKB < kk ? k0 + kKB : kk;
    for (std::size_t i = 0; i < m; ++i) {
      const double* ar = a + i * kk;
      double* cr = c + i * n;
      std::size_t j = 0;
      // 32-column register tile: the c packs live in 8 ymm accumulators
      // for the whole k-block, so each k costs one broadcast + 8 b-row
      // loads for 8 FMAs instead of also reloading and restoring c —
      // the j-inner form above ~halved on c traffic. The 8 independent
      // accumulator chains hide the 4-cycle FMA latency.
      for (; j + 32 <= n; j += 32) {
        // Named accumulators: -O2 does not unroll a p-loop over an
        // __m256d array, and the spilled array costs more than the c
        // reloads it was meant to save.
        double* cj = cr + j;
        __m256d a0 = _mm256_loadu_pd(cj), a1 = _mm256_loadu_pd(cj + 4),
                a2 = _mm256_loadu_pd(cj + 8), a3 = _mm256_loadu_pd(cj + 12),
                a4 = _mm256_loadu_pd(cj + 16), a5 = _mm256_loadu_pd(cj + 20),
                a6 = _mm256_loadu_pd(cj + 24), a7 = _mm256_loadu_pd(cj + 28);
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = ar[k];
          if (aik == 0.0) continue;  // one-hot / sparse inputs are common
          const __m256d va = _mm256_set1_pd(aik);
          const double* br = b + k * n + j;
          a0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br), a0);
          a1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br + 4), a1);
          a2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br + 8), a2);
          a3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br + 12), a3);
          a4 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br + 16), a4);
          a5 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br + 20), a5);
          a6 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br + 24), a6);
          a7 = _mm256_fmadd_pd(va, _mm256_loadu_pd(br + 28), a7);
        }
        _mm256_storeu_pd(cj, a0);
        _mm256_storeu_pd(cj + 4, a1);
        _mm256_storeu_pd(cj + 8, a2);
        _mm256_storeu_pd(cj + 12, a3);
        _mm256_storeu_pd(cj + 16, a4);
        _mm256_storeu_pd(cj + 20, a5);
        _mm256_storeu_pd(cj + 24, a6);
        _mm256_storeu_pd(cj + 28, a7);
      }
      // Single-pack tile for the 4..31-column tail, then scalar columns;
      // both keep the same ascending-k accumulation order per element.
      for (; j + 4 <= n; j += 4) {
        __m256d acc = _mm256_loadu_pd(cr + j);
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = ar[k];
          if (aik == 0.0) continue;
          acc = _mm256_fmadd_pd(_mm256_set1_pd(aik),
                                _mm256_loadu_pd(b + k * n + j), acc);
        }
        _mm256_storeu_pd(cr + j, acc);
      }
      for (; j < n; ++j) {
        double s = cr[j];
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = ar[k];
          if (aik == 0.0) continue;
          s += aik * b[k * n + j];
        }
        cr[j] = s;
      }
    }
  }
}

MECSC_AVX2 void matmul_abT(double* c, const double* a, const double* b,
                           std::size_t m, std::size_t kk, std::size_t n) {
  // Dot products over k with four partial accumulators (the one kernel
  // whose reduction order differs from scalar; see header contract).
  const std::size_t k16 = kk & ~std::size_t(15);
  const std::size_t k4 = kk & ~std::size_t(3);
  for (std::size_t i = 0; i < m; ++i) {
    const double* ar = a + i * kk;
    double* cr = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* br = b + j * kk;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      std::size_t k = 0;
      for (; k < k16; k += 16) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + k),
                               _mm256_loadu_pd(br + k), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + k + 4),
                               _mm256_loadu_pd(br + k + 4), acc1);
        acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + k + 8),
                               _mm256_loadu_pd(br + k + 8), acc2);
        acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + k + 12),
                               _mm256_loadu_pd(br + k + 12), acc3);
      }
      for (; k < k4; k += 4) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + k),
                               _mm256_loadu_pd(br + k), acc0);
      }
      __m256d acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                  _mm256_add_pd(acc2, acc3));
      __m128d lo = _mm256_castpd256_pd128(acc);
      __m128d hi = _mm256_extractf128_pd(acc, 1);
      __m128d sum2 = _mm_add_pd(lo, hi);
      double s = _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
      for (; k < kk; ++k) s += ar[k] * br[k];
      cr[j] = s;
    }
  }
}

MECSC_AVX2 void matmul_aTb(double* c, const double* a, const double* b,
                           std::size_t m, std::size_t kk, std::size_t n) {
  // Rank-1 updates in the scalar order (k outer), j-vectorized.
  const std::size_t n4 = n & ~std::size_t(3);
  for (std::size_t k = 0; k < kk; ++k) {
    const double* ar = a + k * m;
    const double* br = b + k * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double aki = ar[i];
      if (aki == 0.0) continue;
      double* cr = c + i * n;
      const __m256d va = _mm256_set1_pd(aki);
      std::size_t j = 0;
      for (; j < n4; j += 4) {
        _mm256_storeu_pd(cr + j, _mm256_fmadd_pd(va, _mm256_loadu_pd(br + j),
                                                 _mm256_loadu_pd(cr + j)));
      }
      for (; j < n; ++j) cr[j] += aki * br[j];
    }
  }
}

MECSC_AVX2 void add(double* out, const double* a, const double* b,
                    std::size_t n) {
  assert_aligned(out), assert_aligned(a), assert_aligned(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(out + i,
                    _mm256_add_pd(_mm256_load_pd(a + i), _mm256_load_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

MECSC_AVX2 void sub(double* out, const double* a, const double* b,
                    std::size_t n) {
  assert_aligned(out), assert_aligned(a), assert_aligned(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(out + i,
                    _mm256_sub_pd(_mm256_load_pd(a + i), _mm256_load_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

MECSC_AVX2 void mul(double* out, const double* a, const double* b,
                    std::size_t n) {
  assert_aligned(out), assert_aligned(a), assert_aligned(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(out + i,
                    _mm256_mul_pd(_mm256_load_pd(a + i), _mm256_load_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

MECSC_AVX2 void scale(double* out, const double* a, double s, std::size_t n) {
  assert_aligned(out), assert_aligned(a);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(out + i, _mm256_mul_pd(vs, _mm256_load_pd(a + i)));
  }
  for (; i < n; ++i) out[i] = s * a[i];
}

MECSC_AVX2 void sigmoid(double* out, const double* a, std::size_t n) {
  assert_aligned(out), assert_aligned(a);
  std::size_t i = 0;
  // Four independent streams per iteration: the degree-13 Horner chain
  // in exp_pd and the final division are latency-bound, so interleaving
  // is what buys the throughput (the per-lane arithmetic is unchanged).
  for (; i + 16 <= n; i += 16) {
    __m256d r0 = sigmoid_pd(_mm256_load_pd(a + i));
    __m256d r1 = sigmoid_pd(_mm256_load_pd(a + i + 4));
    __m256d r2 = sigmoid_pd(_mm256_load_pd(a + i + 8));
    __m256d r3 = sigmoid_pd(_mm256_load_pd(a + i + 12));
    _mm256_store_pd(out + i, r0);
    _mm256_store_pd(out + i + 4, r1);
    _mm256_store_pd(out + i + 8, r2);
    _mm256_store_pd(out + i + 12, r3);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(out + i, sigmoid_pd(_mm256_load_pd(a + i)));
  }
  if (i < n) {
    // Tail through the same lane-wise polynomial via a padded vector, so
    // an element's value never depends on its position in the buffer —
    // that is what keeps batched GAN inference bit-identical to the
    // sequential path (a batch×1 head output is all tail at batch 1).
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) buf[j - i] = a[j];
    _mm256_store_pd(buf, sigmoid_pd(_mm256_load_pd(buf)));
    for (std::size_t j = i; j < n; ++j) out[j] = buf[j - i];
  }
}

MECSC_AVX2 void tanh(double* out, const double* a, std::size_t n) {
  assert_aligned(out), assert_aligned(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {  // interleaved: see sigmoid
    __m256d r0 = tanh_pd(_mm256_load_pd(a + i));
    __m256d r1 = tanh_pd(_mm256_load_pd(a + i + 4));
    _mm256_store_pd(out + i, r0);
    _mm256_store_pd(out + i + 4, r1);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(out + i, tanh_pd(_mm256_load_pd(a + i)));
  }
  if (i < n) {  // padded-vector tail: position-independent, see sigmoid
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) buf[j - i] = a[j];
    _mm256_store_pd(buf, tanh_pd(_mm256_load_pd(buf)));
    for (std::size_t j = i; j < n; ++j) out[j] = buf[j - i];
  }
}

MECSC_AVX2 void sigmoid_grad(double* out, const double* g, const double* y,
                             std::size_t n) {
  assert_aligned(out), assert_aligned(g), assert_aligned(y);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d yv = _mm256_load_pd(y + i);
    __m256d d = _mm256_mul_pd(yv, _mm256_sub_pd(one, yv));
    _mm256_store_pd(out + i, _mm256_mul_pd(_mm256_load_pd(g + i), d));
  }
  for (; i < n; ++i) out[i] = g[i] * (y[i] * (1.0 - y[i]));
}

MECSC_AVX2 void tanh_grad(double* out, const double* g, const double* y,
                          std::size_t n) {
  assert_aligned(out), assert_aligned(g), assert_aligned(y);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d yv = _mm256_load_pd(y + i);
    __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(yv, yv));
    _mm256_store_pd(out + i, _mm256_mul_pd(_mm256_load_pd(g + i), d));
  }
  for (; i < n; ++i) out[i] = g[i] * (1.0 - y[i] * y[i]);
}

MECSC_AVX2 void axpy(double* y, const double* x, double s, std::size_t n) {
  assert_aligned(y), assert_aligned(x);
  // Deliberately mul+add rather than FMA: axpy streams three buffers and
  // is memory-bound, so fusing buys nothing — while the separate rounding
  // keeps it bit-exact with the scalar reference (this TU builds with
  // -ffp-contract=off so the compiler cannot re-fuse it).
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(
        y + i, _mm256_add_pd(_mm256_load_pd(y + i),
                             _mm256_mul_pd(vs, _mm256_load_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

}  // namespace mecsc::nn::avx2

#endif  // MECSC_SIMD_AVX2
