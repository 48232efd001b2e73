#ifndef MECSC_NN_SIMD_KERNELS_H
#define MECSC_NN_SIMD_KERNELS_H

// Internal AVX2 kernel entry points (raw-pointer form) used by the
// dispatchers in matrix.cpp. Only compiled on x86-64 GCC/Clang builds
// (see common/simd.h); callers must check common::simd::active() before
// calling — these functions execute AVX2+FMA instructions emitted via
// the target("avx2,fma") function attribute.
//
// FP contract (DESIGN.md "SIMD & batching"): matmul and matmul_aTb keep
// the scalar per-element accumulation order over k but contract each
// multiply-add into one FMA; matmul_abT additionally splits the k
// reduction into four partial sums; sigmoid/tanh use a polynomial
// vector exp. All differences are covered by the tolerances asserted in
// tests/test_simd.cpp. The remaining kernels (add/sub/mul/scale/axpy
// and the sigmoid/tanh gradients) are bit-for-bit identical to the
// scalar reference.

#include <cstddef>

#include "common/simd.h"

#if defined(MECSC_SIMD_AVX2)

namespace mecsc::nn::avx2 {

// c (m×n, pre-zeroed) += a (m×k) · b (k×n), k-blocked, row-major.
void matmul(double* c, const double* a, const double* b, std::size_t m,
            std::size_t kk, std::size_t n);
// c (m×n) = a (m×k) · b (n×k)ᵀ — dot products over k.
void matmul_abT(double* c, const double* a, const double* b, std::size_t m,
                std::size_t kk, std::size_t n);
// c (m×n, pre-zeroed) += a (k×m)ᵀ · b (k×n) — rank-1 updates.
void matmul_aTb(double* c, const double* a, const double* b, std::size_t m,
                std::size_t kk, std::size_t n);

// Elementwise over n entries; `out` may alias an input. All pointers
// must be 32-byte aligned (Matrix storage guarantees it; asserted in
// debug builds).
void add(double* out, const double* a, const double* b, std::size_t n);
void sub(double* out, const double* a, const double* b, std::size_t n);
void mul(double* out, const double* a, const double* b, std::size_t n);
void scale(double* out, const double* a, double s, std::size_t n);
void sigmoid(double* out, const double* a, std::size_t n);
void tanh(double* out, const double* a, std::size_t n);
void sigmoid_grad(double* out, const double* g, const double* y, std::size_t n);
void tanh_grad(double* out, const double* g, const double* y, std::size_t n);
void axpy(double* y, const double* x, double s, std::size_t n);

}  // namespace mecsc::nn::avx2

#endif  // MECSC_SIMD_AVX2

#endif  // MECSC_NN_SIMD_KERNELS_H
