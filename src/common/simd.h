#ifndef MECSC_COMMON_SIMD_H
#define MECSC_COMMON_SIMD_H

// SIMD dispatch policy shared by the vectorized kernels in nn/ and flow/
// (DESIGN.md "SIMD & batching").
//
// Two gates must both be open for a vector kernel to run:
//   1. compile time — the AVX2 kernels exist only on x86-64 GCC/Clang
//      builds and can be compiled out entirely with -DMECSC_FORCE_SCALAR
//      (the CI force-scalar leg);
//   2. run time, hardware — the CPU must report AVX2+FMA (kernels are
//      emitted with the target("avx2,fma") function attribute, so the
//      surrounding binary needs no -mavx2 and stays runnable on any
//      x86-64 machine).
//
// Every vectorized kernel keeps its scalar reference implementation
// (nn::scalar::*, the scalar loops of flow::MinCostFlow): a scalar build
// and a non-AVX2 host run them, and tests/test_simd.cpp compares the
// vector kernels against them.

namespace mecsc::common::simd {

// Compile-time availability of the AVX2 kernel translation units.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(MECSC_FORCE_SCALAR)
#define MECSC_SIMD_AVX2 1
constexpr bool kCompiledAvx2 = true;
#else
constexpr bool kCompiledAvx2 = false;
#endif

/// CPU reports AVX2 (runtime cpuid; false on non-x86 builds).
bool cpu_has_avx2();
/// CPU reports FMA3.
bool cpu_has_fma();

/// True when the AVX2 kernels should run: compiled in and supported by
/// the CPU. Cached after the first call.
bool active();

/// Active dispatch mode as a short stable string: "avx2" or "scalar".
const char* mode_name();

/// Why the scalar path is active (for logs/JSON): "", "compiled-out" or
/// "cpu" — empty when SIMD is active.
const char* scalar_reason();

}  // namespace mecsc::common::simd

#endif  // MECSC_COMMON_SIMD_H
