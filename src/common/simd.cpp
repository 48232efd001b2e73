#include "common/simd.h"

namespace mecsc::common::simd {

namespace {

enum class Why { kActive, kCompiledOut, kCpu };

Why decide() {
  if (!kCompiledAvx2) return Why::kCompiledOut;
  if (!cpu_has_avx2() || !cpu_has_fma()) return Why::kCpu;
  return Why::kActive;
}

Why cached() {
  static const Why why = decide();
  return why;
}

}  // namespace

bool cpu_has_avx2() {
#if defined(MECSC_SIMD_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool cpu_has_fma() {
#if defined(MECSC_SIMD_AVX2)
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool active() { return cached() == Why::kActive; }

const char* mode_name() { return active() ? "avx2" : "scalar"; }

const char* scalar_reason() {
  switch (cached()) {
    case Why::kActive: return "";
    case Why::kCompiledOut: return "compiled-out";
    case Why::kCpu: return "cpu";
  }
  return "";
}

}  // namespace mecsc::common::simd
