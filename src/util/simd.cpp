#include "util/simd.h"

namespace landau {

namespace {

SimdVariant detect() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SimdVariant::Avx2;
#endif
  return SimdVariant::Baseline;
}

} // namespace

SimdVariant simd_variant() {
  static const SimdVariant v = detect();
  return v;
}

const char* simd_variant_name(SimdVariant v) {
  return v == SimdVariant::Avx2 ? "avx2" : "baseline";
}

int simd_width(SimdVariant v) { return v == SimdVariant::Avx2 ? 4 : 2; }

} // namespace landau
