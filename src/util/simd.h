#pragma once
// SIMD lane types and the host's SIMD variant, queried once per process. The
// Landau inner integral (core/inner_tile.cpp) and the blocked band LU
// (la/band.cpp) run at the variant's width, and the roofline peak
// calibration (obs/roofline.cpp) times its multiply-add chains at the same
// width, so a kernel's "% of peak" compares like with like.
//
// The choice affects speed only: the inner integral and the band LU factors
// are bitwise the same at every width. Wide types are GCC vector extensions;
// code at width 4 must sit in a function carrying
// __attribute__((target("avx2"))), and no function takes or returns a vector
// by value (that would change its ABI with the target and draw -Wpsabi).

#include <cstdint>
#include <cstring>

namespace landau {

namespace lanes {

// Vectors of two and four doubles, and the unsigned integer lanes of the
// same shape for bitwise work.
typedef double f64x2 __attribute__((vector_size(16)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef std::uint64_t u64x2 __attribute__((vector_size(16)));
typedef std::uint64_t u64x4 __attribute__((vector_size(32)));

/// The unsigned integer lanes of lane type V (double, f64x2 or f64x4).
template <class V> struct Bits;
template <> struct Bits<double> { using type = std::uint64_t; };
template <> struct Bits<f64x2> { using type = u64x2; };
template <> struct Bits<f64x4> { using type = u64x4; };

/// Doubles per lane type: 1, 2 or 4.
template <class V> inline constexpr int kWidth = static_cast<int>(sizeof(V) / sizeof(double));

/// Lane type V from, and to, kWidth<V> doubles at p (no alignment needed).
template <class V> [[gnu::always_inline]] inline void load(const double* p, V* v) {
  std::memcpy(v, p, sizeof(V));
}
template <class V> [[gnu::always_inline]] inline void store(const V& v, double* p) {
  std::memcpy(p, &v, sizeof(V));
}

} // namespace lanes

enum class SimdVariant {
  Baseline, // x86-64 baseline (SSE2): two doubles per vector
  Avx2,     // AVX2: four doubles per vector
};

/// AVX2 when the CPU supports it, else the baseline. Fixed for the process.
SimdVariant simd_variant();

/// "baseline" or "avx2".
const char* simd_variant_name(SimdVariant v = simd_variant());

/// Doubles per vector at variant v: 2 or 4.
int simd_width(SimdVariant v = simd_variant());

} // namespace landau
