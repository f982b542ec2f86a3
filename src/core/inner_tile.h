#pragma once
// The SIMD inner integral of the cuda-sim and kokkos-sim Landau kernels
// (Algorithm 1 lines 4-11, W pairs at a time).
//
// One call folds a chunk of eight consecutive source points into eight
// per-slot partial sums: point k of the chunk goes to slot k. The
// pair arithmetic is inner_pair of core/kernel_math.h over a lane type of W
// doubles, so slot k sees the same terms in the same order at every W, and
// the eight slots fold in one fixed tree. With FP contraction off in this
// helper's translation unit, the result is bitwise the same at W = 1, 2, 4.
//
// The helper is compiled at W = 2 for the x86-64 baseline and at W = 4 in
// functions carrying __attribute__((target("avx2"))); simd_variant()
// (util/simd.h) picks one once per process. No wide vector type
// appears in this interface.

#include "core/ip_data.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"

namespace landau::detail {

/// Eight per-slot partial (G_K, G_D) of one thread: slot k holds the pairs
/// with point k of every chunk folded in. Reducible (the Kokkos reducer
/// requirement).
struct InnerSlots {
  double gk_r[kIpChunk] = {}, gk_z[kIpChunk] = {};
  double gd00[kIpChunk] = {}, gd01[kIpChunk] = {}, gd11[kIpChunk] = {};

  /// Slot-wise sum.
  LANDAU_DEVICE InnerSlots& operator+=(const InnerSlots& o);
  /// The slots summed as ((p0+p4)+(p2+p6))+((p1+p5)+(p3+p7)): the
  /// warp-shuffle butterfly over eight lanes.
  LANDAU_DEVICE InnerAccum fold() const;
};

/// The six streamed IPData arrays, each from the first point of a chunk.
struct InnerSource {
  const double *r, *z, *w, *sum_dfr, *sum_dfz, *sum_f;
};

/// Add the pairs of field point (ri, zi) with the kIpChunk source points of
/// src to slots, point k into slot k. Runs at simd_width().
LANDAU_DEVICE void inner_tile(double ri, double zi, const InnerSource& src, InnerSlots* slots);

/// inner_tile at an explicit lane width: 1, 2, or 4 (4 needs AVX2). For
/// tests; the slots come out bitwise the same at every width.
void inner_tile_at_width(int width, double ri, double zi, const InnerSource& src,
                         InnerSlots* slots);

} // namespace landau::detail
