#pragma once
// The per-integration-point math shared by all three Landau kernel back-ends
// (Algorithm 1 lines 4-11 and 13-20). Keeping the arithmetic in one place
// guarantees the back-ends differ only in loop organization and memory
// staging — the paper's point about the CUDA and Kokkos versions.

#include "core/jacobian.h"
#include "core/landau_tensor.h"
#include "exec/annotations.h"

namespace landau::detail {

/// Partial inner-integral accumulator of one thread: G_K (vector) and the
/// symmetric G_D (tensor) of Algorithm 1 lines 10-11. Reducible: default
/// constructible with operator+= (the Kokkos reducer requirement).
struct InnerAccum {
  double gk_r = 0, gk_z = 0;
  double gd00 = 0, gd01 = 0, gd11 = 0;
  InnerAccum& operator+=(const InnerAccum& o) {
    gk_r += o.gk_r;
    gk_z += o.gk_z;
    gd00 += o.gd00;
    gd01 += o.gd01;
    gd11 += o.gd11;
    return *this;
  }
};

/// Flops per inner-loop iteration (tensor + accumulation), used by every
/// back-end for consistent roofline accounting. The species sums are formed
/// once per point by LandauOperator::pack and counted there.
LANDAU_DEVICE inline int inner_flops() { return kLandauTensor2DFlops + 14; }

/// Doubles a back-end streams per source point: r, z, w and the three
/// species sums of IPData.
inline constexpr int kInnerPointDoubles = 6;

/// One (i, j) contribution to the inner integral: Algorithm 1 lines 4-11.
/// The j-side data (coordinates, weight and IPData's species sums) may come
/// from shared-memory staging buffers (tiles).
LANDAU_DEVICE inline void inner_point(double ri, double zi, double rj, double zj, double wj,
                                      double sum_dfr_j, double sum_dfz_j, double sum_f_j,
                                      InnerAccum* acc) {
  Tensor2 uk, ud;
  landau_tensor_2d(ri, zi, rj, zj, &uk, &ud);
  acc->gk_r += wj * (uk.m[0][0] * sum_dfr_j + uk.m[0][1] * sum_dfz_j);
  acc->gk_z += wj * (uk.m[1][0] * sum_dfr_j + uk.m[1][1] * sum_dfz_j);
  acc->gd00 += wj * sum_f_j * ud.m[0][0];
  acc->gd01 += wj * sum_f_j * ud.m[0][1];
  acc->gd11 += wj * sum_f_j * ud.m[1][1];
}

/// Per-point per-species transform (Algorithm 1 lines 13-20): scale the
/// reduced integrals by the species coefficients, map to the global basis
/// with the (diagonal) inverse element Jacobian, and weight by w[gi].
struct PointCoeffs {
  double kk_r, kk_z;          // KK[alpha][i]
  double dd00, dd01, dd11;    // DD[alpha][i] (symmetric)
};

LANDAU_DEVICE inline PointCoeffs transform_point(const InnerAccum& g, double nu0, double q2a,
                                   double q2a_over_ma, double q2a_over_ma2, double jinv0,
                                   double jinv1, double wi) {
  // wi is the packed weight qw * detJ * r; the outer measure carries the
  // explicit 2 pi of the axisymmetric weak form (the inner 2 pi is already
  // folded into the elliptic-integral tensors).
  PointCoeffs p;
  const double w2pi = 2.0 * 3.14159265358979323846 * wi;
  const double ck = nu0 * q2a_over_ma;
  const double cd = -nu0 * q2a_over_ma2;
  (void)q2a;
  p.kk_r = jinv0 * ck * g.gk_r * w2pi;
  p.kk_z = jinv1 * ck * g.gk_z * w2pi;
  p.dd00 = jinv0 * jinv0 * cd * g.gd00 * w2pi;
  p.dd01 = jinv0 * jinv1 * cd * g.gd01 * w2pi;
  p.dd11 = jinv1 * jinv1 * cd * g.gd11 * w2pi;
  return p;
}

} // namespace landau::detail
