#pragma once
// The per-integration-point math shared by all three Landau kernel back-ends
// (Algorithm 1 lines 4-11 and 13-20). Keeping the arithmetic in one place
// guarantees the back-ends differ only in loop organization and memory
// staging — the paper's point about the CUDA and Kokkos versions.

#include "core/jacobian.h"
#include "core/landau_tensor.h"
#include "exec/annotations.h"

namespace landau::detail {

/// Partial inner-integral sums: G_K (vector) and the symmetric G_D (tensor)
/// of Algorithm 1 lines 10-11, one per lane of V. Reducible: default
/// constructible with operator+= (the Kokkos reducer requirement).
template <class V> struct InnerSums {
  V gk_r{}, gk_z{};
  V gd00{}, gd01{}, gd11{};
  InnerSums& operator+=(const InnerSums& o) {
    gk_r += o.gk_r;
    gk_z += o.gk_z;
    gd00 += o.gd00;
    gd01 += o.gd01;
    gd11 += o.gd11;
    return *this;
  }
};

/// One thread's partial (G_K, G_D).
using InnerAccum = InnerSums<double>;

/// Flops per inner-loop iteration (tensor + accumulation), used by every
/// back-end for consistent roofline accounting. The species sums are formed
/// once per point by LandauOperator::pack and counted there.
LANDAU_DEVICE inline int inner_flops() { return kLandauTensor2DFlops + 14; }

/// Doubles a back-end streams per source point: r, z, w and the three
/// species sums of IPData.
inline constexpr int kInnerPointDoubles = 6;

/// One (i, j) contribution per lane to the inner integral: Algorithm 1
/// lines 4-11. The j-side data (coordinates, weight and IPData's species
/// sums) may come from shared-memory staging buffers (tiles).
template <class V>
[[gnu::always_inline]] LANDAU_DEVICE inline void
inner_pair(const V& ri, const V& zi, const V& rj, const V& zj, const V& wj, const V& sum_dfr_j,
           const V& sum_dfz_j, const V& sum_f_j, InnerSums<V>* acc) {
  TensorLanes<V> t{};
  landau_tensor_lanes(ri, zi, rj, zj, &t);
  acc->gk_r += wj * (t.uk00 * sum_dfr_j + t.off * sum_dfz_j);
  acc->gk_z += wj * (t.uk10 * sum_dfr_j + t.d11 * sum_dfz_j);
  acc->gd00 += wj * sum_f_j * t.ud00;
  acc->gd01 += wj * sum_f_j * t.off;
  acc->gd11 += wj * sum_f_j * t.d11;
}

/// The scalar pair of the serial reference: inner_pair at W = 1.
LANDAU_DEVICE inline void inner_point(double ri, double zi, double rj, double zj, double wj,
                                      double sum_dfr_j, double sum_dfz_j, double sum_f_j,
                                      InnerAccum* acc) {
  inner_pair(ri, zi, rj, zj, wj, sum_dfr_j, sum_dfz_j, sum_f_j, acc);
}

/// Per-point per-species transform (Algorithm 1 lines 13-20): scale the
/// reduced integrals by the species coefficients, map to the global basis
/// with the (diagonal) inverse element Jacobian, and weight by w[gi].
struct PointCoeffs {
  double kk_r, kk_z;          // KK[alpha][i]
  double dd00, dd01, dd11;    // DD[alpha][i] (symmetric)
};

LANDAU_DEVICE inline PointCoeffs transform_point(const InnerAccum& g, double nu0,
                                                 double q2a_over_ma, double q2a_over_ma2,
                                                 double jinv0, double jinv1, double wi) {
  // wi is the packed weight qw * detJ * r; the outer measure carries the
  // explicit 2 pi of the axisymmetric weak form (the inner 2 pi is already
  // folded into the elliptic-integral tensors).
  PointCoeffs p;
  const double w2pi = 2.0 * 3.14159265358979323846 * wi;
  const double ck = nu0 * q2a_over_ma;
  const double cd = -nu0 * q2a_over_ma2;
  p.kk_r = jinv0 * ck * g.gk_r * w2pi;
  p.kk_z = jinv1 * ck * g.gk_z * w2pi;
  p.dd00 = jinv0 * jinv0 * cd * g.gd00 * w2pi;
  p.dd01 = jinv0 * jinv1 * cd * g.gd01 * w2pi;
  p.dd11 = jinv1 * jinv1 * cd * g.gd11 * w2pi;
  return p;
}

} // namespace landau::detail
