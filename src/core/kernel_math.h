#pragma once
// The per-integration-point math shared by all three Landau kernel back-ends
// (Algorithm 1 lines 4-11 and 13-20). Keeping the arithmetic in one place
// guarantees the back-ends differ only in loop organization and memory
// staging — the paper's point about the CUDA and Kokkos versions.

#include <array>

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

/// Per-point transform (Algorithm 1 lines 13-20): map the reduced integrals
/// to the global basis with the (diagonal) inverse element Jacobian, and
/// weight by w[gi]. The species coefficients wait for the scatter.
struct PointCoeffs {
  double kk_r, kk_z;          // KK[i]
  double dd00, dd01, dd11;    // DD[i] (symmetric)
};

LANDAU_DEVICE inline PointCoeffs transform_point(const InnerAccum& g, double jinv0, double jinv1,
                                                 double wi) {
  // wi is the packed weight qw * detJ * r; the outer measure carries the
  // explicit 2 pi of the axisymmetric weak form (the inner 2 pi is already
  // folded into the elliptic-integral tensors).
  PointCoeffs p;
  const double w2pi = 2.0 * 3.14159265358979323846 * wi;
  p.kk_r = jinv0 * g.gk_r * w2pi;
  p.kk_z = jinv1 * g.gk_z * w2pi;
  p.dd00 = jinv0 * jinv0 * g.gd00 * w2pi;
  p.dd01 = jinv0 * jinv1 * g.gd01 * w2pi;
  p.dd11 = jinv1 * jinv1 * g.gd11 * w2pi;
  return p;
}

/// Species a's element matrix is ck K_e + cd D_e: as the field species of
/// eqs. 7-8, ck = q^2/m scales the K term and cd = -q^2/m^2 the D term.
inline std::array<double, 2> landau_coeffs(const Species& s) {
  return {s.q2_over_m(), -s.q2_over_m2()};
}

/// Flops of contract_point per point and entry: K 5 (row sum, times B,
/// accumulate) and D 10 (two row sums, two products, their sum, accumulate);
/// and of the scatter per entry and species: ck K + cd D.
inline constexpr int kElementContractFlops = 15, kElementScaleFlops = 3;

/// Point i's contribution to entry (a, b) of the species-free K_e and D_e
/// (Algorithm 1 line 23): the contraction with the element tabulation.
LANDAU_DEVICE inline void contract_point(const PointCoeffs& p, const fem::Tabulation& tab, int i,
                                         int a, int b, double* k, double* d) {
  const double ear = tab.E(i, a, 0);
  const double eaz = tab.E(i, a, 1);
  *k += (ear * p.kk_r + eaz * p.kk_z) * tab.B(i, b);
  *d += (ear * p.dd00 + eaz * p.dd01) * tab.E(i, b, 0) +
        (ear * p.dd01 + eaz * p.dd11) * tab.E(i, b, 1);
}

} // namespace landau::detail
