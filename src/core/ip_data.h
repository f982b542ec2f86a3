#pragma once
// Packed integration-point data for the Landau kernels (§III-E): coordinates,
// weights, function values and gradients of every species at every global
// integration point, stored as a structure of arrays for coalesced access on
// the emulated device. The element and integration-point loops of the inner
// integral are merged over these flat arrays, exactly as in the paper.
// LandauOperator::pack fills them.
//
// The inner integral needs a source point's species data only through three
// charge-weighted sums (Σ_b q_b²/m_b ∂f_b in r and z, and Σ_b q_b² f_b), so
// pack sums the per-species arrays once per point, and the kernels stream
// four doubles per source point (w and the three sums) whatever the species
// count. A pair's tensor (core/landau_tensor.h, K and E from a fixed-degree
// polynomial-log form) depends only on r and z: the cuda-sim and kokkos-sim
// kernels read it from the grid's pair-tensor table (core/jacobian.h), and
// the cpu kernel, or a context without a table, streams r and z too and
// computes it inline.
//
// With several grids (§III-H) the arrays concatenate every grid's points and
// a species' values are nonzero only on the points of its own grid, so the
// single flattened inner loop computes the union of the per-grid integrals
// without branching.
//
// The six streamed arrays (r, z, w and the three sums) are padded with
// zero-weight points to a multiple of kIpChunk, the eight source points one
// SIMD call of core/inner_tile.h takes, so no pair loop needs a scalar tail.
// A padding point sits at r = z = 0 with w = 0: its tensor is finite and its
// contribution is exactly zero. n stays the real point count.

#include <cstddef>
#include <vector>

namespace landau {

/// Source points per SIMD chunk; the streamed arrays are padded to a
/// multiple of it.
inline constexpr std::size_t kIpChunk = 8;

/// SoA integration point data.
struct IPData {
  int n_species = 0;
  std::size_t n = 0; // number of global integration points

  std::vector<double> r, z; // coordinates, size n_padded()
  std::vector<double> w;    // quadrature weight * detJ * r (cylindrical), size n_padded()

  // Species-major SoA: value of species s at point j is f[s*n + j].
  std::vector<double> f, dfr, dfz;

  // Species sums at each point, summed in species order, size n_padded():
  // sum_dfr = Σ_b q_b²/m_b ∂_r f_b, sum_dfz = Σ_b q_b²/m_b ∂_z f_b,
  // sum_f = Σ_b q_b² f_b.
  std::vector<double> sum_dfr, sum_dfz, sum_f;

  /// n rounded up to a multiple of kIpChunk: the length of the streamed arrays.
  std::size_t n_padded() const { return r.size(); }

  double f_at(int s, std::size_t j) const { return f[static_cast<std::size_t>(s) * n + j]; }
  double dfr_at(int s, std::size_t j) const { return dfr[static_cast<std::size_t>(s) * n + j]; }
  double dfz_at(int s, std::size_t j) const { return dfz[static_cast<std::size_t>(s) * n + j]; }

  void resize(int ns, std::size_t npts) {
    n_species = ns;
    n = npts;
    const std::size_t np = (n + kIpChunk - 1) / kIpChunk * kIpChunk;
    r.assign(np, 0.0);
    z.assign(np, 0.0);
    w.assign(np, 0.0);
    f.assign(static_cast<std::size_t>(ns) * n, 0.0);
    dfr.assign(static_cast<std::size_t>(ns) * n, 0.0);
    dfz.assign(static_cast<std::size_t>(ns) * n, 0.0);
    sum_dfr.assign(np, 0.0);
    sum_dfz.assign(np, 0.0);
    sum_f.assign(np, 0.0);
  }

  /// Bytes of the dynamic state (for traffic accounting).
  std::size_t bytes() const {
    return (r.size() + z.size() + w.size() + f.size() + dfr.size() + dfz.size() +
            sum_dfr.size() + sum_dfz.size() + sum_f.size()) *
           sizeof(double);
  }
};

} // namespace landau
