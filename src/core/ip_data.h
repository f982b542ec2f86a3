#pragma once
// Packed integration-point data for the Landau kernels (§III-E): coordinates,
// weights, function values and gradients of every species at every global
// integration point, stored as a structure of arrays for coalesced access on
// the emulated device. The element and integration-point loops of the inner
// integral are merged over these flat arrays, exactly as in the paper.
// LandauOperator::pack fills them.
//
// With several grids (§III-H) the arrays concatenate every grid's points and
// a species' values are nonzero only on the points of its own grid, so the
// single flattened inner loop computes the union of the per-grid integrals
// without branching.

#include <cstddef>
#include <vector>

namespace landau {

/// SoA integration point data.
struct IPData {
  int n_species = 0;
  std::size_t n = 0; // number of global integration points

  std::vector<double> r, z; // coordinates, size n
  std::vector<double> w;    // quadrature weight * detJ * r (cylindrical), size n

  // Species-major SoA: value of species s at point j is f[s*n + j].
  std::vector<double> f, dfr, dfz;

  double f_at(int s, std::size_t j) const { return f[static_cast<std::size_t>(s) * n + j]; }
  double dfr_at(int s, std::size_t j) const { return dfr[static_cast<std::size_t>(s) * n + j]; }
  double dfz_at(int s, std::size_t j) const { return dfz[static_cast<std::size_t>(s) * n + j]; }

  void resize(int ns, std::size_t npts) {
    n_species = ns;
    n = npts;
    r.assign(n, 0.0);
    z.assign(n, 0.0);
    w.assign(n, 0.0);
    f.assign(static_cast<std::size_t>(ns) * n, 0.0);
    dfr.assign(static_cast<std::size_t>(ns) * n, 0.0);
    dfz.assign(static_cast<std::size_t>(ns) * n, 0.0);
  }

  /// Bytes of the dynamic state (for traffic accounting).
  std::size_t bytes() const {
    return (r.size() + z.size() + w.size() + f.size() + dfr.size() + dfz.size()) * sizeof(double);
  }
};

} // namespace landau
