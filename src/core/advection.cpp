#include "core/advection.h"

#include <vector>

#include "util/special_math.h"

namespace landau {

void assemble_advection(const JacobianContext& ctx, double e_z, la::CsrMatrix& j) {
  if (e_z == 0.0) return;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.n_grid_species();
  // (q/m) E_z of each species on this grid.
  std::vector<double> qm_ez(static_cast<std::size_t>(ns));
  for (int k = 0; k < ns; ++k) {
    const auto& sp = (*ctx.species)[ctx.grid_species_at(k)];
    qm_ez[static_cast<std::size_t>(k)] = (sp.charge / sp.mass) * e_z;
  }

  detail::ElementMatrices ce;
  for (std::size_t cell = 0; cell < fes.n_cells(); ++cell) {
    const auto geom = fes.geometry(cell);
    ce.resize(ns, nb);
    for (int q = 0; q < nq; ++q) {
      const double r = geom.x0 + 0.5 * geom.dx * (tab.qx(q) + 1.0);
      const double wq = 2.0 * kPi * r * tab.qw(q) * geom.detj;
      for (int a = 0; a < nb; ++a) {
        const double ba = tab.B(q, a);
        for (int b = 0; b < nb; ++b) {
          // d phi_b / dz in physical coordinates.
          const double dz = tab.E(q, b, 1) * geom.jinv[1];
          const double base = wq * ba * dz;
          for (int k = 0; k < ns; ++k)
            ce.at(k, a, b) += qm_ez[static_cast<std::size_t>(k)] * base;
        }
      }
    }
    detail::assemble_element(ctx, cell, ce, j);
  }
}

} // namespace landau
