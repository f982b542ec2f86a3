#include "core/advection.h"

#include <array>

#include "util/special_math.h"

namespace landau {

void assemble_advection(const JacobianContext& ctx, double e_z, la::CsrMatrix& j) {
  ctx.fes->scatter().check_layout(j, ctx.matrix_rows, ctx.matrix_nnz, ctx.block_offsets);
  if (e_z == 0.0) return;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  // The species enter only as (q/m) E_z, applied at the scatter.
  const auto qm_ez = ctx.coefficients(
      [e_z](const Species& s) { return std::array{(s.charge / s.mass) * e_z}; });

  detail::ElementMatrices ae;
  for (std::size_t cell = 0; cell < fes.n_cells(); ++cell) {
    const auto geom = fes.geometry(cell);
    ae.resize(1, nb);
    for (int q = 0; q < nq; ++q) {
      const double r = geom.x0 + 0.5 * geom.dx * (tab.qx(q) + 1.0);
      const double wq = 2.0 * kPi * r * tab.qw(q) * geom.detj;
      for (int a = 0; a < nb; ++a) {
        const double ba = tab.B(q, a);
        for (int b = 0; b < nb; ++b) {
          // d phi_b / dz in physical coordinates.
          const double dz = tab.E(q, b, 1) * geom.jinv[1];
          ae.at(0, a, b) += wq * ba * dz;
        }
      }
    }
    // Serial on the host: plain adds.
    fes.scatter().add(cell, ae.x, qm_ez, ctx.block_offsets, j.values(), false);
  }
}

} // namespace landau
