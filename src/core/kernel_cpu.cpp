// Serial CPU implementation of the Landau Jacobian kernel — the reference
// the paper's incremental development path starts from (simple C code on the
// CPU, §III-D). Plain element / integration-point / inner-point loops over
// the packed SoA arrays.

#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "util/profiler.h"

namespace landau::detail {

void landau_kernel_cpu(const JacobianContext& ctx, la::CsrMatrix& j) {
  ScopedEvent ev("landau:jacobian-cpu", {{"cells", ctx.fes->n_cells()}});
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.n_grid_species();
  const std::size_t n = ip.n;

  // Device-checker scope: the serial kernel is one "block" per cell with no
  // concurrency at all, so only bounds and initialization rules apply
  // (concurrent_blocks = false disables the inter-block race rule).
  namespace check = exec::check;
  check::KernelScope chk("landau:jacobian-cpu", /*concurrent_blocks=*/false);
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_sdfr = chk.in(std::span<const double>(ip.sum_dfr), "ip.sum_dfr");
  auto ref_sdfz = chk.in(std::span<const double>(ip.sum_dfz), "ip.sum_dfz");
  auto ref_sf = chk.in(std::span<const double>(ip.sum_f), "ip.sum_f");
  // Not LANDAU_CROSS_BLOCK: this back-end runs cells serially
  // (concurrent_blocks=false above), so the assembly target is never
  // written concurrently and needs no atomics policy.
  auto ref_out = chk.out(j.values(), "csr.values");
  check::ThreadCtx tc;
  tc.session = chk.session();
  check::checked_span<const double> gr(ref_r, &tc), gz(ref_z, &tc), gw(ref_w, &tc);
  check::checked_span<const double> gsdfr(ref_sdfr, &tc), gsdfz(ref_sdfz, &tc), gsf(ref_sf, &tc);
  check::checked_span<double> gout(ref_out, &tc);

  // The per-species reference: species coefficients scale the point values
  // before each species' own contraction, and the scatter takes the species
  // matrices as ns terms with identity coefficients.
  ElementMatrices ce;
  std::vector<PointCoeffs> coeffs(static_cast<std::size_t>(ns) * nq);
  std::vector<double> identity(static_cast<std::size_t>(ns) * ns, 0.0);
  for (int a = 0; a < ns; ++a) identity[static_cast<std::size_t>(a) * ns + a] = 1.0;

  for (std::size_t cell = 0; cell < fes.n_cells(); ++cell) {
    tc.block = static_cast<int>(cell);
    const auto geom = fes.geometry(cell);
    ce.resize(ns, nb);

    for (int i = 0; i < nq; ++i) {
      const std::size_t gi = ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(i);
      InnerAccum g;
      for (std::size_t jj = 0; jj < n; ++jj)
        inner_point(gr[gi], gz[gi], gr[jj], gz[jj], gw[jj], gsdfr[jj], gsdfz[jj], gsf[jj], &g);
      const PointCoeffs p = transform_point(g, geom.jinv[0], geom.jinv[1], gw[gi]);
      for (int a = 0; a < ns; ++a) {
        const int s = ctx.grid_species[static_cast<std::size_t>(a)];
        const auto [ck, cd] = landau_coeffs((*ctx.species)[s]);
        coeffs[static_cast<std::size_t>(a * nq + i)] = {ck * p.kk_r, ck * p.kk_z, cd * p.dd00,
                                                        cd * p.dd01, cd * p.dd11};
      }
    }

    // Transform & Assemble (Algorithm 1 line 23): contract with the element
    // tabulation to form the per-species element matrices.
    for (int a_sp = 0; a_sp < ns; ++a_sp) {
      for (int i = 0; i < nq; ++i) {
        const auto& p = coeffs[static_cast<std::size_t>(a_sp * nq + i)];
        for (int a = 0; a < nb; ++a) {
          const double ear = tab.E(i, a, 0);
          const double eaz = tab.E(i, a, 1);
          const double ka = ear * p.kk_r + eaz * p.kk_z;
          const double dar = ear * p.dd00 + eaz * p.dd01;
          const double daz = ear * p.dd01 + eaz * p.dd11;
          for (int b = 0; b < nb; ++b)
            ce.at(a_sp, a, b) +=
                dar * tab.E(i, b, 0) + daz * tab.E(i, b, 1) + ka * tab.B(i, b);
        }
      }
    }
    fes.scatter().add(cell, ce.x, identity, ctx.block_offsets, j.values(), ctx.atomic_assembly,
                      gout.active() ? &gout : nullptr);
  }
  chk.finish();
}

} // namespace landau::detail
