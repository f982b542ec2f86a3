// The Kokkos formulation of the Landau Jacobian kernel: one league member
// per element, team threads over integration points, and the inner integral
// expressed as a parallel_reduce over vector lanes with a general C++
// reducer object (InnerSlots) — the machinery the CUDA version spells out
// with registers and warp shuffles is hidden in the reduction (§III-D). The
// vector range runs over chunks of eight source points, each through the
// SIMD helper of core/inner_tile.h, which reads the chunk's tensors from the
// grid's pair-tensor table when the context has one.

#include "core/inner_tile.h"
#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "exec/kokkos_sim.h"

namespace landau::detail {

void landau_kernel_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j) {
  namespace kk = exec::kokkos;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const auto coeff = ctx.coefficients(landau_coeffs);
  const auto n_chunks = static_cast<int>(ip.n_padded() / kIpChunk);
  const bool table = !ctx.tensor.empty();

  const kk::TeamPolicy policy{static_cast<int>(fes.n_cells()), nq, 32};

  // Device-checker scope (see kernel_cuda.cpp; same buffers, same rules).
  namespace check = exec::check;
  check::KernelScope chk("landau:jacobian-kokkos");
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_sdfr = chk.in(std::span<const double>(ip.sum_dfr), "ip.sum_dfr");
  auto ref_sdfz = chk.in(std::span<const double>(ip.sum_dfz), "ip.sum_dfz");
  auto ref_sf = chk.in(std::span<const double>(ip.sum_f), "ip.sum_f");
  auto ref_tensor = chk.in(ctx.tensor, "tensor.table");
  auto ref_out = LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  kk::parallel_for(
      pool, policy,
      LANDAU_KERNEL [&](kk::TeamMember& member) {
    const auto cell = static_cast<std::size_t>(member.league_rank());
    const auto geom = fes.geometry(cell);

    auto gr = member.view(ref_r);
    auto gz = member.view(ref_z);
    auto gw = member.view(ref_w);
    auto gsdfr = member.view(ref_sdfr);
    auto gsdfz = member.view(ref_sdfz);
    auto gsf = member.view(ref_sf);
    auto gtensor = member.view(ref_tensor);
    auto gout = member.view(ref_out);

    // Team scratch: variable-length shared arrays (no compile-time sizing,
    // unlike the CUDA version).
    auto kkdd = member.team_scratch<PointCoeffs>(static_cast<std::size_t>(nq), "kkdd");
    auto ce = member.team_scratch<double>(2 * static_cast<std::size_t>(nb) * nb, "ce");

    // Integration points distributed over the team's threads.
    member.team_range(nq, [&](int i) {
      const std::size_t row = cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(i);
      const std::size_t gi = ctx.ip_offset + row;
      InnerSlots slots;
      member.vector_reduce(
          n_chunks,
          [&](int c, InnerSlots& acc) {
            const std::size_t k = kIpChunk * static_cast<std::size_t>(c);
            const SourceSums sums{gw.read_ptr(k, kIpChunk), gsdfr.read_ptr(k, kIpChunk),
                                  gsdfz.read_ptr(k, kIpChunk), gsf.read_ptr(k, kIpChunk)};
            if (table) {
              inner_tile_table(*gtensor.read_ptr(row * static_cast<std::size_t>(n_chunks) +
                                                 static_cast<std::size_t>(c)),
                               sums, &acc);
            } else {
              inner_tile(gr[gi], gz[gi], {gr.read_ptr(k, kIpChunk), gz.read_ptr(k, kIpChunk), sums},
                         &acc);
            }
          },
          slots);
      kkdd[static_cast<std::size_t>(i)] =
          transform_point(slots.fold(), geom.jinv[0], geom.jinv[1], gw[gi]);
    });
    member.team_barrier();

    // Transform & Assemble across the team: the entries of K_e and D_e.
    const int total = nb * nb;
    member.team_range(nb, [&](int a) {
      member.vector_range(nb, [&](int b) {
        double k = 0.0, d = 0.0;
        for (int i = 0; i < nq; ++i)
          contract_point(*kkdd.read_ptr(static_cast<std::size_t>(i)), tab, i, a, b, &k, &d);
        ce[static_cast<std::size_t>(a * nb + b)] = k;
        ce[static_cast<std::size_t>(total + a * nb + b)] = d;
      });
    });
    member.team_barrier();

    fes.scatter().add(cell, {ce.read_all(), ce.size()}, coeff, ctx.block_offsets, j.values(),
                      ctx.atomic_assembly, gout.active() ? &gout : nullptr);
      },
      &chk, "landau:jacobian-kokkos");
  chk.finish();
}

} // namespace landau::detail
