#include "core/jacobian.h"

#include <array>

#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "util/error.h"
#include "util/profiler.h"

namespace landau {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Cpu: return "cpu";
    case Backend::CudaSim: return "cuda-sim";
    case Backend::KokkosSim: return "kokkos-sim";
  }
  return "?";
}

namespace detail {

void landau_kernel_cpu(const JacobianContext& ctx, la::CsrMatrix& j);
void landau_kernel_cuda(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j);
void landau_kernel_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j);

} // namespace detail

exec::KernelWork landau_kernel_work(Backend backend, const JacobianContext& ctx) {
  using namespace detail;
  const auto& tab = ctx.fes->tabulation();
  const auto cells = static_cast<std::int64_t>(ctx.fes->n_cells());
  const std::int64_t nq = tab.n_quad(), nb = tab.n_basis(), ns = ctx.n_grid_species();
  const auto n = static_cast<std::int64_t>(ctx.ip->n);
  const auto n_padded = static_cast<std::int64_t>(ctx.ip->n_padded());
  exec::KernelWork cell;
  if (backend == Backend::Cpu) {
    // Per point: n recomputed pairs and the species scaling of its five
    // coefficients; per species: its element matrix and scatter.
    cell.flops = nq * (n * inner_flops() + ns * 5) + ns * nq * nb * (8 + 5 * nb) +
                 ns * nb * nb * (2 * ns - 1);
    cell.dram_bytes = nq * n * kInnerPointDoubles * 8 + ns * nb * nb * 8 * 2;
  } else {
    // Per cell: the padded source stream once (and the table rows of its
    // points), K_e and D_e, and each grid species' block (write + RMW).
    const bool table = !ctx.tensor.empty();
    cell.flops = n * nq * (table ? kInnerAccumulateFlops : inner_flops()) +
                 nb * nb * nq * kElementContractFlops + ns * nb * nb * kElementScaleFlops;
    cell.dram_bytes = n_padded * (table ? kSourceSumDoubles : kInnerPointDoubles) * 8 +
                      (table ? n_padded * nq * kTensorPairBytes : 0) + ns * nb * nb * 8 * 2;
  }
  return {cells * cell.flops, cells * cell.dram_bytes};
}

exec::KernelWork mass_kernel_work(const JacobianContext& ctx) {
  const auto& tab = ctx.fes->tabulation();
  const auto cells = static_cast<std::int64_t>(ctx.fes->n_cells());
  const std::int64_t nq = tab.n_quad(), nb = tab.n_basis(), ns = ctx.n_grid_species();
  // Per cell: M_e from the weight slice, then shift * M_e into each grid
  // species' block (write + RMW).
  return {cells * (3 * nq * nb * nb + ns * nb * nb), cells * (nq * 8 + ns * nb * nb * 8 * 2)};
}

void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              const JacobianContext& ctx, la::CsrMatrix& j) {
  LANDAU_ASSERT(ctx.fes && ctx.species && ctx.ip, "JacobianContext not initialized");
  LANDAU_ASSERT(ctx.ip->n_species == ctx.species->size(), "IP data species count mismatch");
  LANDAU_ASSERT(ctx.tensor.empty() ||
                    ctx.tensor.size() == ctx.fes->n_ips() * (ctx.ip->n_padded() / kIpChunk),
                "pair-tensor table of " << ctx.tensor.size() << " chunks does not fit the grid");
  ctx.fes->scatter().check_layout(j, ctx.matrix_rows, ctx.matrix_nnz, ctx.block_offsets);
  static const int event = Profiler::instance().event_id("landau:jacobian-kernel");
  ScopedEvent ev(event, {{"species", ctx.species->size()},
                         {"cells", ctx.fes->n_cells()},
                         {"ip_points", ctx.ip->n}});
  switch (backend) {
    case Backend::Cpu: detail::landau_kernel_cpu(ctx, j); break;
    case Backend::CudaSim: detail::landau_kernel_cuda(pool, ctx, j); break;
    case Backend::KokkosSim: detail::landau_kernel_kokkos(pool, ctx, j); break;
  }
  const exec::KernelWork w = landau_kernel_work(backend, ctx);
  Profiler::instance().add_work(event, w.flops, w.dram_bytes);
}

void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j) {
  // The mass kernel replaces all of Algorithm 1 with
  // C <- Transform&Assemble(w[gip]*s, 0, 0, B, 0): pure FE + sparse assembly,
  // the memory-bound contrast case of the paper's roofline study (Table IV).
  ctx.fes->scatter().check_layout(j, ctx.matrix_rows, ctx.matrix_nnz, ctx.block_offsets);
  static const int event = Profiler::instance().event_id("landau:mass-kernel");
  ScopedEvent ev(event, {{"species", ctx.species->size()},
                         {"cells", ctx.fes->n_cells()},
                         {"ip_points", ctx.ip->n}});
  namespace check = exec::check;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const auto coeff = ctx.coefficients([shift](const Species&) { return std::array{shift}; });

  // Device-checker scope: one "block" per cell (the kernel is block-uniform —
  // no intra-block thread structure), with the packed weights as input and
  // the value array as the concurrently-assembled output.
  check::KernelScope chk("landau:mass-kernel");
  auto wref = chk.in(std::span<const double>(ctx.ip->w), "ip.w");
  auto oref = LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  check::run_grid(pool, fes.n_cells(), &chk, LANDAU_KERNEL [&](std::size_t cell) {
    check::ThreadCtx tc;
    tc.session = chk.session();
    tc.block = static_cast<int>(cell);
    check::checked_span<const double> wv(wref, &tc);
    check::checked_span<double> ov(oref, &tc);
    detail::ElementMatrices me;
    me.resize(1, nb);
    const std::size_t ip0 = ctx.ip_offset + cell * static_cast<std::size_t>(nq);
    for (int q = 0; q < nq; ++q) {
      // Packed weight is qw * detJ * r; the axisymmetric measure adds 2 pi.
      const double wq = 2.0 * 3.14159265358979323846 * wv[ip0 + static_cast<std::size_t>(q)];
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b) me.at(0, a, b) += wq * tab.B(q, a) * tab.B(q, b);
    }
    // Every species block is shift * M_e.
    fes.scatter().add(cell, me.x, coeff, ctx.block_offsets, j.values(), ctx.atomic_assembly,
                      ov.active() ? &ov : nullptr);
  });
  chk.finish();
  const exec::KernelWork w = mass_kernel_work(ctx);
  Profiler::instance().add_work(event, w.flops, w.dram_bytes);
}

} // namespace landau
