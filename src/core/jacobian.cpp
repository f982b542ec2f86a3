#include "core/jacobian.h"

#include <array>

#include "exec/annotations.h"
#include "obs/metrics.h"
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

void landau_kernel_cpu(const JacobianContext& ctx, la::CsrMatrix& j,
                       exec::KernelCounters* counters);
void landau_kernel_cuda(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j,
                        exec::KernelCounters* counters);
void landau_kernel_kokkos(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j,
                          exec::KernelCounters* counters);

} // namespace detail

void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              const JacobianContext& ctx, la::CsrMatrix& j,
                              exec::KernelCounters* counters) {
  LANDAU_ASSERT(ctx.fes && ctx.species && ctx.ip, "JacobianContext not initialized");
  LANDAU_ASSERT(ctx.ip->n_species == ctx.species->size(), "IP data species count mismatch");
  ctx.fes->scatter().check_layout(j, ctx.matrix_rows, ctx.matrix_nnz, ctx.block_offsets);
  ScopedEvent ev("landau:jacobian-kernel", {{"species", ctx.species->size()},
                                            {"cells", ctx.fes->n_cells()},
                                            {"ip_points", ctx.ip->n}});
  switch (backend) {
    case Backend::Cpu: detail::landau_kernel_cpu(ctx, j, counters); break;
    case Backend::CudaSim: detail::landau_kernel_cuda(pool, ctx, j, counters); break;
    case Backend::KokkosSim: detail::landau_kernel_kokkos(pool, ctx, j, counters); break;
  }
  if (counters) {
    // Arithmetic intensity is cumulative over the counters' life — a property
    // of the algorithm, so the latest value is the representative one.
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.jacobian.ai");
    ai.set(counters->arithmetic_intensity());
  }
}

void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j, exec::KernelCounters* counters) {
  // The mass kernel replaces all of Algorithm 1 with
  // C <- Transform&Assemble(w[gip]*s, 0, 0, B, 0): pure FE + sparse assembly,
  // the memory-bound contrast case of the paper's roofline study (Table IV).
  ctx.fes->scatter().check_layout(j, ctx.matrix_rows, ctx.matrix_nnz, ctx.block_offsets);
  ScopedEvent ev("landau:mass-kernel", {{"species", ctx.species->size()},
                                        {"cells", ctx.fes->n_cells()},
                                        {"ip_points", ctx.ip->n}});
  namespace check = exec::check;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const int ns = ctx.n_grid_species();
  const auto coeff = ctx.coefficients([shift](const Species&) { return std::array{shift}; });

  // Device-checker scope: one "block" per cell (the kernel is block-uniform —
  // no intra-block thread structure), with the packed weights as input and
  // the value array as the concurrently-assembled output.
  check::KernelScope chk("landau:mass-kernel");
  auto wref = chk.in(std::span<const double>(ctx.ip->w), "ip.w");
  auto oref = LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  check::run_grid(pool, fes.n_cells(), &chk, counters, LANDAU_KERNEL [&](std::size_t cell) {
    exec::CounterScope scope(counters);
    check::ThreadCtx tc;
    tc.session = chk.session();
    tc.block = static_cast<int>(cell);
    check::checked_span<const double> wv(wref, &tc);
    check::checked_span<double> ov(oref, &tc);
    detail::ElementMatrices me;
    me.resize(1, nb);
    const std::size_t ip0 = ctx.ip_offset + cell * static_cast<std::size_t>(nq);
    // DRAM: per-block stream of the weight slice; writes counted in assembly.
    scope.dram(nq * 8);
    for (int q = 0; q < nq; ++q) {
      // Packed weight is qw * detJ * r; the axisymmetric measure adds 2 pi.
      const double wq = 2.0 * 3.14159265358979323846 * wv[ip0 + static_cast<std::size_t>(q)];
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b) me.at(0, a, b) += wq * tab.B(q, a) * tab.B(q, b);
      scope.flops(3 * nb * nb);
    }
    // Every species block is shift * M_e.
    scope.flops(static_cast<std::int64_t>(ns) * nb * nb);
    scope.dram(static_cast<std::int64_t>(ns) * nb * nb * 8 * 2); // write + RMW traffic
    fes.scatter().add(cell, me.x, coeff, ctx.block_offsets, j.values(), ctx.atomic_assembly,
                      ov.active() ? &ov : nullptr);
  });
  chk.finish();
  if (counters) {
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.mass.ai");
    ai.set(counters->arithmetic_intensity());
  }
}

} // namespace landau
