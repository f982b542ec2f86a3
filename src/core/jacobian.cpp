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

LANDAU_DEVICE void assemble_element(const JacobianContext& ctx, std::size_t cell,
                                    const ElementMatrices& x, std::span<const double> coeff,
                                    la::CsrMatrix& j,
                                    const exec::check::checked_span<double>* chk) {
  using exec::check::Kind;
  const bool checked = chk && chk->active();
  const auto& dm = ctx.fes->dofmap();
  const auto nodes = dm.cell_nodes(cell);
  const int nb = x.nb;
  const int nt = x.n_terms;
  LANDAU_ASSERT(coeff.size() == static_cast<std::size_t>(ctx.n_grid_species()) * nt,
                "coefficient table is not grid species x element terms");
  // COO sink: every (closure-expanded) value goes to the cell's next fixed
  // slot — disjoint per cell, so no atomics are needed.
  double* coo = ctx.coo_values ? ctx.coo_values->data() : nullptr;
  std::size_t slot = coo ? (*ctx.coo_cell_offsets)[cell] : 0;
  LANDAU_ASSERT(!coo || !ctx.grid_species, "COO assembly supports single-grid operators only");
  for (int k = 0; k < ctx.n_grid_species(); ++k) {
    const double* c = coeff.data() + static_cast<std::size_t>(k) * nt;
    const std::size_t off = ctx.block_offset(ctx.grid_species_at(k));
    for (int a = 0; a < nb; ++a) {
      const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
      for (int b = 0; b < nb; ++b) {
        double v = c[0] * x.at(0, a, b);
        for (int t = 1; t < nt; ++t) v += c[t] * x.at(t, a, b);
        // CSR sparsity skip (bitwise compare intended); COO fills every slot.
        if (!coo && fp::exact_eq(v, 0.0)) continue;
        const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
        for (const auto& [di, wi] : ca)
          for (const auto& [dj, wj] : cb) {
            const double contrib = wi * wj * v;
            if (coo) {
              if (checked) chk->note(slot, Kind::Write);
              coo[slot++] = contrib;
              continue;
            }
            const std::size_t gi = off + static_cast<std::size_t>(di);
            const std::size_t gj = off + static_cast<std::size_t>(dj);
            if (ctx.atomic_assembly)
              j.add_atomic(gi, gj, contrib);
            else
              j.add(gi, gj, contrib);
            if (checked)
              chk->note(j.entry_index(gi, gj), ctx.atomic_assembly ? Kind::Atomic : Kind::Write);
          }
      }
    }
  }
}

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
  if (!ctx.species_offsets)
    LANDAU_ASSERT(j.rows() == ctx.n_free() * static_cast<std::size_t>(ctx.species->size()),
                  "Jacobian size mismatch");
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

CooJacobianAssembler::CooJacobianAssembler(const fem::FESpace& fes, int n_species) {
  const auto& dm = fes.dofmap();
  const std::size_t nf = dm.n_free();
  const int nb = fes.tabulation().n_basis();
  std::vector<std::int32_t> ci, cj;
  cell_offsets_.resize(fes.n_cells());
  // Coordinate order must match the COO branch of assemble_element exactly.
  for (std::size_t cell = 0; cell < fes.n_cells(); ++cell) {
    cell_offsets_[cell] = ci.size();
    const auto nodes = dm.cell_nodes(cell);
    for (int s = 0; s < n_species; ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * nf;
      for (int a = 0; a < nb; ++a) {
        const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
        for (int b = 0; b < nb; ++b) {
          const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
          for (const auto& [di, wi] : ca) {
            (void)wi;
            for (const auto& [dj, wj] : cb) {
              (void)wj;
              ci.push_back(static_cast<std::int32_t>(off + static_cast<std::size_t>(di)));
              cj.push_back(static_cast<std::int32_t>(off + static_cast<std::size_t>(dj)));
            }
          }
        }
      }
    }
  }
  values_.assign(ci.size(), 0.0);
  const std::size_t n = nf * static_cast<std::size_t>(n_species);
  coo_ = std::make_unique<la::CooAssembler>(n, n, std::move(ci), std::move(cj));
}

void CooJacobianAssembler::assemble(Backend backend, exec::ThreadPool& pool, JacobianContext ctx,
                                    exec::KernelCounters* counters) {
  ctx.coo_values = &values_;
  ctx.coo_cell_offsets = &cell_offsets_;
  assemble_landau_jacobian(backend, pool, ctx, coo_->matrix(), counters);
  coo_->assemble(values_);
}

void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j, exec::KernelCounters* counters) {
  // The mass kernel replaces all of Algorithm 1 with
  // C <- Transform&Assemble(w[gip]*s, 0, 0, B, 0): pure FE + sparse assembly,
  // the memory-bound contrast case of the paper's roofline study (Table IV).
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
  auto oref = ctx.coo_values
                  ? LANDAU_CROSS_BLOCK(chk.out(std::span<double>(*ctx.coo_values), "coo.values"))
                  : LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

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
    detail::assemble_element(ctx, cell, me, coeff, j, ov.active() ? &ov : nullptr);
  });
  chk.finish();
  if (counters) {
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.mass.ai");
    ai.set(counters->arithmetic_intensity());
  }
}

} // namespace landau
