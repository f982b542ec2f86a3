#include "core/jacobian.h"

#include <algorithm>
#include <array>
#include <atomic>

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
  const auto index = ctx.fes->scatter_map(cell);
  const int nb = x.nb;
  const int nt = x.n_terms;
  LANDAU_ASSERT(coeff.size() == static_cast<std::size_t>(ctx.n_grid_species()) * nt,
                "coefficient table is not grid species x element terms");
  for (int k = 0; k < ctx.n_grid_species(); ++k) {
    const double* c = coeff.data() + static_cast<std::size_t>(k) * nt;
    const std::size_t off = ctx.value_offset(ctx.grid_species_at(k));
    double* block = j.values().data() + off;
    std::size_t slot = 0;
    for (int a = 0; a < nb; ++a) {
      const auto ca = dm.closure(nodes[static_cast<std::size_t>(a)]);
      for (int b = 0; b < nb; ++b) {
        const auto cb = dm.closure(nodes[static_cast<std::size_t>(b)]);
        double v = c[0] * x.at(0, a, b);
        for (int t = 1; t < nt; ++t) v += c[t] * x.at(t, a, b);
        // Sparsity skip (bitwise compare intended): the entry's slots are
        // passed over.
        if (fp::exact_eq(v, 0.0)) {
          slot += ca.size() * cb.size();
          continue;
        }
        for (const fem::DofWeight& p : ca)
          for (const fem::DofWeight& q : cb) {
            const double contrib = p.weight * q.weight * v;
            const std::size_t e = index[slot++];
            if (ctx.atomic_assembly)
              std::atomic_ref<double>(block[e]).fetch_add(contrib, std::memory_order_relaxed);
            else
              block[e] += contrib;
            if (checked) chk->note(off + e, ctx.atomic_assembly ? Kind::Atomic : Kind::Write);
          }
      }
    }
  }
}

void check_pattern(const JacobianContext& ctx, const la::CsrMatrix& j) {
  const la::CsrMatrix& block = ctx.fes->block_pattern();
  const auto brow = block.row_offsets();
  const auto rows = j.row_offsets();
  if (!ctx.value_offsets) {
    const auto ns = static_cast<std::size_t>(ctx.species->size());
    LANDAU_ASSERT(j.rows() == ns * block.rows() && j.nnz() == ns * block.nnz(),
                  "matrix is not " << ns << " blocks of the grid's pattern");
  }
  for (int k = 0; k < ctx.n_grid_species(); ++k) {
    const int s = ctx.grid_species_at(k);
    // Row offsets increase by at least one (every row holds its diagonal),
    // so the block's first row is the one whose offset is the block's first
    // value.
    const auto off = static_cast<std::int32_t>(ctx.value_offset(s));
    const auto first = std::lower_bound(rows.begin(), rows.end(), off);
    const bool fits = rows.end() - first >= std::ssize(brow) &&
                      std::equal(brow.begin(), brow.end(), first,
                                 [off](std::int32_t b, std::int32_t r) { return r == off + b; });
    LANDAU_ASSERT(fits, "species " << s
                                   << " block does not have the grid's pattern: assemble into "
                                      "the operator's new_matrix()");
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
  detail::check_pattern(ctx, j);
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
  detail::check_pattern(ctx, j);
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
    detail::assemble_element(ctx, cell, me, coeff, j, ov.active() ? &ov : nullptr);
  });
  chk.finish();
  if (counters) {
    static obs::Gauge& ai = obs::MetricsRegistry::instance().gauge("kernel.mass.ai");
    ai.set(counters->arithmetic_intensity());
  }
}

} // namespace landau
