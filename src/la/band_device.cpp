#include "la/band_device.h"

#include <algorithm>
#include <cmath>

#include "exec/annotations.h"
#include "la/rcm.h"
#include "util/error.h"
#include "util/profiler.h"

namespace landau::la {

void device_band_factor(exec::ThreadPool& pool, std::span<BandMatrix*> systems) {
  namespace check = exec::check;
  static const int event = Profiler::instance().event_id("la:band-factor");
  const exec::Dim3 block{64, 1, 1};
  // Each block factors its own matrix, so the checker sees per-block-disjoint
  // global buffers; the refs vector exists only in checked mode — the clean
  // path stays allocation-free.
  check::KernelScope chk("la:band-factor");
  std::vector<check::BufferRef<double>> arefs;
  if (chk.active()) {
    arefs.reserve(systems.size());
    for (BandMatrix* m : systems) arefs.push_back(chk.out(m->data(), "band.a"));
  }
  exec::launch(
      pool, static_cast<int>(systems.size()), block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        BandMatrix& a = *systems[static_cast<std::size_t>(blk.block_idx())];
        check::checked_span<double> av =
            arefs.empty() ? check::checked_span<double>(a.data())
                          : blk.view(arefs[static_cast<std::size_t>(blk.block_idx())]);
        const std::size_t n = a.size();
        const std::size_t lbw = a.lower_bandwidth();
        const std::size_t ubw = a.upper_bandwidth();
        // Outer-product banded LU: the k loop is sequential (each pivot
        // column depends on the previous update); rows of the rank-1 update
        // are independent and stride across the lanes.
        for (std::size_t k = 0; k < n; ++k) {
          const double piv = av[a.index(k, k)];
          // Negated so NaN pivots throw too, as in BandMatrix::factor_lu.
          if (!(std::abs(piv) >= 1e-300) || !std::isfinite(piv))
            LANDAU_THROW("zero or non-finite pivot in device band LU at row " << k);
          const double inv = 1.0 / piv;
          const std::size_t imax = std::min(n - 1, k + lbw);
          const std::size_t jmax = std::min(n - 1, k + ubw);
          blk.threads([&](exec::ThreadIdx t) {
            for (std::size_t i = k + 1 + static_cast<std::size_t>(t.x); i <= imax && i < n;
                 i += static_cast<std::size_t>(blk.block_dim().x)) {
              const double m = av[a.index(i, k)] * inv;
              av[a.index(i, k)] = m;
              for (std::size_t j = k + 1; j <= jmax; ++j)
                av[a.index(i, j)] -= m * av[a.index(k, j)];
            }
          });
          blk.sync(); // grid-group sync in the hardware version (§III-G)
        }
      },
      &chk, "la:band-factor");
  chk.finish();
  // Each system's band is read and written once.
  std::int64_t flops = 0, bytes = 0;
  for (const BandMatrix* m : systems) {
    flops += m->factor_flops();
    bytes += static_cast<std::int64_t>(m->data().size()) * 8 * 2;
  }
  Profiler::instance().add_work(event, flops, bytes);
}

void device_band_solve(exec::ThreadPool& pool, std::span<BandMatrix* const> systems,
                       std::span<Vec*> x) {
  LANDAU_ASSERT(systems.size() == x.size(), "batch size mismatch");
  namespace check = exec::check;
  static const int event = Profiler::instance().event_id("la:band-solve");
  const exec::Dim3 block{32, 1, 1};
  check::KernelScope chk("la:band-solve");
  std::vector<check::BufferRef<const double>> arefs;
  std::vector<check::BufferRef<double>> vrefs;
  if (chk.active()) {
    arefs.reserve(systems.size());
    vrefs.reserve(x.size());
    for (const BandMatrix* m : systems)
      arefs.push_back(chk.in(std::span<const double>(m->data()), "band.a"));
    for (Vec* v : x) vrefs.push_back(chk.out(v->span(), "band.rhs"));
  }
  exec::launch(
      pool, static_cast<int>(systems.size()), block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        const auto b = static_cast<std::size_t>(blk.block_idx());
        const BandMatrix& a = *systems[b];
        Vec& vv = *x[b];
        check::checked_span<const double> av =
            arefs.empty() ? check::checked_span<const double>(a.data()) : blk.view(arefs[b]);
        check::checked_span<double> v =
            vrefs.empty() ? check::checked_span<double>(vv.span()) : blk.view(vrefs[b]);
        const std::size_t n = a.size();
        const std::size_t lbw = a.lower_bandwidth();
        const std::size_t ubw = a.upper_bandwidth();
        auto regs = blk.registers<double>("regs");

        // Forward substitution: row i's dot product over its band is
        // computed lane-parallel, combined with the shuffle butterfly.
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t j0 = i > lbw ? i - lbw : 0;
          blk.threads([&](exec::ThreadIdx t) {
            double s = 0.0;
            for (std::size_t j = j0 + static_cast<std::size_t>(t.x); j < i;
                 j += static_cast<std::size_t>(blk.block_dim().x))
              s += av[a.index(i, j)] * v[j];
            regs[static_cast<std::size_t>(t.flat)] = s;
          });
          blk.shfl_xor_sum_x(regs);
          blk.threads([&](exec::ThreadIdx t) {
            if (t.flat == 0) v[i] -= regs[0];
          });
          blk.sync();
        }
        // Backward substitution with U.
        for (std::size_t i = n; i-- > 0;) {
          const std::size_t j1 = std::min(n - 1, i + ubw);
          blk.threads([&](exec::ThreadIdx t) {
            double s = 0.0;
            for (std::size_t j = i + 1 + static_cast<std::size_t>(t.x); j <= j1;
                 j += static_cast<std::size_t>(blk.block_dim().x))
              s += av[a.index(i, j)] * v[j];
            regs[static_cast<std::size_t>(t.flat)] = s;
          });
          blk.shfl_xor_sum_x(regs);
          blk.threads([&](exec::ThreadIdx t) {
            if (t.flat == 0) v[i] = (v[i] - regs[0]) / av[a.index(i, i)];
          });
          blk.sync();
        }
      },
      &chk, "la:band-solve");
  chk.finish();
  // The band is read once, the right-hand side read, updated and written.
  std::int64_t flops = 0, bytes = 0;
  for (const BandMatrix* m : systems) {
    flops += m->solve_flops();
    bytes += static_cast<std::int64_t>(m->data().size()) * 8 +
             static_cast<std::int64_t>(m->size()) * 8 * 3;
  }
  Profiler::instance().add_work(event, flops, bytes);
}

void DeviceBlockBandSolver::analyze(const CsrMatrix& a) {
  perm_ = band_ordering(a);
  inv_ = invert_permutation(perm_);
  // Shared block discovery: validates that the ordering emits each graph
  // component contiguously (the host path's assertion) — a non-contiguous
  // ordering would silently build cross-coupled blocks.
  const auto ranges = discover_blocks(a, perm_);
  blocks_.assign(ranges.size(), BandBlock());
  mats_.resize(blocks_.size());
  rhs_.resize(blocks_.size());
  for (std::size_t bi = 0; bi < ranges.size(); ++bi) {
    blocks_[bi].analyze(a, perm_, inv_, ranges[bi]);
    mats_[bi] = &blocks_[bi].lu();
    rhs_[bi] = &blocks_[bi].rhs();
  }
  ++analysis_count_;
}

void DeviceBlockBandSolver::invalidate() {
  perm_.clear();
  inv_.clear();
  blocks_.clear();
  mats_.clear();
  rhs_.clear();
}

void DeviceBlockBandSolver::factor(const CsrMatrix& a) {
  LANDAU_ASSERT(analyzed(), "call analyze() before factor()");
  LANDAU_ASSERT(a.rows() == perm_.size(), "matrix size changed since analyze()");
  // Host-side value scatter through the cached maps (no band-width
  // rediscovery, no allocation), then one batched device launch.
  for (auto& blk : blocks_) blk.load(a);
  device_band_factor(*pool_, {mats_.data(), mats_.size()});
}

void DeviceBlockBandSolver::solve(const Vec& b, Vec& x) {
  LANDAU_ASSERT(analyzed(), "call analyze() before solve()");
  LANDAU_ASSERT(b.size() == perm_.size() && x.size() == perm_.size(), "solve size mismatch");
  for (auto& blk : blocks_) blk.gather_rhs(b, perm_);
  device_band_solve(*pool_, {mats_.data(), mats_.size()}, {rhs_.data(), rhs_.size()});
  // Scatter back after all solves so x may alias b.
  for (auto& blk : blocks_) blk.scatter_solution(x, perm_);
}

} // namespace landau::la
