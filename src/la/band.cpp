#include "la/band.h"

#include <algorithm>
#include <cmath>

#include "la/rcm.h"
#include "util/error.h"
#include "util/profiler.h"
#include "util/simd.h"

namespace landau::la {

BandMatrix BandMatrix::from_csr(const CsrMatrix& a, const std::vector<std::int32_t>& perm,
                                std::size_t row_begin, std::size_t row_end) {
  LANDAU_ASSERT(row_end <= perm.size() && row_begin <= row_end, "bad block range");
  const std::size_t n = row_end - row_begin;
  auto inv = invert_permutation(perm);
  auto rowptr = a.row_offsets();
  auto colind = a.col_indices();

  // First pass: band widths of the permuted block.
  std::size_t lbw = 0, ubw = 0;
  for (std::size_t pi = row_begin; pi < row_end; ++pi) {
    const auto i = static_cast<std::size_t>(perm[pi]);
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const auto pj = static_cast<std::size_t>(inv[static_cast<std::size_t>(colind[k])]);
      LANDAU_ASSERT(pj >= row_begin && pj < row_end,
                    "matrix entry couples across block boundary: (" << pi << "," << pj << ")");
      if (pj < pi)
        lbw = std::max(lbw, pi - pj);
      else
        ubw = std::max(ubw, pj - pi);
    }
  }

  BandMatrix b(n, lbw, ubw);
  for (std::size_t pi = row_begin; pi < row_end; ++pi) {
    const auto i = static_cast<std::size_t>(perm[pi]);
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const auto pj = static_cast<std::size_t>(inv[static_cast<std::size_t>(colind[k])]);
      b.at(pi - row_begin, pj - row_begin) = a.values()[k];
    }
  }
  return b;
}

void BandMatrix::reshape(std::size_t n, std::size_t lbw, std::size_t ubw) {
  n_ = n;
  lbw_ = lbw;
  ubw_ = ubw;
  width_ = lbw + ubw + 1;
  const std::size_t need = n_ * width_;
  if (data_.size() < need) data_.resize(need);
  std::fill(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(need), 0.0);
}

namespace {

// Blocked banded LU, right-looking, in panels of kPanel columns. Three phases
// per panel [k0, k1):
//   panel    — the pivots, the multipliers and the updates inside the
//              panel's own columns (the outer-product loop on those columns);
//   U12      — the panel's rows right of the panel, in row order;
//   trailing — the panel's rank-one updates on the block below and right of
//              it, in register tiles of kTileRows rows by two vectors of W
//              lanes (4 x 8 at W = 4, 4 x 4 at W = 2: eight accumulators,
//              which leaves registers for the pivot row and the multiplier).
// The factors are bit for bit those of the outer-product loop of Golub & Van
// Loan 4.3.1, which the device factor (la/band_device.cpp) keeps: every entry
// A(i,j) takes the updates A(i,j) -= m_ik u_kj one at a time, in increasing
// k, for exactly the k of that loop, max(0, i-lbw, j-ubw) <= k < min(i,j),
// with the same m_ik and u_kj. Only the order across entries changes. A
// band-edge entry, whose first k lies inside the panel, is updated in
// row_update from that k on; it never takes a zero update (-0 - +0 is -0 but
// -0 - -0 is +0, and inf * 0 is NaN). The file is built with
// -ffp-contract=off, so no multiply-add fuses at any lane width.
constexpr std::size_t kPanel = 8;
constexpr std::size_t kTileRows = 4;

using lanes::load;
using lanes::store;

/// Band storage addressed by row: row(i)[j] is A(i,j) for in-band (i,j).
struct Rows {
  double* base;       // &A(0,0)
  std::size_t stride; // lbw + ubw: row(i+1) - row(i)
  std::size_t n, lbw, ubw;
  double* row(std::size_t i) const { return base + i * stride; }
};

/// Row i takes the updates of pivots [k0, k1) on its columns from j0 up to
/// the band edge of each pivot row, min(n, k + ubw + 1): the outer-product
/// loop's row order, W columns at a time.
template <class V>
[[gnu::always_inline]] inline void row_update(const Rows& a, std::size_t i, std::size_t k0,
                                              std::size_t k1, std::size_t j0) {
  constexpr std::size_t W = lanes::kWidth<V>;
  double* ai = a.row(i);
  for (std::size_t k = k0; k < k1; ++k) {
    const double m = ai[k];
    const double* ak = a.row(k);
    const std::size_t j1 = std::min(a.n, k + a.ubw + 1);
    std::size_t j = j0;
    for (; j + W <= j1; j += W) {
      V c, u;
      load(ai + j, &c);
      load(ak + j, &u);
      c -= m * u;
      store(c, ai + j);
    }
    for (; j < j1; ++j) ai[j] -= m * ak[j];
  }
}

/// Rows [i, i + kTileRows) x columns [j, j + NV W) take all kPanel updates of
/// the panel starting at k0, held in registers throughout. Every entry must
/// lie inside the band for every pivot of the panel.
template <class V, std::size_t NV>
[[gnu::always_inline]] inline void tile_update(const Rows& a, std::size_t i, std::size_t j,
                                               std::size_t k0) {
  constexpr std::size_t W = lanes::kWidth<V>;
  double* r[kTileRows];
  V c[kTileRows][NV];
  for (std::size_t t = 0; t < kTileRows; ++t) {
    r[t] = a.row(i + t);
    for (std::size_t v = 0; v < NV; ++v) load(r[t] + j + v * W, &c[t][v]);
  }
  for (std::size_t k = k0; k < k0 + kPanel; ++k) {
    V u[NV];
    for (std::size_t v = 0; v < NV; ++v) load(a.row(k) + j + v * W, &u[v]);
    for (std::size_t t = 0; t < kTileRows; ++t) {
      const double m = r[t][k];
      for (std::size_t v = 0; v < NV; ++v) c[t][v] -= m * u[v];
    }
  }
  for (std::size_t t = 0; t < kTileRows; ++t)
    for (std::size_t v = 0; v < NV; ++v) store(c[t][v], r[t] + j + v * W);
}

/// The trailing update of the full panel [k0, k0 + kPanel): rows and
/// columns from k1 = k0 + kPanel to the band edge. Entries with
/// i <= k0 + lbw and j <= k0 + ubw take every pivot of the panel and go
/// through tiles; the rest of each row goes through row_update.
template <class V>
[[gnu::always_inline]] inline void trailing_update(const Rows& a, std::size_t k0) {
  constexpr std::size_t W = lanes::kWidth<V>;
  const std::size_t k1 = k0 + kPanel;
  const std::size_t iend = std::min(a.n, k1 + a.lbw);
  const std::size_t ifull = std::min(iend, k0 + a.lbw + 1);
  const std::size_t jfull = std::min(a.n, k0 + a.ubw + 1);
  std::size_t i = k1;
  for (; i + kTileRows <= ifull; i += kTileRows) {
    std::size_t j = k1;
    for (; j + 2 * W <= jfull; j += 2 * W) tile_update<V, 2>(a, i, j, k0);
    for (; j + W <= jfull; j += W) tile_update<V, 1>(a, i, j, k0);
    for (std::size_t t = 0; t < kTileRows; ++t) row_update<V>(a, i + t, k0, k1, j);
  }
  for (; i < iend; ++i) row_update<V>(a, i, i > k0 + a.lbw ? i - a.lbw : k0, k1, k1);
}

template <class V> [[gnu::always_inline]] inline void factor_blocked(BandMatrix& band) {
  const std::size_t n = band.size();
  if (n == 0) return; // empty storage may have no address to offset
  const std::size_t lbw = band.lower_bandwidth(), ubw = band.upper_bandwidth();
  const Rows a{band.data().data() + lbw, lbw + ubw, n, lbw, ubw};
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t k1 = std::min(n, k0 + kPanel);
    for (std::size_t k = k0; k < k1; ++k) {
      const double* ak = a.row(k);
      const double piv = ak[k];
      // The negated comparison also rejects NaN pivots (NaN < x is false for
      // every x), so a poisoned matrix throws instead of factoring into NaNs.
      if (!(std::abs(piv) >= 1e-300) || !std::isfinite(piv))
        LANDAU_THROW("zero or non-finite pivot in banded LU at row " << k);
      const double inv = 1.0 / piv;
      const std::size_t iend = std::min(n, k + lbw + 1);
      const std::size_t jend = std::min(n, k + ubw + 1);
      const std::size_t jpanel = std::min(jend, k1);
      for (std::size_t i = k + 1; i < iend; ++i) {
        double* ai = a.row(i);
        const double m = ai[k] * inv;
        ai[k] = m;
        for (std::size_t j = k + 1; j < jpanel; ++j) ai[j] -= m * ak[j];
      }
    }
    for (std::size_t i = k0 + 1; i < k1; ++i)
      row_update<V>(a, i, i > k0 + lbw ? i - lbw : k0, i, k1);
    if (k1 - k0 == kPanel) trailing_update<V>(a, k0);
  }
}

void factor_w2(BandMatrix& band) { factor_blocked<lanes::f64x2>(band); }

#if defined(__x86_64__)
__attribute__((target("avx2"))) void factor_w4(BandMatrix& band) {
  factor_blocked<lanes::f64x4>(band);
}
#endif

using FactorFn = void (*)(BandMatrix&);

FactorFn factor_at_width(int width) {
  switch (width) {
    case 2: return factor_w2;
#if defined(__x86_64__)
    case 4:
      LANDAU_ASSERT(simd_variant() == SimdVariant::Avx2, "lane width 4 needs AVX2");
      return factor_w4;
#endif
  }
  LANDAU_THROW("factor_lu: no lane width " << width);
}

} // namespace

void BandMatrix::factor_lu() {
  static const FactorFn fn = factor_at_width(simd_width());
  fn(*this);
}

void detail::factor_lu_at_width(BandMatrix& a, int width) { factor_at_width(width)(a); }

std::int64_t BandMatrix::factor_flops() const {
  std::int64_t flops = 0;
  for (std::size_t k = 0; k < n_; ++k) {
    const auto rows = static_cast<std::int64_t>(std::min(n_ - 1, k + lbw_) - k);
    const auto cols = static_cast<std::int64_t>(std::min(n_ - 1, k + ubw_) - k);
    flops += rows * (1 + 2 * cols);
  }
  return flops;
}

void BandMatrix::solve(const Vec& b, Vec& x) const {
  LANDAU_ASSERT(b.size() == n_ && x.size() == n_, "band solve size mismatch");
  if (&x != &b) std::copy(b.begin(), b.end(), x.begin());
  // Forward: L (unit diagonal) y = b.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j0 = i > lbw_ ? i - lbw_ : 0;
    double s = x[i];
    for (std::size_t j = j0; j < i; ++j) s -= at(i, j) * x[j];
    x[i] = s;
  }
  // Backward: U x = y.
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t j1 = std::min(n_ - 1, i + ubw_);
    double s = x[i];
    for (std::size_t j = i + 1; j <= j1; ++j) s -= at(i, j) * x[j];
    x[i] = s / at(i, i);
  }
}

void BandMatrix::mult(const Vec& x, Vec& y) const {
  LANDAU_ASSERT(x.size() == n_ && y.size() == n_, "band mult size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j0 = i > lbw_ ? i - lbw_ : 0;
    const std::size_t j1 = std::min(n_ - 1, i + ubw_);
    double s = 0.0;
    for (std::size_t j = j0; j <= j1; ++j) s += at(i, j) * x[j];
    y[i] = s;
  }
}

std::vector<BlockRange> discover_blocks(const CsrMatrix& a,
                                        const std::vector<std::int32_t>& perm) {
  LANDAU_ASSERT(perm.size() == a.rows(), "permutation size mismatch");
  std::int32_t nc = 0;
  auto comp = connected_components(a, &nc);
  std::vector<BlockRange> blocks;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= perm.size(); ++i) {
    const bool boundary = (i == perm.size()) ||
                          comp[static_cast<std::size_t>(perm[i])] !=
                              comp[static_cast<std::size_t>(perm[begin])];
    if (boundary) {
      blocks.push_back({begin, i});
      begin = i;
    }
  }
  LANDAU_ASSERT(blocks.size() == static_cast<std::size_t>(nc),
                "RCM did not emit components contiguously: " << blocks.size() << " runs for "
                                                             << nc << " components");
  return blocks;
}

void BandBlock::analyze(const CsrMatrix& a, const std::vector<std::int32_t>& perm,
                        const std::vector<std::int32_t>& inv, BlockRange range) {
  begin_ = range.begin;
  end_ = range.end;
  auto rowptr = a.row_offsets();
  auto colind = a.col_indices();

  // Band widths of the permuted block (the from_csr first pass, cached).
  std::size_t lbw = 0, ubw = 0;
  std::size_t nnz = 0;
  for (std::size_t pi = begin_; pi < end_; ++pi) {
    const auto i = static_cast<std::size_t>(perm[pi]);
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const auto pj = static_cast<std::size_t>(inv[static_cast<std::size_t>(colind[k])]);
      LANDAU_ASSERT(pj >= begin_ && pj < end_,
                    "matrix entry couples across block boundary: (" << pi << "," << pj << ")");
      if (pj < pi)
        lbw = std::max(lbw, pi - pj);
      else
        ubw = std::max(ubw, pj - pi);
      ++nnz;
    }
  }
  lu_.reshape(end_ - begin_, lbw, ubw);

  // CSR-value -> band-storage scatter map: factor() becomes a value copy.
  scatter_.clear();
  scatter_.reserve(nnz);
  for (std::size_t pi = begin_; pi < end_; ++pi) {
    const auto i = static_cast<std::size_t>(perm[pi]);
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const auto pj = static_cast<std::size_t>(inv[static_cast<std::size_t>(colind[k])]);
      scatter_.push_back(
          {static_cast<std::size_t>(k), lu_.index(pi - begin_, pj - begin_)});
    }
  }
  rhs_.resize(end_ - begin_);
}

void BandBlock::load(const CsrMatrix& a) {
  lu_.zero();
  auto vals = a.values();
  auto dst = lu_.data();
  for (const auto& e : scatter_) dst[e.dst] = vals[e.src];
}

void BandBlock::gather_rhs(const Vec& b, const std::vector<std::int32_t>& perm) {
  for (std::size_t i = 0; i < rhs_.size(); ++i)
    rhs_[i] = b[static_cast<std::size_t>(perm[begin_ + i])];
}

void BandBlock::scatter_solution(Vec& x, const std::vector<std::int32_t>& perm) const {
  for (std::size_t i = 0; i < rhs_.size(); ++i)
    x[static_cast<std::size_t>(perm[begin_ + i])] = rhs_[i];
}

namespace {

/// Run fn(block_index) for every block — batched over the pool when one is
/// available (one task per block, the host mirror of the device batch),
/// serially otherwise. The pool rethrows a worker's exception (e.g. a zero
/// pivot) on the calling thread.
template <class F>
void dispatch_blocks(exec::ThreadPool* pool, std::size_t n, F&& fn) {
  if (pool != nullptr && pool->n_workers() > 1 && n > 1) {
    pool->parallel_for(n, fn);
    return;
  }
  for (std::size_t bi = 0; bi < n; ++bi) fn(bi);
}

} // namespace

void BlockBandSolver::analyze(const CsrMatrix& a) {
  perm_ = band_ordering(a);
  inv_ = invert_permutation(perm_);
  bandwidth_ = permuted_bandwidth(a, perm_);

  const auto ranges = discover_blocks(a, perm_);
  blocks_.assign(ranges.size(), BandBlock());
  for (std::size_t bi = 0; bi < ranges.size(); ++bi)
    blocks_[bi].analyze(a, perm_, inv_, ranges[bi]);
  factor_event_ = Profiler::instance().event_id("landau:factor");
  solve_event_ = Profiler::instance().event_id("landau:solve");
  ++analysis_count_;
}

void BlockBandSolver::invalidate() {
  perm_.clear();
  inv_.clear();
  blocks_.clear();
  bandwidth_ = 0;
}

void BlockBandSolver::factor(const CsrMatrix& a) {
  LANDAU_ASSERT(analyzed(), "call analyze() before factor()");
  LANDAU_ASSERT(a.rows() == perm_.size(), "matrix size changed since analyze()");
  // Each diagonal block (one species' subsystem, §III-G) factors
  // independently; on a GPU each would occupy one or more SMs.
  dispatch_blocks(pool_, blocks_.size(), [this, &a](std::size_t bi) {
    blocks_[bi].load(a);
    blocks_[bi].lu().factor_lu();
  });
  std::int64_t flops = 0, bytes = 0;
  for (const auto& blk : blocks_) {
    flops += blk.lu().factor_flops();
    // Value scatter reads the block's CSR values once; the in-place LU
    // streams the band storage through once more (read + write).
    bytes += static_cast<std::int64_t>(blk.nnz()) * 8 +
             static_cast<std::int64_t>(blk.lu().data().size()) * 8 * 2;
  }
  Profiler::instance().add_work(factor_event_, flops, bytes);
}

void BlockBandSolver::solve(const Vec& b, Vec& x) {
  LANDAU_ASSERT(analyzed(), "call analyze() before solve()");
  LANDAU_ASSERT(b.size() == perm_.size() && x.size() == perm_.size(), "solve size mismatch");
  dispatch_blocks(pool_, blocks_.size(), [this, &b](std::size_t bi) {
    BandBlock& blk = blocks_[bi];
    blk.gather_rhs(b, perm_);
    blk.lu().solve(blk.rhs(), blk.rhs()); // in place in the workspace
  });
  // Scatter back serially: x may alias b, so all reads happen before writes.
  std::int64_t flops = 0, bytes = 0;
  for (auto& blk : blocks_) {
    blk.scatter_solution(x, perm_);
    flops += blk.lu().solve_flops();
    bytes += static_cast<std::int64_t>(blk.lu().data().size()) * 8 +
             static_cast<std::int64_t>(blk.size()) * 8 * 3;
  }
  Profiler::instance().add_work(solve_event_, flops, bytes);
}

} // namespace landau::la
