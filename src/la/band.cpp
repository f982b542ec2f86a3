#include "la/band.h"

#include <algorithm>
#include <cmath>

#include "la/rcm.h"
#include "util/error.h"
#include "util/profiler.h"

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

std::int64_t BandMatrix::factor_lu() {
  // Outer-product banded LU without pivoting (Golub & Van Loan 4.3.1):
  // for each column k, scale the sub-column by 1/pivot and apply a B x B
  // rank-one update to the dense sub-block A(k+1:k+lbw, k+1:k+ubw).
  std::int64_t flops = 0;
  for (std::size_t k = 0; k < n_; ++k) {
    const double piv = at(k, k);
    // The negated comparison also rejects NaN pivots (NaN < x is false for
    // every x), so a poisoned matrix throws instead of factoring into NaNs.
    if (!(std::abs(piv) >= 1e-300) || !std::isfinite(piv))
      LANDAU_THROW("zero or non-finite pivot in banded LU at row " << k);
    const double inv = 1.0 / piv;
    const std::size_t imax = std::min(n_ - 1, k + lbw_);
    const std::size_t jmax = std::min(n_ - 1, k + ubw_);
    for (std::size_t i = k + 1; i <= imax && i < n_; ++i) {
      const double m = at(i, k) * inv;
      at(i, k) = m;
      ++flops;
      for (std::size_t j = k + 1; j <= jmax; ++j) {
        at(i, j) -= m * at(k, j);
        flops += 2;
      }
    }
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
  flops_scratch_.assign(blocks_.size(), 0);
  factor_event_ = Profiler::instance().event_id("landau:factor");
  solve_event_ = Profiler::instance().event_id("landau:solve");
  ++analysis_count_;
}

void BlockBandSolver::invalidate() {
  perm_.clear();
  inv_.clear();
  blocks_.clear();
  flops_scratch_.clear();
  bandwidth_ = 0;
}

void BlockBandSolver::factor(const CsrMatrix& a) {
  LANDAU_ASSERT(analyzed(), "call analyze() before factor()");
  LANDAU_ASSERT(a.rows() == perm_.size(), "matrix size changed since analyze()");
  // Each diagonal block (one species' subsystem, §III-G) factors
  // independently; on a GPU each would occupy one or more SMs.
  dispatch_blocks(pool_, blocks_.size(), [this, &a](std::size_t bi) {
    blocks_[bi].load(a);
    flops_scratch_[bi] = blocks_[bi].lu().factor_lu();
  });
  std::int64_t flops = 0, bytes = 0;
  for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
    flops += flops_scratch_[bi];
    // Value scatter reads the block's CSR values once; the in-place LU
    // streams the band storage through once more (read + write).
    bytes += static_cast<std::int64_t>(blocks_[bi].nnz()) * 8 +
             static_cast<std::int64_t>(blocks_[bi].lu().data().size()) * 8 * 2;
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
