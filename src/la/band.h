#pragma once
// Band-storage matrix and the custom banded LU solver described in §III-G:
// reverse Cuthill–McKee ordering minimizes bandwidth, then banded LU factors
// the matrix in place without pivoting. The host factor is a blocked form of
// the outer-product banded LU (Golub & Van Loan, Algorithm 4.3.1) with the
// same factors bit for bit; the device factor (la/band_device.h) keeps the
// outer-product form. Landau Jacobians are structurally symmetric, so
// LBW == UBW in practice, but the storage supports LBW != UBW.
//
// Symbolic-reuse contract (the §III-G amortization): analyze() runs the
// expensive pattern work once — RCM, diagonal-block discovery, per-block band
// widths, and a CSR-value -> band-storage scatter map. After that, factor()
// is a pure value copy + in-place LU and solve() reuses persistent per-block
// permuted-RHS workspaces; neither allocates. analyze() must be re-run only
// when the nonzero *structure* changes (e.g. AMR refine); values may change
// freely between factor() calls — exactly the quasi-Newton iteration pattern,
// where the Jacobian structure is frozen across iterations.

#include <cstdint>
#include <span>
#include <vector>

#include "exec/annotations.h"
#include "exec/thread_pool.h"
#include "la/csr.h"
#include "la/vec.h"

namespace landau::la {

/// Row-major band storage: entry A(i,j) with -lbw <= j-i <= ubw lives at
/// data[i*(lbw+ubw+1) + (j-i+lbw)].
class BandMatrix {
public:
  BandMatrix() = default;
  BandMatrix(std::size_t n, std::size_t lbw, std::size_t ubw)
      : n_(n), lbw_(lbw), ubw_(ubw), width_(lbw + ubw + 1), data_(n * width_, 0.0) {}

  /// Gather a (sub)matrix of A, rows/cols [row_begin, row_end) in the order
  /// given by perm (perm[new] = old), into band storage. Entries of A outside
  /// the band of the permuted matrix would be dropped, so the band widths are
  /// computed from the permuted pattern first (use from_csr).
  static BandMatrix from_csr(const CsrMatrix& a, const std::vector<std::int32_t>& perm,
                             std::size_t row_begin, std::size_t row_end);

  /// Set the shape, reusing the existing allocation when it is large enough
  /// (grows at most once per shape over the solver's lifetime); zeroes values.
  void reshape(std::size_t n, std::size_t lbw, std::size_t ubw);

  /// Zero all values, keeping the shape. Never allocates.
  void zero() { std::fill(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(n_ * width_), 0.0); }

  std::size_t size() const { return n_; }
  std::size_t lower_bandwidth() const { return lbw_; }
  std::size_t upper_bandwidth() const { return ubw_; }

  /// Flat band storage (n * (lbw+ubw+1) doubles), for scatter maps.
  std::span<double> data() { return {data_.data(), n_ * width_}; }
  std::span<const double> data() const { return {data_.data(), n_ * width_}; }

  /// Storage index of entry (i,j); valid for in_band(i,j) only.
  LANDAU_DEVICE std::size_t index(std::size_t i, std::size_t j) const {
    return i * width_ + (j - i + lbw_);
  }

  double& at(std::size_t i, std::size_t j) { return data_[index(i, j)]; }
  double at(std::size_t i, std::size_t j) const { return data_[index(i, j)]; }
  bool in_band(std::size_t i, std::size_t j) const {
    return (j + lbw_ >= i) && (j <= i + ubw_);
  }

  /// In-place LU factorization without pivoting: blocked in 8-column panels
  /// with SIMD register tiles at simd_width(), giving bit for bit the factors
  /// of the outer-product form (device_band_factor). Throws landau::Error on
  /// a zero, NaN or non-finite pivot, naming its row. Allocates nothing;
  /// factor_flops() is its work.
  void factor_lu();

  /// Flop count of one factor_lu() (the outer-product form): the sum over
  /// pivots k of (imax-k)(1 + 2(jmax-k)), a function of the shape only.
  std::int64_t factor_flops() const;

  /// Solve LU x = b after factor_lu(); b and x may alias.
  void solve(const Vec& b, Vec& x) const;

  /// Flop count of one solve() (forward + backward substitution).
  std::int64_t solve_flops() const {
    return static_cast<std::int64_t>(n_) * static_cast<std::int64_t>(lbw_ + ubw_ + 2) * 2;
  }

  /// y = A x (only valid before factorization).
  void mult(const Vec& x, Vec& y) const;

private:
  std::size_t n_ = 0, lbw_ = 0, ubw_ = 0, width_ = 1;
  std::vector<double> data_;
};

namespace detail {
/// BandMatrix::factor_lu at an explicit lane width: 2, or 4 (needs AVX2).
/// For tests; the factors come out bitwise the same at every width.
void factor_lu_at_width(BandMatrix& a, int width);
} // namespace detail

/// One diagonal block of the permuted matrix: rows [begin, end) in the
/// permuted ordering.
struct BlockRange {
  std::size_t begin = 0, end = 0;
};

/// Diagonal-block discovery shared by the host and device block solvers:
/// the connected components of the symmetrized matrix graph (one per species
/// subsystem, §III-G), located as contiguous runs of the permuted ordering.
/// Throws if perm does not emit each component contiguously — a
/// non-contiguous ordering would silently build cross-coupled blocks.
std::vector<BlockRange> discover_blocks(const CsrMatrix& a,
                                        const std::vector<std::int32_t>& perm);

/// Cached symbolic + numeric state of one diagonal block: the permuted
/// block's band widths, the CSR-value -> band-storage scatter map (computed
/// once by analyze()), the band storage the LU factors live in, and a
/// persistent permuted-RHS workspace. load(), factor and the triangular
/// solves are allocation-free; only analyze() allocates.
class BandBlock {
public:
  /// Symbolic phase: band widths of the permuted block + scatter map.
  void analyze(const CsrMatrix& a, const std::vector<std::int32_t>& perm,
               const std::vector<std::int32_t>& inv, BlockRange range);

  /// Numeric phase: zero the band and scatter the current CSR values into it
  /// (no band-width discovery, no allocation).
  void load(const CsrMatrix& a);

  std::size_t begin() const { return begin_; }
  std::size_t end() const { return end_; }
  std::size_t size() const { return end_ - begin_; }
  std::size_t nnz() const { return scatter_.size(); }

  BandMatrix& lu() { return lu_; }
  const BandMatrix& lu() const { return lu_; }

  /// Persistent permuted-RHS workspace (solve happens in place in it).
  Vec& rhs() { return rhs_; }

  /// Gather this block's permuted rows of b into the workspace.
  void gather_rhs(const Vec& b, const std::vector<std::int32_t>& perm);
  /// Scatter the solved workspace back into the global solution.
  void scatter_solution(Vec& x, const std::vector<std::int32_t>& perm) const;

private:
  struct ScatterEntry {
    std::size_t src = 0; // index into CsrMatrix::values()
    std::size_t dst = 0; // index into BandMatrix::data()
  };
  std::size_t begin_ = 0, end_ = 0;
  std::vector<ScatterEntry> scatter_;
  BandMatrix lu_;
  Vec rhs_;
};

/// Direct solver for the (possibly block-diagonal) Landau Jacobian:
/// computes the band ordering (band_ordering: RCM unless the natural order is
/// narrower) once per pattern, detects diagonal blocks from graph
/// components, factors each block as an independent banded LU — the species
/// independence the CUDA band solver exploits with grid-group sync. With a
/// worker pool the blocks factor and solve in batch (one task per block),
/// mirroring the batched device path; without one they run serially.
class BlockBandSolver {
public:
  BlockBandSolver() = default;
  /// pool may be nullptr (serial). The pool is borrowed, not owned.
  explicit BlockBandSolver(exec::ThreadPool* pool) : pool_(pool) {}

  /// Analyze the pattern (RCM + component detection + scatter maps). Must be
  /// re-run if the pattern changes; values may change freely between
  /// factor() calls.
  void analyze(const CsrMatrix& a);

  /// Drop cached symbolic data; analyzed() becomes false.
  void invalidate();

  /// Factor the current values of a (pattern must match analyze()).
  /// Allocation-free after analyze(). Throws landau::Error on a zero or
  /// non-finite pivot (a poisoned matrix fails here, not in solve()); after a
  /// throw the factorization is invalid and solve() must not be called until
  /// a later factor() succeeds — x is never touched by a failed factor.
  void factor(const CsrMatrix& a);

  /// Solve A x = b with the factored matrix. Allocation-free after
  /// analyze(); b and x may alias: every block gathers its permuted rows of b
  /// into a private workspace and solves there before any block scatters into
  /// x, so the aliased vector stays consistent even through the batched path
  /// and through any failure path (a throw during the triangular solves
  /// happens before the scatter and leaves b/x unmodified).
  void solve(const Vec& b, Vec& x);

  std::size_t n_blocks() const { return blocks_.size(); }
  std::size_t bandwidth() const { return bandwidth_; }
  bool analyzed() const { return !perm_.empty(); }
  /// Number of analyze() runs over this solver's lifetime (lets callers
  /// assert the symbolic phase is actually being amortized).
  long analysis_count() const { return analysis_count_; }

private:
  exec::ThreadPool* pool_ = nullptr;
  std::vector<std::int32_t> perm_; // perm[new] = old
  std::vector<std::int32_t> inv_;
  std::vector<BandBlock> blocks_;
  std::size_t bandwidth_ = 0;
  long analysis_count_ = 0;
  int factor_event_ = -1, solve_event_ = -1; // cached profiler ids
};

} // namespace landau::la
