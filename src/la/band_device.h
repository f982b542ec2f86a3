#pragma once
// The paper's custom CUDA band solver (§III-G), in the emulated CUDA
// programming model: a batch of independent banded systems — one per
// species block, or one per spatial vertex in the batched collision advance
// the conclusion describes — is factored and solved with one thread block
// per system. Within a block:
//
//  * factorization: the outer-product update of column k parallelizes over
//    rows across the block's lanes, with a barrier per pivot column (the
//    hardware version uses grid-group sync to spread one system over
//    several SMs; the emulation's phase barriers play that role),
//  * triangular solves: each row's dot product is computed lane-parallel
//    and combined with the warp-shuffle butterfly.
//
// This outer-product form is the oracle of the host factor: the blocked
// BandMatrix::factor_lu must give the same factors bit for bit. Each launch
// adds the batch's BandMatrix::factor_flops() or solve_flops() and its band
// traffic to its profiler event, la:band-factor or la:band-solve.

#include <span>
#include <vector>

#include "exec/cuda_sim.h"
#include "exec/thread_pool.h"
#include "la/band.h"
#include "la/csr.h"
#include "la/vec.h"

namespace landau::la {

/// Factor a batch of band matrices in place, one emulated thread block per
/// system.
void device_band_factor(exec::ThreadPool& pool, std::span<BandMatrix*> systems);

/// Solve the factored systems against their right-hand sides (in place:
/// x[i] enters as b and leaves as the solution).
void device_band_solve(exec::ThreadPool& pool, std::span<BandMatrix* const> systems,
                       std::span<Vec*> x);

/// Drop-in replacement for BlockBandSolver running factor/solve through the
/// device model: RCM analysis on the host (amortized metadata, §III-F), then
/// each species block is one batch entry. Shares the symbolic machinery with
/// the host solver — the same validated block discovery, cached band widths
/// and CSR-value -> band-storage scatter maps — so factor() and solve() are
/// allocation-free after analyze() and re-analysis is only needed when the
/// nonzero structure changes.
class DeviceBlockBandSolver {
public:
  explicit DeviceBlockBandSolver(exec::ThreadPool& pool) : pool_(&pool) {}

  void analyze(const CsrMatrix& a);
  void invalidate();
  void factor(const CsrMatrix& a);
  void solve(const Vec& b, Vec& x);

  std::size_t n_blocks() const { return blocks_.size(); }
  bool analyzed() const { return !perm_.empty(); }
  long analysis_count() const { return analysis_count_; }

private:
  exec::ThreadPool* pool_;
  std::vector<std::int32_t> perm_;
  std::vector<std::int32_t> inv_;
  std::vector<BandBlock> blocks_;
  std::vector<BandMatrix*> mats_; // persistent batch views into blocks_
  std::vector<Vec*> rhs_;
  long analysis_count_ = 0;
};

} // namespace landau::la
