#pragma once
// Landau collision-operator matrix construction — the paper's central kernel
// (Algorithm 1) in three implementations sharing one context:
//
//  * Backend::Cpu       — plain loops (the "common CPU code" reference),
//  * Backend::CudaSim   — Algorithm 1 on the emulated CUDA model: one element
//                         per block, integration points on threadIdx.y,
//                         warp-shuffle reduction across threadIdx.x, shared
//                         memory staging, atomic global assembly,
//  * Backend::KokkosSim — the Kokkos formulation: league member per element,
//                         team threads over integration points, vector-lane
//                         parallel_reduce on a (G_K, G_D) reducer object.
//
// All three must produce identical matrices to roundoff; a test asserts it.
// They, the mass kernel and the advection term share the grid's one
// scatter, fem::ElementScatter (the COO coordinate list of §III-F), which
// adds each closure-expanded element entry at a value index fixed once per
// grid plus the species block's value offset, so no entry is looked up by
// (row, column) during assembly.
//
// The assembled matrix C is the weak-form collision operator *linearized
// about the packed state* (D and K frozen): M df/dt = C(f) f, which is both
// the quasi-Newton Jacobian contribution and — applied to f — the exact
// nonlinear residual of the collision term.
//
// A pair's Landau tensor depends only on the two points' (r, z), which are
// fixed for a mesh's lifetime, so a context may carry its grid's pair-tensor
// table (LandauOperator builds one per grid at its first add_collision). The
// cuda-sim and kokkos-sim kernels then stream the tensors instead of
// recomputing them, with the same arithmetic in the same order, so the
// matrix is the same bit for bit; the cpu kernel always recomputes.

#include <span>
#include <vector>

#include "core/ip_data.h"
#include "core/species.h"
#include "exec/annotations.h"
#include "exec/check.h"
#include "exec/counters.h"
#include "exec/thread_pool.h"
#include "fem/fespace.h"
#include "la/csr.h"

namespace landau {

enum class Backend { Cpu, CudaSim, KokkosSim };

const char* backend_name(Backend b);

/// One field point's Landau tensors against a chunk of kIpChunk source
/// points: the five TensorLanes entries (core/landau_tensor.h) of each pair,
/// 40 bytes a pair. Cache-line aligned, so no lane load splits a line.
struct alignas(64) TensorChunk {
  double uk00[kIpChunk], uk10[kIpChunk], ud00[kIpChunk], off[kIpChunk], d11[kIpChunk];
};
inline constexpr int kTensorPairBytes = sizeof(TensorChunk) / kIpChunk;

/// Everything the kernels need. Species coefficients enter only where the
/// scatter applies them to a cell's matrices (I_S (x) A).
struct JacobianContext {
  const fem::FESpace* fes = nullptr;
  const SpeciesSet* species = nullptr;
  const IPData* ip = nullptr;
  bool atomic_assembly = true; // GPU back-ends use atomicAdd (§III-F)

  // Multi-grid support (§III-H): this context's FE space is one grid of a
  // LandauOperator. Its cells' integration points start at ip_offset in
  // the concatenated IP arrays; only grid_species have dofs on this grid
  // (others contribute to the inner integral via the IP data, but the
  // kernels assemble blocks only for grid_species). Every species block
  // carries its grid's fes->block_pattern(); the k-th grid species' values
  // start at block_offsets[k] in a matrix of matrix_rows rows and
  // matrix_nnz values.
  std::size_t ip_offset = 0;
  std::vector<int> grid_species;
  std::vector<std::size_t> block_offsets;
  std::size_t matrix_rows = 0, matrix_nnz = 0;

  // The grid's pair-tensor table: row i (field point ip_offset + i) holds
  // the tensors against every chunk of the padded source points,
  // ip->n_padded() / kIpChunk chunks a row. Empty means recompute.
  std::span<const TensorChunk> tensor;

  /// One grid holding every species, block after block; no table.
  void init(const fem::FESpace& f, const SpeciesSet& s, const IPData& d) {
    fes = &f;
    species = &s;
    ip = &d;
    tensor = {};
    const la::CsrMatrix& block = f.block_pattern();
    grid_species.clear();
    block_offsets.clear();
    for (int k = 0; k < s.size(); ++k) {
      grid_species.push_back(k);
      block_offsets.push_back(static_cast<std::size_t>(k) * block.nnz());
    }
    matrix_rows = block_offsets.size() * block.rows();
    matrix_nnz = block_offsets.size() * block.nnz();
  }

  int n_grid_species() const { return static_cast<int>(grid_species.size()); }
  /// The coefficient table the scatter takes: row k is rule(species), for
  /// the k-th grid species, with one coefficient per element term.
  template <class Rule> std::vector<double> coefficients(Rule rule) const {
    std::vector<double> c;
    for (const int s : grid_species)
      for (double v : rule((*species)[s])) c.push_back(v);
    return c;
  }
};

/// Add the collision matrix C into J. J must have the context's layout
/// (fem::ElementScatter::check_layout); the operator's new_matrix() has it.
/// Adds landau_kernel_work(backend, ctx) to the landau:jacobian-kernel event.
void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              const JacobianContext& ctx, la::CsrMatrix& j);

/// Add s * (cylindrical) mass matrix into every species block of J using the
/// exec-model mass kernel (the paper's separately-profiled second kernel).
/// Adds mass_kernel_work(ctx) to the landau:mass-kernel event.
void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j);

/// The work of one Jacobian kernel launch on the context's grid. A pair
/// counts its real source points only (padding is streamed, not computed):
/// the recomputed tensor and accumulation, or the accumulation alone when
/// the context has a table, whose 40 bytes a pair are then streamed too.
/// cuda-sim and kokkos-sim count identically; the cpu reference forms a
/// matrix per species and counts that.
exec::KernelWork landau_kernel_work(Backend backend, const JacobianContext& ctx);

/// The work of one mass kernel launch on the context's grid.
exec::KernelWork mass_kernel_work(const JacobianContext& ctx);

namespace detail {

/// Element matrices of one cell, in node space: n_terms matrices X_t of
/// nb x nb (M_e, A_e; the CPU reference's per-species C_a), the terms
/// fem::ElementScatter::add takes.
struct ElementMatrices {
  int nb = 0;
  std::vector<double> x; // [term][a][b]
  double& at(int t, int a, int b) { return x[(static_cast<std::size_t>(t) * nb + a) * nb + b]; }
  void resize(int terms, int nbasis) {
    nb = nbasis;
    x.assign(static_cast<std::size_t>(terms) * nb * nb, 0.0);
  }
};

} // namespace detail
} // namespace landau
