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
// They, the mass kernel and the advection term share one scatter,
// detail::assemble_element, which adds each closure-expanded element entry
// at a value index fixed once per grid (fem::FESpace::scatter_map, the COO
// coordinate list of §III-F) plus the species block's value offset, so no
// entry is looked up by (row, column) during assembly.
//
// The assembled matrix C is the weak-form collision operator *linearized
// about the packed state* (D and K frozen): M df/dt = C(f) f, which is both
// the quasi-Newton Jacobian contribution and — applied to f — the exact
// nonlinear residual of the collision term.

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

/// Everything the kernels need. Species coefficients enter only where
/// assemble_element applies them to a cell's matrices (I_S (x) A).
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
  // carries its grid's fes->block_pattern(), and species s's values start
  // at value_offsets[s] in the matrix.
  std::size_t ip_offset = 0;
  const std::vector<int>* grid_species = nullptr;           // nullptr: all species
  const std::vector<std::size_t>* value_offsets = nullptr;  // nullptr: s * block nnz

  void init(const fem::FESpace& f, const SpeciesSet& s, const IPData& d) {
    fes = &f;
    species = &s;
    ip = &d;
  }

  std::size_t value_offset(int s) const {
    return value_offsets ? (*value_offsets)[static_cast<std::size_t>(s)]
                         : static_cast<std::size_t>(s) * fes->block_pattern().nnz();
  }
  /// Number of species whose dofs live on this context's grid, and the
  /// global index of the k-th of them (ascending).
  int n_grid_species() const {
    return grid_species ? static_cast<int>(grid_species->size()) : species->size();
  }
  int grid_species_at(int k) const {
    return grid_species ? (*grid_species)[static_cast<std::size_t>(k)] : k;
  }
  /// The coefficient table assemble_element takes: row k is rule(species),
  /// for the k-th grid species, with one coefficient per element term.
  template <class Rule> std::vector<double> coefficients(Rule rule) const {
    std::vector<double> c;
    for (int k = 0; k < n_grid_species(); ++k)
      for (double v : rule((*species)[grid_species_at(k)])) c.push_back(v);
    return c;
  }
};

/// Add the collision matrix C into J. J must have the context's layout
/// (detail::check_pattern); the operator's new_matrix() has it.
void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              const JacobianContext& ctx, la::CsrMatrix& j,
                              exec::KernelCounters* counters = nullptr);

/// Add s * (cylindrical) mass matrix into every species block of J using the
/// exec-model mass kernel (the paper's separately-profiled second kernel).
void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j, exec::KernelCounters* counters = nullptr);

namespace detail {

/// Element matrices of one cell, in node space: n_terms matrices X_t of
/// nb x nb (K_e and D_e, M_e, A_e; the CPU reference's per-species C_a).
/// The per-backend kernels fill them; assembly into the global matrix is
/// shared.
struct ElementMatrices {
  int nb = 0, n_terms = 0;
  std::vector<double> x; // [term][a][b]
  double& at(int t, int a, int b) { return x[(static_cast<std::size_t>(t) * nb + a) * nb + b]; }
  double at(int t, int a, int b) const {
    return x[(static_cast<std::size_t>(t) * nb + a) * nb + b];
  }
  void resize(int terms, int nbasis) {
    n_terms = terms;
    nb = nbasis;
    x.assign(static_cast<std::size_t>(terms) * nb * nb, 0.0);
  }
};

/// Scatter one cell into the global block matrix: the block of the k-th grid
/// species receives sum_t coeff[k * n_terms + t] X_t. This is the one place
/// species coefficients meet element matrices, and the one scatter: entry
/// wi*wj*v goes to value value_offset(s) + fes->scatter_map(cell)[slot],
/// added atomically or plainly per ctx.atomic_assembly. When the device
/// checker is active, `chk` is the caller's checked view of j's values bound
/// to the executing block, and every scattered entry is recorded as a plain
/// or atomic device write.
LANDAU_DEVICE void assemble_element(const JacobianContext& ctx, std::size_t cell,
                                    const ElementMatrices& x, std::span<const double> coeff,
                                    la::CsrMatrix& j,
                                    const exec::check::checked_span<double>* chk = nullptr);

/// A value index proves nothing about j's pattern, so every entry point
/// checks the layout once per call: throw unless each grid species' rows of j
/// carry the grid's block pattern from that species' value offset, and, with
/// no value_offsets, unless j is the species blocks on the diagonal and
/// nothing else.
void check_pattern(const JacobianContext& ctx, const la::CsrMatrix& j);

} // namespace detail
} // namespace landau
