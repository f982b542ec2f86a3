#pragma once
// LandauOperator — the public entry point of the library: a multi-species
// Landau collision operator on adaptively refined axisymmetric velocity
// grids, with pluggable execution back-ends. Owns the meshes, FE spaces,
// packed integration-point data, mass matrix, and the worker pool that
// plays the GPU in the emulated execution model.
//
// Species are clustered by thermal speed (§III-H: species within a factor of
// ~2 "can, and should, share a grid") and each cluster gets its own velocity
// mesh scaled to its thermal scale. The default clustering ratio is
// infinite: every species shares one grid. The collision integral couples
// every pair of species: the inner integral runs over the concatenated
// integration points of all grids (a species' values are nonzero only on its
// own grid's points), while the outer element loop and the assembled blocks
// are per grid. The tensor identities that conserve density, z-momentum and
// energy on one grid hold across grids too: the double sum contains both
// (i in A, j in B) and (i in B, j in A) with the same weights.
//
// The state vector concatenates the species' free-dof blocks in species
// order, so every assembled operator is block diagonal (§III); on one grid
// the nonzero pattern is I_S (x) A_1.
//
// Each grid gets a pair-tensor table (JacobianContext::tensor): its points'
// Landau tensors against every padded point, computed once per mesh by the
// first add_collision under the profiler event `landau:tensor` and read by
// the cuda-sim and kokkos-sim kernels at every later call. The mesh is fixed
// for the operator's lifetime, so a table never goes stale.

#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/ip_data.h"
#include "core/jacobian.h"
#include "core/operator_base.h"
#include "core/species.h"
#include "exec/thread_pool.h"
#include "fem/fespace.h"
#include "la/csr.h"
#include "la/vec.h"
#include "mesh/forest.h"
#include "mesh/refine.h"
#include "util/options.h"

namespace landau {

/// The most memory an operator's pair-tensor tables may take, summed over
/// its grids: 40 bytes a pair, every point against every padded point, so
/// the size grows as the square of the point count. 512 MiB admits the three
/// benchmark meshes (124 MB at most, 1,760 points) and the paper's Table I
/// ten-grid operator (3,200 points, 410 MB); a mesh of 10,000 points would
/// need 4 GB. An operator above it recomputes the tensor at every call, as
/// the paper does.
inline constexpr std::size_t kPairTableBudgetBytes = std::size_t{512} << 20;

struct LandauOptions {
  int order = 3;                 // Qk element order (paper: Q3)
  double radius = 5.0;           // domain half-size of the fastest grid, units of v0
  int base_levels = 1;           // uniform refinement of the 1x2 root forest
  double cells_per_thermal = 1.0;
  double zone_extent = 3.0;      // refined zone in thermal radii
  int max_levels = 16;
  Backend backend = Backend::CudaSim;
  unsigned n_workers = 0;        // exec-model workers ("SMs"); 0 = inline

  /// Extra refined strips for runaway-electron tails (§III-B), on the
  /// fastest grid.
  std::vector<mesh::VelocityMeshSpec::TailZone> tail_zones;

  /// Read overrides from a -landau_* option database. Throws landau::Error
  /// on a negative worker count or a back-end other than cpu|cuda|kokkos.
  static LandauOptions from_options(Options& opts);
};

/// One velocity grid holding a cluster of species.
struct GridBlock {
  std::vector<int> species;   // global species indices on this grid, ascending
  double radius = 0.0;        // domain half-size (scaled to the cluster)
  mesh::Forest forest;
  std::unique_ptr<fem::FESpace> fes;
  std::size_t ip_offset = 0;  // start of this grid's points in the IP arrays

  GridBlock() : forest(mesh::Box{0, -1, 1, 1}, 1, 2) {}
};

class LandauOperator : public CollisionOperatorBase {
public:
  /// Cluster species whose thermal speeds are within `cluster_ratio` of the
  /// cluster's fastest member and build one scaled grid per cluster. The
  /// fastest grid has half-size opts.radius; slower grids shrink by their
  /// fastest member's thermal speed relative to the fastest species.
  explicit LandauOperator(SpeciesSet species, LandauOptions opts = {},
                          double cluster_ratio = std::numeric_limits<double>::infinity());

  const SpeciesSet& species() const { return species_; }
  const LandauOptions& options() const { return opts_; }
  exec::ThreadPool& worker_pool() override { return *pool_; }

  int n_species() const { return species_.size(); }
  int n_grids() const { return static_cast<int>(grids_.size()); }
  const GridBlock& grid(int g) const { return grids_[static_cast<std::size_t>(g)]; }
  int grid_of_species(int s) const { return species_grid_[static_cast<std::size_t>(s)]; }

  /// The single grid's mesh, FE space and per-species dof count; these throw
  /// on a multi-grid operator (use grid(g) and n_dofs(s) there).
  const mesh::Forest& forest() const { return only_grid().forest; }
  const fem::FESpace& space() const { return *only_grid().fes; }
  std::size_t n_dofs_per_species() const { return space().n_dofs(); }

  std::size_t n_total() const override { return n_total_; }
  std::size_t n_dofs(int s) const { return space_of(s).n_dofs(); }
  std::size_t n_ips_total() const { return ip_total_; }

  /// The free-dof block of species s within a full state vector.
  std::span<double> block(la::Vec& v, int s) const;
  std::span<const double> block(const la::Vec& v, int s) const;

  /// Initial condition: each species' (optionally z-drifting) Maxwellian.
  la::Vec maxwellian_state(std::span<const double> drifts_z = {}) const;

  /// Project an analytic per-species function into a full state vector.
  la::Vec project(const std::function<double(int, double, double)>& f) const;

  /// A zeroed matrix with the multi-species block sparsity: each species'
  /// block is its grid's FESpace::block_pattern(), in species order. Only
  /// matrices with this layout are accepted by the add_* calls.
  la::CsrMatrix new_matrix() const override;

  /// The (block) cylindrical mass matrix: each grid's host-assembled mass
  /// matrix copied into its species' blocks.
  const la::CsrMatrix& mass() const override { return mass_; }

  /// Pack integration-point data (SoA) from a state: the device-side inputs
  /// of Algorithm 1.
  void pack(const la::Vec& state) override;
  const IPData& ip_data() const { return ip_; }

  /// J += C(f_packed): the frozen-coefficient collision operator
  /// (quasi-Newton Jacobian contribution and exact residual matrix). The
  /// first call on the cuda-sim or kokkos-sim back-end builds the grids'
  /// pair-tensor tables, unless they would exceed kPairTableBudgetBytes.
  /// `counters`, when given, also receives every grid's landau_kernel_work.
  void add_collision(la::CsrMatrix& j, exec::KernelCounters* counters = nullptr) override;

  /// The kernel context of grid g, as add_collision passes it to
  /// assemble_landau_jacobian: with the grid's table once it is built.
  JacobianContext make_context(int g) const;

  /// J += A with A the E-field advection blocks (see core/advection.h).
  void add_advection(la::CsrMatrix& j, double e_z) const override;

  /// J += shift * M via the exec-model mass kernel (Table IV's second kernel).
  void add_mass_kernel(la::CsrMatrix& j, double shift);

  // --- moments (normalized units; mass-weighted where physical) -----------
  struct Moments {
    double density = 0;    // \int f dmu
    double momentum_z = 0; // m \int v_z f dmu
    double energy = 0;     // (m/2) \int v^2 f dmu
  };
  /// Moments of species s (computed on its own grid).
  Moments moments(const la::Vec& state, int s) const;

  /// Total current J_z = sum_s q_s \int v_z f_s.
  double current_z(const la::Vec& state) const;
  /// Electron temperature in T_e0 units from the drift-corrected energy.
  double electron_temperature(const la::Vec& state) const;
  /// Electron density (n/n0).
  double electron_density(const la::Vec& state) const;

private:
  const GridBlock& only_grid() const;
  const fem::FESpace& space_of(int s) const { return *grid(grid_of_species(s)).fes; }
  void build_pair_tables();

  SpeciesSet species_;
  LandauOptions opts_;
  std::vector<GridBlock> grids_;
  std::vector<int> species_grid_;
  std::vector<std::size_t> species_offsets_; // state offset per species
  std::vector<std::size_t> value_offsets_;   // first matrix value per species
  std::size_t n_total_ = 0;
  std::size_t ip_total_ = 0;
  std::unique_ptr<exec::ThreadPool> pool_;
  la::CsrMatrix mass_;
  IPData ip_;
  // One pair-tensor table per grid, each grid's points x padded chunks.
  std::vector<std::unique_ptr<TensorChunk[]>> tables_;
};

} // namespace landau
