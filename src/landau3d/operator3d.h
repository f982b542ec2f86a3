#pragma once
// Multi-species Landau collision operator in full 3D velocity space. The
// kernel is the 3D specialization of Algorithm 1: the inner integral uses
// the plain Landau tensor (eq. 3), T_K is a 3-vector, G_D a symmetric 3x3
// tensor, and the CUDA-model mapping (element per block, integration points
// on threadIdx.y, source points split over the x-lanes, shuffle reduction)
// is unchanged. Conservation of density, all three momentum components and
// energy is exact to roundoff here — U(v, vbar) is symmetric and
// annihilates v - vbar, so the pairwise exchange identities hold trivially.
// As in 2D, pack forms the species sums, each cell contracts species-free
// K_e and D_e, and the grid's fem::ElementScatter writes ck K_e + cd D_e.

#include <memory>
#include <span>

#include "core/jacobian.h" // Backend enum
#include "core/operator_base.h"
#include "core/species.h"
#include "exec/thread_pool.h"
#include "landau3d/space3d.h"
#include "la/csr.h"
#include "la/vec.h"

namespace landau::v3 {

struct Landau3DOptions {
  double radius = 4.0;
  int cells_per_dim = 4;
  int order = 2;
  Backend backend = Backend::CudaSim;
  unsigned n_workers = 0;
};

/// Packed 3D integration-point data (SoA): coordinates, weights (qw * detJ)
/// and the inner integral's species sums at each point, summed in species
/// order: sum_df* = Σ_b q_b²/m_b ∂f_b along x, y, z and sum_f = Σ_b q_b² f_b.
struct IPData3 {
  std::size_t n = 0;
  std::vector<double> x, y, z, w;
  std::vector<double> sum_dfx, sum_dfy, sum_dfz, sum_f;
};

class Landau3DOperator : public CollisionOperatorBase {
public:
  Landau3DOperator(SpeciesSet species, Landau3DOptions opts = {});

  const SpeciesSet& species() const { return species_; }
  const Space3D& space() const { return space_; }
  int n_species() const { return species_.size(); }
  std::size_t n_dofs_per_species() const { return space_.n_dofs(); }
  std::size_t n_total() const override {
    return n_dofs_per_species() * static_cast<std::size_t>(n_species());
  }

  std::span<double> block(la::Vec& v, int s) const;
  std::span<const double> block(const la::Vec& v, int s) const;

  /// Drifting Maxwellians (drift along z).
  la::Vec maxwellian_state(std::span<const double> drifts_z = {}) const;
  la::Vec project(const std::function<double(int, double, double, double)>& f) const;

  const la::CsrMatrix& mass() const override { return mass_; }
  /// The grid's block pattern once per species, on the diagonal: the only
  /// layout the add_* calls accept.
  la::CsrMatrix new_matrix() const override;
  void pack(const la::Vec& state) override;
  void add_collision(la::CsrMatrix& j, exec::KernelCounters* counters = nullptr) override;
  /// E-field advection along z (the axisymmetric model's E term in 3D).
  void add_advection(la::CsrMatrix& j, double e_z) const override;
  exec::ThreadPool& worker_pool() override { return *pool_; }

  struct Moments {
    double density = 0;
    double momentum[3] = {0, 0, 0}; // m \int v f
    double energy = 0;              // (m/2) \int v^2 f
  };
  Moments moments(const la::Vec& state, int s) const;

private:
  void kernel_cpu(la::CsrMatrix& j) const;
  void kernel_cuda(la::CsrMatrix& j) const;

  SpeciesSet species_;
  Landau3DOptions opts_;
  Space3D space_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::vector<std::size_t> value_offsets_; // first matrix value per species
  std::vector<double> coeff_;              // detail::landau_coeffs per species
  la::CsrMatrix mass_;
  IPData3 ip_;
};

} // namespace landau::v3
