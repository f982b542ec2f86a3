#pragma once
// Full 3D velocity-space discretization (§II-A: "A full 3D model is
// supported in the library and is required for extension to relativistic
// regimes"): a uniform Cartesian grid of hexahedral Qk tensor elements over
// [-R, R]^3 with conforming continuous Lagrange spaces. The 3D path uses
// the plain Landau tensor of eq. (3) — no azimuthal reduction, no elliptic
// integrals — and the Cartesian measure d^3v. AMR is a 2D-only feature here
// (as in the paper's experiments, which are all axisymmetric).

#include <array>
#include <functional>
#include <vector>

#include "exec/annotations.h"
#include "fem/element_scatter.h"
#include "fem/lagrange.h"
#include "fem/quadrature.h"
#include "la/csr.h"
#include "la/vec.h"
#include "util/error.h"

namespace landau::v3 {

/// Tensor-product Qk tabulation on the reference cube.
class Tabulation3D {
public:
  explicit Tabulation3D(int order);

  int order() const { return order_; }
  int n_basis() const { return nb_; } // (k+1)^3
  int n_quad() const { return nq_; }  // (k+1)^3

  LANDAU_DEVICE double B(int q, int b) const {
    return b_[static_cast<std::size_t>(q * nb_ + b)];
  }
  LANDAU_DEVICE double E(int q, int b, int d) const {
    return e_[static_cast<std::size_t>((q * nb_ + b) * 3 + d)];
  }
  LANDAU_DEVICE double qx(int q, int d) const { return qp_[static_cast<std::size_t>(q * 3 + d)]; }
  LANDAU_DEVICE double qw(int q) const { return qw_[static_cast<std::size_t>(q)]; }
  const fem::Lagrange1D& basis_1d() const { return basis_; }

private:
  int order_, nb_, nq_;
  fem::Lagrange1D basis_;
  std::vector<double> b_, e_, qp_, qw_;
};

/// Uniform Cartesian Qk space on [-R,R]^3 with n_cells_per_dim^3 cells.
class Space3D {
public:
  Space3D(double radius, int cells_per_dim, int order);

  double radius() const { return radius_; }
  int cells_per_dim() const { return nc_; }
  std::size_t n_cells() const {
    return static_cast<std::size_t>(nc_) * static_cast<std::size_t>(nc_) * static_cast<std::size_t>(nc_);
  }
  const Tabulation3D& tabulation() const { return tab_; }
  std::size_t n_dofs() const { return n_dofs_; }
  std::size_t n_ips() const { return n_cells() * static_cast<std::size_t>(tab_.n_quad()); }
  double h() const { return 2.0 * radius_ / nc_; }

  /// Global dof ids of cell c's (k+1)^3 nodes (x-fastest, then y, then z).
  std::span<const std::int32_t> cell_dofs(std::size_t c) const {
    return {cell_dofs_.data() + c * static_cast<std::size_t>(tab_.n_basis()),
            static_cast<std::size_t>(tab_.n_basis())};
  }

  /// Physical position of dof i.
  std::array<double, 3> position(std::int32_t dof) const {
    return positions_[static_cast<std::size_t>(dof)];
  }

  la::Vec interpolate(const std::function<double(double, double, double)>& f) const;

  /// Values and (physical) gradients at every integration point (SoA).
  void eval_at_ips(std::span<const double> dofs, std::span<double> values,
                   std::span<double> gx, std::span<double> gy, std::span<double> gz) const;

  /// Coordinates and weights (qw * detJ) of all integration points.
  void ip_coordinates(std::span<double> x, std::span<double> y, std::span<double> z,
                      std::span<double> w) const;

  /// \int g(v) f d^3v.
  double moment(std::span<const double> dofs,
                const std::function<double(double, double, double)>& g) const;

  /// The grid's element scatter: one weight-1 slot per element entry (the
  /// space is conforming), over one species' block pattern.
  const fem::ElementScatter& scatter() const { return scatter_; }
  const la::CsrMatrix& block_pattern() const { return scatter_.block_pattern(); }
  void assemble_mass(la::CsrMatrix& m) const;

private:
  double cell_origin(std::size_t c, int dim) const;

  double radius_;
  int nc_;
  Tabulation3D tab_;
  std::size_t n_dofs_ = 0;
  std::vector<std::int32_t> cell_dofs_;
  std::vector<std::array<double, 3>> positions_;
  fem::ElementScatter scatter_;
};

} // namespace landau::v3
