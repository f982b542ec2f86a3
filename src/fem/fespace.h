#pragma once
// Continuous Qk finite element space on the adaptive forest: geometry
// factors, interpolation, evaluation at integration points, cylindrical
// moments, and the (cylindrically weighted) mass matrix. This is the
// discretization layer the Landau operator builds on.
//
// All integrals carry the axisymmetric velocity-space measure
//   d\mu = 2*pi * r dr dz,
// with coordinates (r, z) = (v_perp, v_par) as in §II-A of the paper.

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "exec/annotations.h"
#include "fem/dofmap.h"
#include "fem/element_scatter.h"
#include "fem/tabulation.h"
#include "la/csr.h"
#include "la/vec.h"
#include "mesh/forest.h"

namespace landau::fem {

class FESpace {
public:
  FESpace(const mesh::Forest& forest, int order);

  const mesh::Forest& forest() const { return *forest_; }
  const Tabulation& tabulation() const { return tab_; }
  const DofMap& dofmap() const { return dofmap_; }

  int order() const { return tab_.order(); }
  std::size_t n_cells() const { return forest_->n_leaves(); }
  std::size_t n_dofs() const { return dofmap_.n_free(); }
  int n_quad_per_cell() const { return tab_.n_quad(); }
  std::size_t n_ips() const { return n_cells() * static_cast<std::size_t>(tab_.n_quad()); }

  /// Geometry of cell c (axis-aligned rectangles: diagonal Jacobian).
  struct CellGeometry {
    double x0, y0, dx, dy;
    double detj;          // dx*dy/4
    double jinv[2];       // {2/dx, 2/dy}
  };
  LANDAU_DEVICE CellGeometry geometry(std::size_t c) const;

  /// Nodal interpolation of an analytic function into the free dofs.
  la::Vec interpolate(const std::function<double(double, double)>& f) const;

  /// L2 projection in the cylindrical inner product: solves M x = b with
  /// b_i = (psi_i, f). Unlike interpolation, projection preserves the
  /// function's moments against every test function in the space — the
  /// conservative way to initialize distribution functions.
  la::Vec project_l2(const std::function<double(double, double)>& f) const;

  /// Evaluate a dof vector at every integration point. Outputs are global
  /// IP arrays of size n_ips() (SoA layout, IP index = cell*Nq + q).
  void eval_at_ips(std::span<const double> free, std::span<double> values,
                   std::span<double> grad_r, std::span<double> grad_z) const;

  /// Coordinates and weights of all integration points (SoA). Weights are
  /// qw * detJ (the cylindrical factor 2*pi*r is applied by the caller).
  void ip_coordinates(std::span<double> r, std::span<double> z, std::span<double> w) const;

  /// Cylindrical moment \int g(r,z) f d\mu of a dof vector.
  double moment(std::span<const double> free,
                const std::function<double(double, double)>& g) const;

  /// The grid's element scatter over the hanging-node closures (Algorithm 1's
  /// "Transform&Assemble" interpolation to master dofs).
  const ElementScatter& scatter() const { return scatter_; }
  /// One species' block of every operator matrix on this grid, zeroed.
  const la::CsrMatrix& block_pattern() const { return scatter_.block_pattern(); }

  /// Assemble the cylindrically weighted mass matrix M_ij = (psi_i, psi_j)
  /// (reference CPU path; the exec-model mass kernel in core/ must match).
  void assemble_mass(la::CsrMatrix& m) const;

private:
  const mesh::Forest* forest_;
  Tabulation tab_;
  DofMap dofmap_;
  ElementScatter scatter_;
};

} // namespace landau::fem
