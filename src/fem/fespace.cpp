#include "fem/fespace.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "la/gmres.h"
#include "util/special_math.h"

namespace landau::fem {

FESpace::FESpace(const mesh::Forest& forest, int order)
    : forest_(&forest), tab_(order), dofmap_(forest, tab_),
      scatter_(dofmap_.n_free(), tab_.n_basis(), dofmap_.cell_nodes(),
               [this](std::int32_t node) { return dofmap_.closure(node); }) {}

FESpace::CellGeometry FESpace::geometry(std::size_t c) const {
  const auto& box = forest_->leaf(c).box;
  CellGeometry g;
  g.x0 = box.x0;
  g.y0 = box.y0;
  g.dx = box.dx();
  g.dy = box.dy();
  g.detj = 0.25 * g.dx * g.dy;
  g.jinv[0] = 2.0 / g.dx;
  g.jinv[1] = 2.0 / g.dy;
  return g;
}

la::Vec FESpace::interpolate(const std::function<double(double, double)>& f) const {
  la::Vec v(dofmap_.n_free());
  for (std::size_t n = 0; n < dofmap_.n_nodes(); ++n) {
    const std::int32_t fd = dofmap_.free_index(static_cast<std::int32_t>(n));
    if (fd < 0) continue;
    const auto p = dofmap_.position(static_cast<std::int32_t>(n));
    v[static_cast<std::size_t>(fd)] = f(p[0], p[1]);
  }
  return v;
}

la::Vec FESpace::project_l2(const std::function<double(double, double)>& f) const {
  // Right-hand side b_a = \int 2 pi r psi_a f, assembled with the same
  // quadrature as the mass matrix so the projection identity is exact.
  const int nq = tab_.n_quad();
  const int nb = tab_.n_basis();
  std::vector<double> node_rhs(dofmap_.n_nodes(), 0.0);
  for (std::size_t c = 0; c < n_cells(); ++c) {
    const auto geom = geometry(c);
    const auto nodes = dofmap_.cell_nodes(c);
    for (int q = 0; q < nq; ++q) {
      const double r = geom.x0 + 0.5 * geom.dx * (tab_.qx(q) + 1.0);
      const double z = geom.y0 + 0.5 * geom.dy * (tab_.qy(q) + 1.0);
      const double wq = 2.0 * kPi * r * tab_.qw(q) * geom.detj * f(r, z);
      for (int b = 0; b < nb; ++b)
        node_rhs[static_cast<std::size_t>(nodes[static_cast<std::size_t>(b)])] +=
            wq * tab_.B(q, b);
    }
  }
  la::Vec rhs(dofmap_.n_free());
  dofmap_.restrict_add(node_rhs, rhs.span());

  la::CsrMatrix m = block_pattern();
  assemble_mass(m);
  la::Vec x(dofmap_.n_free());
  la::GmresOptions opts;
  opts.rtol = 1e-13;
  opts.max_iterations = 5000;
  const auto res = la::gmres_solve(m, rhs, x, opts);
  LANDAU_ASSERT(res.converged, "mass solve for L2 projection did not converge");
  return x;
}

void FESpace::eval_at_ips(std::span<const double> free, std::span<double> values,
                          std::span<double> grad_r, std::span<double> grad_z) const {
  LANDAU_ASSERT(values.size() == n_ips() && grad_r.size() == n_ips() && grad_z.size() == n_ips(),
                "eval_at_ips output size mismatch");
  std::vector<double> nodal(dofmap_.n_nodes());
  dofmap_.expand(free, nodal);
  const int nq = tab_.n_quad();
  const int nb = tab_.n_basis();
  for (std::size_t c = 0; c < n_cells(); ++c) {
    const auto geom = geometry(c);
    const auto nodes = dofmap_.cell_nodes(c);
    for (int q = 0; q < nq; ++q) {
      double v = 0.0, gx = 0.0, gy = 0.0;
      for (int b = 0; b < nb; ++b) {
        const double coeff = nodal[static_cast<std::size_t>(nodes[static_cast<std::size_t>(b)])];
        v += tab_.B(q, b) * coeff;
        gx += tab_.E(q, b, 0) * coeff;
        gy += tab_.E(q, b, 1) * coeff;
      }
      const std::size_t ip = c * static_cast<std::size_t>(nq) + static_cast<std::size_t>(q);
      values[ip] = v;
      grad_r[ip] = gx * geom.jinv[0];
      grad_z[ip] = gy * geom.jinv[1];
    }
  }
}

void FESpace::ip_coordinates(std::span<double> r, std::span<double> z, std::span<double> w) const {
  LANDAU_ASSERT(r.size() == n_ips() && z.size() == n_ips() && w.size() == n_ips(),
                "ip_coordinates output size mismatch");
  const int nq = tab_.n_quad();
  for (std::size_t c = 0; c < n_cells(); ++c) {
    const auto geom = geometry(c);
    for (int q = 0; q < nq; ++q) {
      const std::size_t ip = c * static_cast<std::size_t>(nq) + static_cast<std::size_t>(q);
      r[ip] = geom.x0 + 0.5 * geom.dx * (tab_.qx(q) + 1.0);
      z[ip] = geom.y0 + 0.5 * geom.dy * (tab_.qy(q) + 1.0);
      w[ip] = tab_.qw(q) * geom.detj;
    }
  }
}

double FESpace::moment(std::span<const double> free,
                       const std::function<double(double, double)>& g) const {
  std::vector<double> vals(n_ips()), gr(n_ips()), gz(n_ips());
  std::vector<double> r(n_ips()), z(n_ips()), w(n_ips());
  eval_at_ips(free, vals, gr, gz);
  ip_coordinates(r, z, w);
  double m = 0.0;
  for (std::size_t ip = 0; ip < n_ips(); ++ip)
    m += 2.0 * kPi * r[ip] * w[ip] * g(r[ip], z[ip]) * vals[ip];
  return m;
}

void FESpace::assemble_mass(la::CsrMatrix& m) const {
  const int nq = tab_.n_quad();
  const int nb = tab_.n_basis();
  // One block at value 0, with coefficient 1.
  const std::array<std::size_t, 1> offset{0};
  const std::array<double, 1> one{1.0};
  std::vector<double> ke(static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb));
  for (std::size_t c = 0; c < n_cells(); ++c) {
    const auto geom = geometry(c);
    std::ranges::fill(ke, 0.0);
    for (int q = 0; q < nq; ++q) {
      const double r = geom.x0 + 0.5 * geom.dx * (tab_.qx(q) + 1.0);
      const double wq = 2.0 * kPi * r * tab_.qw(q) * geom.detj;
      for (int bi = 0; bi < nb; ++bi)
        for (int bj = 0; bj < nb; ++bj)
          ke[static_cast<std::size_t>(bi * nb + bj)] += wq * tab_.B(q, bi) * tab_.B(q, bj);
    }
    scatter_.add(c, ke, one, offset, m.values(), false);
  }
}

} // namespace landau::fem
