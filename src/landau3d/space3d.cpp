#include "landau3d/space3d.h"

#include <algorithm>
#include <cmath>

namespace landau::v3 {

Tabulation3D::Tabulation3D(int order)
    : order_(order),
      nb_((order + 1) * (order + 1) * (order + 1)),
      nq_(nb_),
      basis_(order) {
  const int n1 = order + 1;
  const auto q1 = fem::gauss_legendre(n1);
  qp_.resize(static_cast<std::size_t>(nq_) * 3);
  qw_.resize(static_cast<std::size_t>(nq_));
  b_.resize(static_cast<std::size_t>(nq_) * static_cast<std::size_t>(nb_));
  e_.resize(static_cast<std::size_t>(nq_) * static_cast<std::size_t>(nb_) * 3);

  std::vector<double> lv(static_cast<std::size_t>(n1)), ld(static_cast<std::size_t>(n1));
  // Precompute the 1D values/derivatives of the basis at the 1D points.
  std::vector<double> v1(static_cast<std::size_t>(n1 * n1)), d1(static_cast<std::size_t>(n1 * n1));
  for (int q = 0; q < n1; ++q) {
    basis_.eval_all(q1.points[static_cast<std::size_t>(q)], lv.data());
    basis_.eval_deriv_all(q1.points[static_cast<std::size_t>(q)], ld.data());
    for (int b = 0; b < n1; ++b) {
      v1[static_cast<std::size_t>(q * n1 + b)] = lv[static_cast<std::size_t>(b)];
      d1[static_cast<std::size_t>(q * n1 + b)] = ld[static_cast<std::size_t>(b)];
    }
  }
  for (int qz = 0; qz < n1; ++qz)
    for (int qy = 0; qy < n1; ++qy)
      for (int qx = 0; qx < n1; ++qx) {
        const int q = (qz * n1 + qy) * n1 + qx;
        qp_[static_cast<std::size_t>(q * 3 + 0)] = q1.points[static_cast<std::size_t>(qx)];
        qp_[static_cast<std::size_t>(q * 3 + 1)] = q1.points[static_cast<std::size_t>(qy)];
        qp_[static_cast<std::size_t>(q * 3 + 2)] = q1.points[static_cast<std::size_t>(qz)];
        qw_[static_cast<std::size_t>(q)] = q1.weights[static_cast<std::size_t>(qx)] *
                                           q1.weights[static_cast<std::size_t>(qy)] *
                                           q1.weights[static_cast<std::size_t>(qz)];
        for (int bz = 0; bz < n1; ++bz)
          for (int by = 0; by < n1; ++by)
            for (int bx = 0; bx < n1; ++bx) {
              const int b = (bz * n1 + by) * n1 + bx;
              const double vx = v1[static_cast<std::size_t>(qx * n1 + bx)];
              const double vy = v1[static_cast<std::size_t>(qy * n1 + by)];
              const double vz = v1[static_cast<std::size_t>(qz * n1 + bz)];
              b_[static_cast<std::size_t>(q * nb_ + b)] = vx * vy * vz;
              e_[static_cast<std::size_t>((q * nb_ + b) * 3 + 0)] =
                  d1[static_cast<std::size_t>(qx * n1 + bx)] * vy * vz;
              e_[static_cast<std::size_t>((q * nb_ + b) * 3 + 1)] =
                  vx * d1[static_cast<std::size_t>(qy * n1 + by)] * vz;
              e_[static_cast<std::size_t>((q * nb_ + b) * 3 + 2)] =
                  vx * vy * d1[static_cast<std::size_t>(qz * n1 + bz)];
            }
      }
}

Space3D::Space3D(double radius, int cells_per_dim, int order)
    : radius_(radius), nc_(cells_per_dim), tab_(order) {
  LANDAU_ASSERT(radius > 0 && cells_per_dim >= 1, "bad 3D grid parameters");
  const int k = order;
  const int n1 = k + 1;
  const std::size_t npd = static_cast<std::size_t>(nc_ * k + 1); // nodes per dim (conforming)
  n_dofs_ = npd * npd * npd;

  // Node positions: GLL nodes within each cell; shared lattice indices via
  // (cell * k + local) — conforming because element boundaries coincide.
  positions_.resize(n_dofs_);
  const auto& nodes1 = tab_.basis_1d().nodes();
  std::vector<double> coord(npd);
  for (int c = 0; c < nc_; ++c)
    for (int i = 0; i <= k; ++i) {
      const std::size_t g = static_cast<std::size_t>(c * k + i);
      coord[g] = -radius_ + h() * (c + 0.5 * (nodes1[static_cast<std::size_t>(i)] + 1.0));
    }
  for (std::size_t iz = 0; iz < npd; ++iz)
    for (std::size_t iy = 0; iy < npd; ++iy)
      for (std::size_t ix = 0; ix < npd; ++ix)
        positions_[(iz * npd + iy) * npd + ix] = {coord[ix], coord[iy], coord[iz]};

  cell_dofs_.resize(n_cells() * static_cast<std::size_t>(tab_.n_basis()));
  std::size_t idx = 0;
  for (int cz = 0; cz < nc_; ++cz)
    for (int cy = 0; cy < nc_; ++cy)
      for (int cx = 0; cx < nc_; ++cx)
        for (int bz = 0; bz < n1; ++bz)
          for (int by = 0; by < n1; ++by)
            for (int bx = 0; bx < n1; ++bx) {
              const std::size_t gx = static_cast<std::size_t>(cx * k + bx);
              const std::size_t gy = static_cast<std::size_t>(cy * k + by);
              const std::size_t gz = static_cast<std::size_t>(cz * k + bz);
              cell_dofs_[idx++] = static_cast<std::int32_t>((gz * npd + gy) * npd + gx);
            }
  scatter_ = fem::ElementScatter(n_dofs_, tab_.n_basis(), cell_dofs_);
}

double Space3D::cell_origin(std::size_t c, int dim) const {
  const std::size_t nx = static_cast<std::size_t>(nc_);
  const std::size_t cx = c % nx;
  const std::size_t cy = (c / nx) % nx;
  const std::size_t cz = c / (nx * nx);
  const std::size_t ci = dim == 0 ? cx : dim == 1 ? cy : cz;
  return -radius_ + h() * static_cast<double>(ci);
}

la::Vec Space3D::interpolate(const std::function<double(double, double, double)>& f) const {
  la::Vec v(n_dofs_);
  for (std::size_t i = 0; i < n_dofs_; ++i) {
    const auto& p = positions_[i];
    v[i] = f(p[0], p[1], p[2]);
  }
  return v;
}

void Space3D::eval_at_ips(std::span<const double> dofs, std::span<double> values,
                          std::span<double> gx, std::span<double> gy,
                          std::span<double> gz) const {
  LANDAU_ASSERT(dofs.size() == n_dofs_ && values.size() == n_ips(), "eval size mismatch");
  const int nq = tab_.n_quad();
  const int nb = tab_.n_basis();
  const double jinv = 2.0 / h();
  for (std::size_t c = 0; c < n_cells(); ++c) {
    const auto cd = cell_dofs(c);
    for (int q = 0; q < nq; ++q) {
      double v = 0, dx = 0, dy = 0, dz = 0;
      for (int b = 0; b < nb; ++b) {
        const double coeff = dofs[static_cast<std::size_t>(cd[static_cast<std::size_t>(b)])];
        v += tab_.B(q, b) * coeff;
        dx += tab_.E(q, b, 0) * coeff;
        dy += tab_.E(q, b, 1) * coeff;
        dz += tab_.E(q, b, 2) * coeff;
      }
      const std::size_t ip = c * static_cast<std::size_t>(nq) + static_cast<std::size_t>(q);
      values[ip] = v;
      gx[ip] = dx * jinv;
      gy[ip] = dy * jinv;
      gz[ip] = dz * jinv;
    }
  }
}

void Space3D::ip_coordinates(std::span<double> x, std::span<double> y, std::span<double> z,
                             std::span<double> w) const {
  const int nq = tab_.n_quad();
  const double hh = 0.5 * h();
  const double detj = hh * hh * hh;
  for (std::size_t c = 0; c < n_cells(); ++c) {
    const double ox = cell_origin(c, 0), oy = cell_origin(c, 1), oz = cell_origin(c, 2);
    for (int q = 0; q < nq; ++q) {
      const std::size_t ip = c * static_cast<std::size_t>(nq) + static_cast<std::size_t>(q);
      x[ip] = ox + 0.5 * h() * (tab_.qx(q, 0) + 1.0);
      y[ip] = oy + 0.5 * h() * (tab_.qx(q, 1) + 1.0);
      z[ip] = oz + 0.5 * h() * (tab_.qx(q, 2) + 1.0);
      w[ip] = tab_.qw(q) * detj;
    }
  }
}

double Space3D::moment(std::span<const double> dofs,
                       const std::function<double(double, double, double)>& g) const {
  std::vector<double> v(n_ips()), gx(n_ips()), gy(n_ips()), gz(n_ips());
  std::vector<double> x(n_ips()), y(n_ips()), z(n_ips()), w(n_ips());
  eval_at_ips(dofs, v, gx, gy, gz);
  ip_coordinates(x, y, z, w);
  double m = 0;
  for (std::size_t ip = 0; ip < n_ips(); ++ip) m += w[ip] * g(x[ip], y[ip], z[ip]) * v[ip];
  return m;
}

void Space3D::assemble_mass(la::CsrMatrix& m) const {
  const int nq = tab_.n_quad();
  const int nb = tab_.n_basis();
  const double hh = 0.5 * h();
  const double detj = hh * hh * hh;
  // One block at value 0, with coefficient 1.
  const std::array<std::size_t, 1> offset{0};
  const std::array<double, 1> one{1.0};
  std::vector<double> ke(static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb));
  for (std::size_t c = 0; c < n_cells(); ++c) {
    std::fill(ke.begin(), ke.end(), 0.0);
    for (int q = 0; q < nq; ++q) {
      const double wq = tab_.qw(q) * detj;
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b)
          ke[static_cast<std::size_t>(a * nb + b)] += wq * tab_.B(q, a) * tab_.B(q, b);
    }
    scatter_.add(c, ke, one, offset, m.values(), false);
  }
}

} // namespace landau::v3
