#include <gtest/gtest.h>

#include <cmath>

#include "fem/fespace.h"
#include "la/gmres.h"
#include "util/special_math.h"

using namespace landau;
using namespace landau::fem;
using mesh::Box;
using mesh::Forest;

namespace {

Forest quench_like_mesh(bool adapt) {
  Forest f(Box{0, -4, 4, 4}, 1, 2);
  f.refine_uniform(2);
  if (adapt) {
    f.refine_where([](const Box& b, int) { return std::hypot(b.cx(), b.cy()) < 1.5; });
    f.balance();
  }
  return f;
}

} // namespace

TEST(FESpace, GeometryFactorsForRectangles) {
  auto forest = quench_like_mesh(false);
  FESpace fes(forest, 3);
  for (std::size_t c = 0; c < fes.n_cells(); ++c) {
    const auto g = fes.geometry(c);
    EXPECT_NEAR(g.detj, 0.25 * g.dx * g.dy, 1e-15);
    EXPECT_NEAR(g.jinv[0] * g.dx, 2.0, 1e-15);
  }
}

TEST(FESpace, IpWeightsIntegrateDomainArea) {
  auto forest = quench_like_mesh(true);
  FESpace fes(forest, 3);
  std::vector<double> r(fes.n_ips()), z(fes.n_ips()), w(fes.n_ips());
  fes.ip_coordinates(r, z, w);
  double area = 0;
  for (double wi : w) area += wi;
  EXPECT_NEAR(area, 32.0, 1e-10); // [0,4] x [-4,4]
}

TEST(FESpace, EvalAtIpsReproducesInterpolatedPolynomial) {
  auto forest = quench_like_mesh(true);
  FESpace fes(forest, 3);
  auto f = [](double x, double y) { return x * x * y - 2.0 * y * y + 0.5; };
  auto fx = [](double x, double y) { return 2.0 * x * y; (void)y; };
  auto fy = [](double x, double y) { return x * x - 4.0 * y; };
  la::Vec dofs = fes.interpolate(f);
  std::vector<double> vals(fes.n_ips()), gr(fes.n_ips()), gz(fes.n_ips());
  std::vector<double> r(fes.n_ips()), z(fes.n_ips()), w(fes.n_ips());
  fes.eval_at_ips(dofs.span(), vals, gr, gz);
  fes.ip_coordinates(r, z, w);
  for (std::size_t ip = 0; ip < fes.n_ips(); ++ip) {
    EXPECT_NEAR(vals[ip], f(r[ip], z[ip]), 1e-10);
    EXPECT_NEAR(gr[ip], fx(r[ip], z[ip]), 1e-9);
    EXPECT_NEAR(gz[ip], fy(r[ip], z[ip]), 1e-9);
  }
}

TEST(FESpace, MomentComputesCylindricalIntegrals) {
  auto forest = quench_like_mesh(false);
  FESpace fes(forest, 3);
  // f = 1: moment with g=1 is the cylindrical volume 2*pi*(R^2/2)*H.
  la::Vec one = fes.interpolate([](double, double) { return 1.0; });
  const double vol = fes.moment(one.span(), [](double, double) { return 1.0; });
  EXPECT_NEAR(vol, 2 * kPi * (16.0 / 2) * 8.0, 1e-9);
}

TEST(FESpace, MaxwellianMomentsOnAdaptedMesh) {
  // Density and energy moments of a Maxwellian on the adapted mesh — the
  // resolution argument behind the paper's Fig. 3 (about 5 digits).
  auto forest = quench_like_mesh(true);
  FESpace fes(forest, 3);
  la::Vec fm = fes.interpolate([](double r, double z) { return maxwellian_rz(r, z, 1.0, 1.0); });
  const double n = fes.moment(fm.span(), [](double, double) { return 1.0; });
  const double e = fes.moment(fm.span(), [](double r, double z) { return r * r + z * z; });
  EXPECT_NEAR(n, 1.0, 2e-4);
  EXPECT_NEAR(e, 1.5, 1e-3);
}

TEST(FESpace, MassMatrixAgainstAnalyticL2Norm) {
  auto forest = quench_like_mesh(true);
  FESpace fes(forest, 3);
  la::CsrMatrix m = fes.block_pattern();
  fes.assemble_mass(m);
  // x^T M x == \int f^2 dmu for the interpolant of a cubic f.
  auto f = [](double x, double y) { return x + 0.2 * y - 0.1 * x * y; };
  la::Vec dofs = fes.interpolate(f);
  la::Vec mx(fes.n_dofs());
  m.mult(dofs, mx);
  const double quad = dofs.dot(mx);
  const double viaMoment = fes.moment(dofs.span(), [&](double, double) { return 0.0; });
  (void)viaMoment;
  // Analytic \int (x + .2y - .1xy)^2 2 pi x dx dy over [0,4]x[-4,4].
  // Computed with high-order numeric quadrature here:
  double exact = 0;
  const int nn = 400;
  for (int i = 0; i < nn; ++i)
    for (int j = 0; j < nn; ++j) {
      const double x = (i + 0.5) * 4.0 / nn;
      const double y = -4.0 + (j + 0.5) * 8.0 / nn;
      exact += 2 * kPi * x * f(x, y) * f(x, y) * (4.0 / nn) * (8.0 / nn);
    }
  EXPECT_NEAR(quad, exact, 2e-3 * std::abs(exact));
}

TEST(FESpace, MassMatrixSymmetricPositive) {
  auto forest = quench_like_mesh(true);
  FESpace fes(forest, 2);
  la::CsrMatrix m = fes.block_pattern();
  fes.assemble_mass(m);
  auto d = m.to_dense();
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_NEAR(d(i, j), d(j, i), 1e-12);
  // Positive definiteness via x^T M x > 0 for random x.
  la::Vec x(fes.n_dofs()), mx(fes.n_dofs());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(3.0 + static_cast<double>(i));
  m.mult(x, mx);
  EXPECT_GT(x.dot(mx), 0.0);
}

class InterpolationOrder : public ::testing::TestWithParam<int> {};

TEST_P(InterpolationOrder, L2ErrorConvergesAtOrderKPlusOne) {
  // Interpolate a smooth non-polynomial function on uniformly refined meshes
  // and verify the L2 interpolation error decays like h^(k+1).
  const int k = GetParam();
  auto f = [](double x, double y) { return std::sin(1.3 * x) * std::exp(-0.4 * y); };
  std::vector<double> errors;
  for (int levels : {1, 2, 3}) {
    Forest forest(Box{0, -2, 2, 2}, 1, 2);
    forest.refine_uniform(levels);
    FESpace fes(forest, k);
    la::Vec dofs = fes.interpolate(f);
    std::vector<double> vals(fes.n_ips()), gr(fes.n_ips()), gz(fes.n_ips());
    std::vector<double> r(fes.n_ips()), z(fes.n_ips()), w(fes.n_ips());
    fes.eval_at_ips(dofs.span(), vals, gr, gz);
    fes.ip_coordinates(r, z, w);
    double err2 = 0.0;
    for (std::size_t ip = 0; ip < fes.n_ips(); ++ip)
      err2 += w[ip] * std::pow(vals[ip] - f(r[ip], z[ip]), 2);
    errors.push_back(std::sqrt(err2));
  }
  // Each refinement halves h: expect error ratios near 2^(k+1).
  const double expected = std::pow(2.0, k + 1);
  for (std::size_t i = 1; i < errors.size(); ++i) {
    const double ratio = errors[i - 1] / errors[i];
    EXPECT_GT(ratio, 0.6 * expected) << "order " << k << " step " << i;
    EXPECT_LT(ratio, 1.8 * expected) << "order " << k << " step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, InterpolationOrder, ::testing::Values(1, 2, 3));

TEST(FESpace, AtomicAssemblyMatchesSerial) {
  // The grid's scatter adds the same values with atomics as with plain adds.
  auto forest = quench_like_mesh(true);
  FESpace fes(forest, 2);
  la::CsrMatrix a = fes.block_pattern(), b = fes.block_pattern();
  const auto nb = static_cast<std::size_t>(fes.tabulation().n_basis());
  std::vector<double> ke(nb * nb);
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j < nb; ++j) ke[i * nb + j] = 1.0 / (1.0 + i + j);
  const std::vector<std::size_t> offset{0};
  const std::vector<double> one{1.0};
  for (std::size_t c = 0; c < fes.n_cells(); ++c) {
    fes.scatter().add(c, ke, one, offset, a.values(), /*atomic=*/false);
    fes.scatter().add(c, ke, one, offset, b.values(), /*atomic=*/true);
  }
  for (std::size_t k = 0; k < a.nnz(); ++k) EXPECT_DOUBLE_EQ(a.values()[k], b.values()[k]);
}
