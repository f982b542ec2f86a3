// Property-based stress tests: random refinement patterns must always
// produce 2:1-balanced meshes on which the constrained FE space is
// H1-conforming and reproduces polynomials. Catches interaction bugs
// between balance, hanging-node chains and the dof map that hand-picked
// meshes miss.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "fem/fespace.h"
#include "mesh/forest.h"

using namespace landau;
using mesh::Box;
using mesh::Forest;

namespace {

Forest random_forest(unsigned seed, int rounds) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> xdist(0.0, 3.0), ydist(-3.0, 3.0), rdist(0.3, 1.2);
  Forest f(Box{0, -3, 3, 3}, 1, 2);
  f.refine_uniform(1);
  for (int round = 0; round < rounds; ++round) {
    const double cx = xdist(rng), cy = ydist(rng), rad = rdist(rng);
    f.refine_where([&](const Box& b, int level) {
      if (level >= 5) return false;
      const double d = std::hypot(b.cx() - cx, b.cy() - cy);
      return d < rad;
    });
  }
  f.balance();
  return f;
}

} // namespace

class ForestFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ForestFuzz, BalancedAfterRandomRefinement) {
  auto f = random_forest(GetParam(), 4);
  for (std::size_t i = 0; i < f.n_leaves(); ++i)
    for (int e = 0; e < 4; ++e) {
      auto nb = f.neighbor(i, static_cast<mesh::Edge>(e));
      if (nb.kind == Forest::NeighborInfo::Kind::Coarser) {
        EXPECT_EQ(f.leaf(static_cast<std::size_t>(nb.leaf)).level, f.leaf(i).level - 1);
      }
      if (nb.kind == Forest::NeighborInfo::Kind::Finer) {
        for (int c = 0; c < 2; ++c) {
          EXPECT_EQ(f.leaf(static_cast<std::size_t>(nb.finer_leaves[c])).level,
                    f.leaf(i).level + 1);
        }
      }
    }
}

TEST_P(ForestFuzz, AreaIsPreserved) {
  auto f = random_forest(GetParam(), 4);
  double area = 0;
  for (const auto& lf : f.leaves()) area += lf.box.dx() * lf.box.dy();
  EXPECT_NEAR(area, 18.0, 1e-9);
}

TEST_P(ForestFuzz, ConstrainedSpaceReproducesCubics) {
  auto f = random_forest(GetParam(), 3);
  fem::FESpace fes(f, 3);
  auto poly = [](double x, double y) {
    return 0.5 * x * x * x - x * x * y + 2.0 * y * y - 1.0;
  };
  la::Vec dofs = fes.interpolate(poly);
  // The interpolant must agree with the polynomial at every constrained
  // node (through its closure) and at random interior points of every cell.
  const auto& dm = fes.dofmap();
  std::vector<double> nodal(dm.n_nodes());
  dm.expand(dofs.span(), nodal);
  for (std::size_t n = 0; n < dm.n_nodes(); ++n) {
    const auto p = dm.position(static_cast<std::int32_t>(n));
    EXPECT_NEAR(nodal[n], poly(p[0], p[1]), 1e-10) << "node " << n;
  }
  // Random-point evaluation via basis tabulation.
  std::mt19937 rng(GetParam() * 7 + 1);
  std::uniform_real_distribution<double> unit(-0.95, 0.95);
  const auto& tab = fes.tabulation();
  std::vector<double> vals(static_cast<std::size_t>(tab.n_basis()));
  for (std::size_t c = 0; c < fes.n_cells(); c += 3) {
    const auto g = fes.geometry(c);
    const double rx = unit(rng), ry = unit(rng);
    tab.eval_basis(rx, ry, vals.data());
    double v = 0;
    const auto nodes = dm.cell_nodes(c);
    for (int b = 0; b < tab.n_basis(); ++b)
      v += vals[static_cast<std::size_t>(b)] *
           nodal[static_cast<std::size_t>(nodes[static_cast<std::size_t>(b)])];
    const double x = g.x0 + 0.5 * g.dx * (rx + 1.0);
    const double y = g.y0 + 0.5 * g.dy * (ry + 1.0);
    EXPECT_NEAR(v, poly(x, y), 1e-9);
  }
}

TEST_P(ForestFuzz, MassMatrixStaysSymmetricPositive) {
  auto f = random_forest(GetParam(), 3);
  fem::FESpace fes(f, 2);
  la::CsrMatrix m = fes.block_pattern();
  fes.assemble_mass(m);
  la::Vec x(fes.n_dofs()), mx(fes.n_dofs());
  std::mt19937 rng(GetParam() + 99);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = dist(rng);
  m.mult(x, mx);
  EXPECT_GT(x.dot(mx), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestFuzz, ::testing::Values(11u, 23u, 37u, 51u, 68u));
