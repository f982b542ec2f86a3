// Full 3D velocity-space Landau operator: discretization sanity, exact
// conservation of density / all momentum components / energy (the plain 3D
// tensor is symmetric and annihilates v - vbar), Maxwellian equilibrium,
// back-end consistency and relaxation physics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "landau3d/operator3d.h"
#include "solver/implicit.h"
#include "util/profiler.h"
#include "util/special_math.h"

using namespace landau;
using namespace landau::v3;

namespace {

// The 3D grid is uniform (no AMR), so the tests use a hot species whose
// thermal width spans a cell: temperature 2.5 -> theta ~ 1.96, vth ~ 1.4
// against h = 1.75 with Q3 nodes.
SpeciesSet electron_only() {
  return SpeciesSet(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 2.5}});
}

SpeciesSet two_species() {
  return SpeciesSet(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 2.5},
       {.name = "i", .mass = 2.0, .charge = 1.0, .density = 1.0, .temperature = 2.5}});
}

Landau3DOptions small3d(Backend be = Backend::CudaSim) {
  Landau3DOptions o;
  o.radius = 3.5;
  o.cells_per_dim = 4;
  o.order = 3;
  o.backend = be;
  o.n_workers = 2;
  return o;
}

double gauss3(double x, double y, double z, double n, double tx, double ty, double tz) {
  return n / (std::pow(kPi, 1.5) * std::sqrt(tx * ty * tz)) *
         std::exp(-x * x / tx - y * y / ty - z * z / tz);
}

} // namespace

TEST(Space3D, QuadratureIntegratesVolume) {
  Space3D space(2.0, 3, 2);
  la::Vec one = space.interpolate([](double, double, double) { return 1.0; });
  EXPECT_NEAR(space.moment(one.span(), [](double, double, double) { return 1.0; }), 64.0, 1e-10);
}

TEST(Space3D, ConformingDofCount) {
  Space3D space(1.0, 3, 2);
  // (3*2+1)^3 nodes.
  EXPECT_EQ(space.n_dofs(), 343u);
  EXPECT_EQ(space.n_cells(), 27u);
}

TEST(Space3D, EvalReproducesTriquadratic) {
  Space3D space(2.0, 3, 2);
  auto f = [](double x, double y, double z) { return x * x - y * z + 2.0 * z * z - 1.0; };
  la::Vec dofs = space.interpolate(f);
  std::vector<double> v(space.n_ips()), gx(space.n_ips()), gy(space.n_ips()), gz(space.n_ips());
  std::vector<double> x(space.n_ips()), y(space.n_ips()), z(space.n_ips()), w(space.n_ips());
  space.eval_at_ips(dofs.span(), v, gx, gy, gz);
  space.ip_coordinates(x, y, z, w);
  for (std::size_t ip = 0; ip < space.n_ips(); ip += 7) {
    EXPECT_NEAR(v[ip], f(x[ip], y[ip], z[ip]), 1e-11);
    EXPECT_NEAR(gx[ip], 2 * x[ip], 1e-10);
    EXPECT_NEAR(gy[ip], -z[ip], 1e-10);
    EXPECT_NEAR(gz[ip], -y[ip] + 4 * z[ip], 1e-10);
  }
}

TEST(Space3D, MassMatrixIntegratesL2Norm) {
  Space3D space(1.5, 2, 2);
  la::CsrMatrix m = space.block_pattern();
  space.assemble_mass(m);
  auto f = [](double x, double y, double z) { return 1.0 + x - 0.5 * y * z; };
  la::Vec dofs = space.interpolate(f);
  la::Vec mx(space.n_dofs());
  m.mult(dofs, mx);
  // \int f^2 over [-1.5,1.5]^3 (f is triquadratic -> quadrature exact).
  double exact = 0;
  const int nn = 60;
  for (int i = 0; i < nn; ++i)
    for (int jj = 0; jj < nn; ++jj)
      for (int k = 0; k < nn; ++k) {
        const double x = -1.5 + (i + 0.5) * 3.0 / nn;
        const double y = -1.5 + (jj + 0.5) * 3.0 / nn;
        const double z = -1.5 + (k + 0.5) * 3.0 / nn;
        exact += f(x, y, z) * f(x, y, z) * std::pow(3.0 / nn, 3);
      }
  EXPECT_NEAR(dofs.dot(mx), exact, 2e-3 * exact);
}

TEST(Space3D, CooAssemblyMatchesTraditionalPath) {
  // The 3-D grid scatters through the 2-D kernels' fem::ElementScatter, with
  // one weight-1 slot per element entry. It must add exactly what per-entry
  // (row, column) adds over Space3D::cell_dofs add, for two species blocks
  // and two element terms.
  const Space3D space(1.5, 2, 2);
  const auto nb = static_cast<std::size_t>(space.tabulation().n_basis());
  const la::CsrMatrix& pattern = space.block_pattern();
  const std::vector<const la::CsrMatrix*> blocks{&pattern, &pattern};
  const std::vector<std::size_t> offsets{0, pattern.nnz()};
  const std::vector<double> coeff{0.5, -1.25, 3.0, 0.125}; // [species][term]
  la::CsrMatrix by_map = la::CsrMatrix::block_diagonal(blocks);
  std::vector<la::CsrMatrix> by_entry(2, pattern);
  const la::Vec u = space.interpolate([](double x, double y, double z) { return 1 + x - y * z; });
  // The first term vanishes where (a + b) % 3 == 0, so diagonal entries with
  // a % 3 == 0 are zero and take the sparsity skip; the second is
  // antisymmetric.
  std::vector<double> x(2 * nb * nb);
  for (std::size_t c = 0; c < space.n_cells(); ++c) {
    const auto dofs = space.cell_dofs(c);
    for (std::size_t a = 0; a < nb; ++a)
      for (std::size_t b = 0; b < nb; ++b) {
        const double ua = u[static_cast<std::size_t>(dofs[a])];
        const double ub = u[static_cast<std::size_t>(dofs[b])];
        x[a * nb + b] = (a + b) % 3 == 0 ? 0.0 : ua * ub;
        x[nb * nb + a * nb + b] = ua - ub;
      }
    space.scatter().add(c, x, coeff, offsets, by_map.values(), false);
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t a = 0; a < nb; ++a)
        for (std::size_t b = 0; b < nb; ++b)
          by_entry[s].add(static_cast<std::size_t>(dofs[a]), static_cast<std::size_t>(dofs[b]),
                          coeff[2 * s] * x[a * nb + b] + coeff[2 * s + 1] * x[nb * nb + a * nb + b]);
  }
  for (std::size_t s = 0; s < 2; ++s) {
    const auto want = by_entry[s].values();
    const auto got = by_map.values().subspan(offsets[s], want.size());
    for (std::size_t k = 0; k < want.size(); ++k)
      EXPECT_EQ(got[k], want[k]) << "species " << s << " value " << k;
  }
}

TEST(Landau3D, MaxwellianMoments) {
  Landau3DOperator op(electron_only(), small3d());
  la::Vec f = op.maxwellian_state();
  const auto m = op.moments(f, 0);
  const double theta = op.species()[0].theta();
  EXPECT_NEAR(m.density, 1.0, 3e-2);
  EXPECT_NEAR(m.energy, 0.75 * theta, 3e-2 * 0.75 * theta + 2e-2);
  EXPECT_NEAR(m.momentum[2], 0.0, 1e-10);
}

TEST(Landau3D, BackendsAgree) {
  Landau3DOperator op_cpu(electron_only(), small3d(Backend::Cpu));
  Landau3DOperator op_cuda(electron_only(), small3d(Backend::CudaSim));
  la::Vec f = op_cpu.project([](int, double x, double y, double z) {
    return gauss3(x, y, z, 1.0, 1.3, 1.7, 2.2);
  });
  op_cpu.pack(f);
  op_cuda.pack(f);
  la::CsrMatrix j1 = op_cpu.new_matrix();
  la::CsrMatrix j2 = op_cuda.new_matrix();
  op_cpu.add_collision(j1);
  op_cuda.add_collision(j2);
  double scale = 0;
  for (std::size_t k = 0; k < j1.nnz(); ++k) scale = std::max(scale, std::abs(j1.values()[k]));
  for (std::size_t k = 0; k < j1.nnz(); ++k)
    EXPECT_NEAR(j2.values()[k], j1.values()[k], 1e-11 * scale);
}

TEST(Landau3D, KernelWorkIsCountedOncePerLaunch) {
  // Both 3-D kernels integrate every cell point against every source point,
  // 60 flops a pair; add_collision reports that to the caller's counters and
  // to its landau3d:matrix event alike.
  for (Backend be : {Backend::Cpu, Backend::CudaSim}) {
    SCOPED_TRACE(backend_name(be));
    Landau3DOptions o = small3d(be);
    o.cells_per_dim = 2;
    o.order = 2;
    Landau3DOperator op(electron_only(), o);
    op.pack(op.maxwellian_state());
    la::CsrMatrix j = op.new_matrix();
    exec::KernelCounters counters;
    Profiler::instance().reset();
    op.add_collision(j, &counters);
    const auto cells = static_cast<std::int64_t>(op.space().n_cells());
    const auto nq = static_cast<std::int64_t>(op.space().tabulation().n_quad());
    const auto n = static_cast<std::int64_t>(op.space().n_ips());
    EXPECT_EQ(counters.flops.load(), cells * nq * n * 60);
    const EventStats e = Profiler::instance().stats("landau3d:matrix");
    EXPECT_EQ(e.flops, counters.flops.load());
    EXPECT_EQ(e.dram_bytes, counters.dram_bytes.load());
    EXPECT_GT(e.dram_bytes, 0);
  }
}

TEST(Landau3D, MaxwellianNearEquilibrium) {
  Landau3DOperator op(electron_only(), small3d());
  la::Vec fm = op.maxwellian_state();
  op.pack(fm);
  la::CsrMatrix c = op.new_matrix();
  op.add_collision(c);
  la::Vec rm(op.n_total());
  c.mult(fm, rm);

  la::Vec g = op.project([](int, double x, double y, double z) {
    return gauss3(x, y, z, 1.0, 1.0, 1.8, 2.6);
  });
  op.pack(g);
  c.zero_entries();
  op.add_collision(c);
  la::Vec rg(op.n_total());
  c.mult(g, rg);
  EXPECT_LT(rm.norm2(), 0.05 * rg.norm2());
}

TEST(Landau3D, ExactConservationOfAllInvariants) {
  // 3D carries three momentum components; all are conserved to solver
  // tolerance along with density and energy.
  Landau3DOperator op(electron_only(), small3d());
  NewtonOptions tight;
  tight.rtol = 1e-10;
  ImplicitIntegrator integrator(op, tight);
  la::Vec f = op.project([](int, double x, double y, double z) {
    // Anisotropic and drifting in x and z.
    return gauss3(x - 0.3, y, z + 0.4, 1.0, 1.2, 1.8, 2.4);
  });
  const auto m0 = op.moments(f, 0);
  for (int s = 0; s < 2; ++s) integrator.step(f, 0.4);
  const auto m1 = op.moments(f, 0);
  EXPECT_NEAR(m1.density, m0.density, 1e-9);
  for (int d = 0; d < 3; ++d)
    EXPECT_NEAR(m1.momentum[d], m0.momentum[d], 1e-9 * std::max(1.0, std::abs(m0.momentum[d])))
        << "component " << d;
  EXPECT_NEAR(m1.energy, m0.energy, 1e-8 * m0.energy);
}

TEST(Landau3D, IsotropizationIn3D) {
  Landau3DOperator op(electron_only(), small3d());
  NewtonOptions loose;
  loose.rtol = 1e-6;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f = op.project([](int, double x, double y, double z) {
    return gauss3(x, y, z, 1.0, 0.9, 1.6, 2.6);
  });
  auto temps = [&](const la::Vec& state) {
    auto b = op.block(state, 0);
    const double n = op.space().moment(b, [](double, double, double) { return 1.0; });
    const double tx = op.space().moment(b, [](double x, double, double) { return x * x; }) / n;
    const double tz = op.space().moment(b, [](double, double, double z) { return z * z; }) / n;
    return tz / tx;
  };
  const double a0 = temps(f);
  for (int s = 0; s < 3; ++s) integrator.step(f, 0.5);
  const double a1 = temps(f);
  EXPECT_GT(a0, 1.8);
  EXPECT_LT(std::abs(a1 - 1.0), 0.9 * std::abs(a0 - 1.0));
}

TEST(Landau3D, TwoSpeciesMomentumExchange) {
  Landau3DOperator op(two_species(), small3d());
  NewtonOptions loose;
  loose.rtol = 1e-7;
  ImplicitIntegrator integrator(op, loose);
  const double drifts[2] = {0.5, 0.0};
  la::Vec f = op.maxwellian_state(drifts);
  const double pe0 = op.moments(f, 0).momentum[2];
  const double pi0 = op.moments(f, 1).momentum[2];
  integrator.step(f, 0.6);
  const double pe1 = op.moments(f, 0).momentum[2];
  const double pi1 = op.moments(f, 1).momentum[2];
  EXPECT_LT(pe1, pe0);                                 // friction decelerates electrons
  EXPECT_GT(pi1, pi0);                                 // ions pick the momentum up
  EXPECT_NEAR(pe1 + pi1, pe0 + pi0, 1e-7 * std::abs(pe0)); // total conserved (Newton rtol)
}

TEST(Landau3D, AdvectionAcceleratesAlongZ) {
  Landau3DOperator op(electron_only(), small3d());
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix a = op.new_matrix();
  op.add_advection(a, 0.2);
  la::Vec af(op.n_total());
  a.mult(f, af);
  la::Vec zf = op.project([](int, double, double, double z) { return z; });
  EXPECT_GT(std::abs(zf.dot(af)), 1e-8); // momentum moment responds to E
  la::Vec one = op.project([](int, double, double, double) { return 1.0; });
  EXPECT_LT(std::abs(one.dot(af)), 1e-8 * std::abs(zf.dot(af))); // density does not
}

TEST(Landau3D, NewMatrixIsTheCellPatternPerSpecies) {
  // new_matrix() is the grid's block pattern once per species, equal to the
  // pattern rebuilt here cell by cell for each species; mass() holds the
  // host mass matrix in every block.
  auto opts = small3d();
  opts.cells_per_dim = 2;
  opts.order = 2;
  const Landau3DOperator op(two_species(), opts);
  const Space3D& space = op.space();
  la::SparsityPattern pattern(op.n_total(), op.n_total());
  for (std::size_t c = 0; c < space.n_cells(); ++c)
    for (int s = 0; s < op.n_species(); ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * space.n_dofs();
      for (auto di : space.cell_dofs(c))
        for (auto dj : space.cell_dofs(c))
          pattern.add(off + static_cast<std::size_t>(di), off + static_cast<std::size_t>(dj));
    }
  pattern.compress();
  const la::CsrMatrix want(pattern);
  const la::CsrMatrix got = op.new_matrix();
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_TRUE(std::ranges::equal(got.row_offsets(), want.row_offsets()));
  EXPECT_TRUE(std::ranges::equal(got.col_indices(), want.col_indices()));

  la::CsrMatrix m1 = space.block_pattern();
  space.assemble_mass(m1);
  for (int s = 0; s < op.n_species(); ++s)
    EXPECT_TRUE(std::ranges::equal(
        op.mass().values().subspan(static_cast<std::size_t>(s) * m1.nnz(), m1.nnz()), m1.values()))
        << "species " << s;
}

TEST(Landau3D, AssemblyRejectsForeignMatrix) {
  // As in 2-D: a scatter by value index cannot tell, entry by entry, that a
  // matrix has another pattern, so add_collision and add_advection check the
  // layout first.
  auto opts = small3d();
  opts.cells_per_dim = 2;
  opts.order = 2;
  Landau3DOperator op(two_species(), opts);
  op.pack(op.maxwellian_state());
  la::CsrMatrix foreign = Space3D(opts.radius, 3, opts.order).block_pattern();
  EXPECT_THROW(op.add_collision(foreign), Error);
  EXPECT_THROW(op.add_advection(foreign, 0.3), Error);

  // Same rows and nnz, other row offsets: the last entry of the first row
  // moved to the last row, inside the second species' block.
  const la::CsrMatrix own_pattern = op.new_matrix();
  const auto rowptr = own_pattern.row_offsets();
  const auto colind = own_pattern.col_indices();
  la::SparsityPattern moved(own_pattern.rows(), own_pattern.cols());
  for (std::size_t i = 0; i < own_pattern.rows(); ++i)
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
      moved.add(k == rowptr[1] - 1 ? own_pattern.rows() - 1 : i,
                static_cast<std::size_t>(colind[k]));
  moved.compress();
  la::CsrMatrix shifted(moved);
  ASSERT_EQ(shifted.nnz(), own_pattern.nnz());
  EXPECT_THROW(op.add_collision(shifted), Error);
  EXPECT_THROW(op.add_advection(shifted, 0.3), Error);

  la::CsrMatrix own = op.new_matrix();
  EXPECT_NO_THROW(op.add_collision(own));
  EXPECT_NO_THROW(op.add_advection(own, 0.3));
}
