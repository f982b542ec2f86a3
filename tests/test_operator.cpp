// Integration tests: implicit time stepping with conservation invariants,
// relaxation to Maxwellian, H-theorem, and two-species temperature
// equilibration — the physics the conservative discretization exists for.

#include <gtest/gtest.h>

#include <cmath>

#include "core/operator.h"
#include "solver/implicit.h"
#include "util/special_math.h"

using namespace landau;

namespace {

SpeciesSet electron_only() {
  return SpeciesSet(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
}

LandauOptions test_opts() {
  LandauOptions o;
  o.order = 3;
  o.radius = 4.0;
  o.base_levels = 1;
  o.cells_per_thermal = 0.8;
  o.max_levels = 3;
  o.backend = Backend::CudaSim;
  o.n_workers = 2;
  return o;
}

/// Discrete entropy -\int f ln f dmu (quadrature on the FE space).
double entropy(const LandauOperator& op, const la::Vec& f, int s) {
  auto b = op.block(f, s);
  // moment() evaluates f at quadrature points internally through g... we
  // need f ln f, so compute via a projected ln f — instead use the moment of
  // the function evaluated from dof values directly:
  std::vector<double> vals(op.space().n_ips()), gr(op.space().n_ips()), gz(op.space().n_ips());
  std::vector<double> r(op.space().n_ips()), z(op.space().n_ips()), w(op.space().n_ips());
  op.space().eval_at_ips(b, vals, gr, gz);
  op.space().ip_coordinates(r, z, w);
  double h = 0.0;
  for (std::size_t ip = 0; ip < vals.size(); ++ip) {
    const double fv = std::max(vals[ip], 1e-300);
    h -= 2.0 * kPi * r[ip] * w[ip] * fv * std::log(fv);
  }
  return h;
}

} // namespace

TEST(Operator, MaxwellianStateHasCorrectMoments) {
  LandauOperator op(electron_only(), test_opts());
  la::Vec f = op.maxwellian_state();
  const auto m = op.moments(f, 0);
  EXPECT_NEAR(m.density, 1.0, 2e-2);
  EXPECT_NEAR(m.energy, 0.5 * 1.5 * (kPi / 4.0), 2e-2); // (m/2)(3/2) theta
  EXPECT_NEAR(m.momentum_z, 0.0, 1e-10);
  EXPECT_NEAR(op.electron_temperature(f), 1.0, 3e-2);
}

TEST(Operator, ConservationOverImplicitSteps) {
  LandauOperator op(electron_only(), test_opts());
  NewtonOptions nopts;
  nopts.rtol = 1e-10;
  ImplicitIntegrator integrator(op, nopts);

  // Anisotropic (bi-Maxwellian) initial state: far from equilibrium but
  // smooth and well resolved.
  la::Vec f = op.project([](int, double r, double z) {
    const double th_perp = 0.5, th_par = 1.2;
    return 1.0 / (std::pow(kPi, 1.5) * th_perp * std::sqrt(th_par)) *
           std::exp(-r * r / th_perp - z * z / th_par);
  });
  const auto m0 = op.moments(f, 0);
  for (int s = 0; s < 3; ++s) integrator.step(f, 0.5);
  const auto m1 = op.moments(f, 0);

  // The discrete tensor identities make these exact to solver tolerance.
  EXPECT_NEAR(m1.density, m0.density, 1e-9 * std::abs(m0.density));
  EXPECT_NEAR(m1.momentum_z, m0.momentum_z, 1e-9 * std::max(1.0, std::abs(m0.momentum_z)));
  EXPECT_NEAR(m1.energy, m0.energy, 1e-8 * std::abs(m0.energy));
}

TEST(Operator, RelaxationTowardIsotropy) {
  LandauOperator op(electron_only(), test_opts());
  NewtonOptions loose;
  loose.rtol = 1e-6;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f = op.project([](int, double r, double z) {
    const double th_perp = 0.5, th_par = 1.2;
    return 1.0 / (std::pow(kPi, 1.5) * th_perp * std::sqrt(th_par)) *
           std::exp(-r * r / th_perp - z * z / th_par);
  });
  auto anisotropy = [&](const la::Vec& state) {
    auto b = op.block(state, 0);
    const double n = op.space().moment(b, [](double, double) { return 1.0; });
    const double tperp = op.space().moment(b, [](double r, double) { return r * r; }) / n;
    const double tpar = op.space().moment(b, [](double, double z) { return z * z; }) / n;
    return tpar / (0.5 * tperp); // 1 when isotropic (tperp has 2 dof)
  };
  const double a0 = anisotropy(f);
  for (int s = 0; s < 6; ++s) integrator.step(f, 0.5);
  const double a1 = anisotropy(f);
  EXPECT_GT(a0, 1.5);                       // initial state is anisotropic
  EXPECT_LT(std::abs(a1 - 1.0), 0.8 * std::abs(a0 - 1.0)); // moved toward 1
}

TEST(Operator, HTheoremEntropyNondecreasing) {
  LandauOperator op(electron_only(), test_opts());
  NewtonOptions loose;
  loose.rtol = 1e-6;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f = op.project([](int, double r, double z) {
    return maxwellian_rz(r, z, 0.7, 0.9, 0.8) + maxwellian_rz(r, z, 0.3, 0.4, -0.9);
  });
  double h_prev = entropy(op, f, 0);
  for (int s = 0; s < 5; ++s) {
    integrator.step(f, 0.4);
    const double h = entropy(op, f, 0);
    EXPECT_GE(h, h_prev - 1e-8 * std::abs(h_prev)) << "step " << s;
    h_prev = h;
  }
}

TEST(Operator, TwoSpeciesTemperatureEquilibration) {
  // Electrons hot, light "ions" cold: collisions must pull the temperatures
  // together while conserving total energy.
  SpeciesSet sp({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.3},
                 {.name = "i", .mass = 5.0, .charge = 1.0, .density = 1.0, .temperature = 0.5}});
  auto opts = test_opts();
  opts.cells_per_thermal = 1.0;
  opts.max_levels = 4;
  LandauOperator op(sp, opts);
  NewtonOptions loose;
  loose.rtol = 1e-6;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f = op.maxwellian_state();

  auto temperature = [&](const la::Vec& state, int s) {
    auto b = op.block(state, s);
    const double n = op.space().moment(b, [](double, double) { return 1.0; });
    const double v2 = op.space().moment(b, [](double r, double z) { return r * r + z * z; }) / n;
    return (4.0 / kPi) * sp[s].mass * (2.0 / 3.0) * v2;
  };
  const double te0 = temperature(f, 0), ti0 = temperature(f, 1);
  const double etot0 = op.moments(f, 0).energy + op.moments(f, 1).energy;
  for (int s = 0; s < 4; ++s) integrator.step(f, 1.0);
  const double te1 = temperature(f, 0), ti1 = temperature(f, 1);
  const double etot1 = op.moments(f, 0).energy + op.moments(f, 1).energy;

  EXPECT_LT(te1 - ti1, te0 - ti0);      // gap shrinks
  EXPECT_LT(te1, te0 + 1e-12);          // hot species cools
  EXPECT_GT(ti1, ti0 - 1e-12);          // cold species heats
  // Energy conserved to Newton-residual accumulation (rtol 1e-6 per step).
  EXPECT_NEAR(etot1, etot0, 5e-6 * etot0);
}

TEST(Operator, NewtonConvergesLinearly) {
  // The frozen-coefficient quasi-Newton converges linearly (§III): expect a
  // roughly constant contraction factor, a moderate iteration count at
  // engineering tolerance, and more iterations for tighter tolerance.
  LandauOperator op(electron_only(), test_opts());
  la::Vec f0 = op.project(
      [](int, double r, double z) { return maxwellian_rz(r, z, 1.0, 0.6, 0.5); });

  NewtonOptions loose;
  loose.rtol = 1e-6;
  la::Vec fa = f0;
  ImplicitIntegrator ia(op, loose);
  const auto sa = ia.step(fa, 0.5);
  EXPECT_TRUE(sa.converged);
  EXPECT_LE(sa.newton_iterations, 25);
  EXPECT_GE(sa.newton_iterations, 1);

  NewtonOptions tight;
  tight.rtol = 1e-10;
  la::Vec fb = f0;
  ImplicitIntegrator ib(op, tight);
  const auto sb = ib.step(fb, 0.5);
  EXPECT_TRUE(sb.converged);
  EXPECT_GT(sb.newton_iterations, sa.newton_iterations); // linear, not quadratic
}

TEST(Operator, BandSolverSeesOneBlockPerSpecies) {
  SpeciesSet sp = SpeciesSet::electron_deuterium();
  sp[1].mass = 25.0;
  LandauOperator op(sp, test_opts());
  NewtonOptions loose;
  loose.rtol = 1e-5;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f = op.maxwellian_state();
  integrator.step(f, 0.3);
  EXPECT_EQ(integrator.band_blocks(), 2u);
  EXPECT_LT(integrator.band_bandwidth(), op.n_dofs_per_species());
}

TEST(Operator, LinearSolversAgree) {
  LandauOperator op(electron_only(), test_opts());
  la::Vec f0 = op.project(
      [](int, double r, double z) { return maxwellian_rz(r, z, 1.0, 0.8, -0.4); });

  la::Vec f_band = f0, f_device = f0, f_dense = f0, f_gmres = f0;
  NewtonOptions nopts;
  nopts.rtol = 1e-8;
  ImplicitIntegrator band(op, nopts, LinearSolverKind::BandLU);
  band.step(f_band, 0.5);
  ImplicitIntegrator device(op, nopts, LinearSolverKind::DeviceBandLU);
  device.step(f_device, 0.5);
  ImplicitIntegrator dense(op, nopts, LinearSolverKind::DenseLU);
  dense.step(f_dense, 0.5);
  ImplicitIntegrator gmres(op, nopts, LinearSolverKind::Gmres);
  gmres.step(f_gmres, 0.5);

  for (std::size_t i = 0; i < f_band.size(); ++i) {
    EXPECT_NEAR(f_device[i], f_band[i], 1e-10 * std::max(1.0, std::abs(f_band[i])));
    EXPECT_NEAR(f_dense[i], f_band[i], 1e-7 * std::max(1.0, std::abs(f_band[i])));
    EXPECT_NEAR(f_gmres[i], f_band[i], 1e-5 * std::max(1.0, std::abs(f_band[i])));
  }
}

TEST(Operator, PairTablesStayWithinTheMemoryBudget) {
  // This Q3 mesh of 3,680 points would need 517 MiB of pair-tensor tables,
  // just over kPairTableBudgetBytes: its add_collision builds none and
  // recomputes, so the matrix is the one of its context without a table.
  SpeciesSet sp = SpeciesSet::electron_deuterium();
  sp[1].mass = 25.0;
  LandauOptions o = test_opts();
  o.radius = 5.0;
  o.cells_per_thermal = 1.5;
  o.max_levels = 4;
  o.n_workers = 1;
  LandauOperator op(sp, o);
  op.pack(op.maxwellian_state());
  const std::size_t need = op.n_ips_total() * op.ip_data().n_padded() * sizeof(TensorChunk) / kIpChunk;
  ASSERT_GT(need, kPairTableBudgetBytes);
  ASSERT_LT(need, kPairTableBudgetBytes + kPairTableBudgetBytes / 20) << "not just over";

  la::CsrMatrix j = op.new_matrix();
  op.add_collision(j);
  const JacobianContext ctx = op.make_context(0);
  EXPECT_TRUE(ctx.tensor.empty());
  la::CsrMatrix ref = op.new_matrix();
  exec::ThreadPool pool(1);
  assemble_landau_jacobian(Backend::CudaSim, pool, ctx, ref);
  ASSERT_EQ(j.nnz(), ref.nnz());
  for (std::size_t k = 0; k < j.nnz(); ++k) EXPECT_EQ(j.values()[k], ref.values()[k]) << k;
}
