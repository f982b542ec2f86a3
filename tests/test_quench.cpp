// End-to-end thermal quench model on a reduced problem: verifies the
// dynamics the paper's Fig. 5 shows qualitatively — density ramp from the
// source, temperature collapse, resistivity/E rise.

#include <gtest/gtest.h>

#include <cmath>

#include "quench/model.h"
#include "quench/spitzer.h"

using namespace landau;
using namespace landau::quench;

namespace {

LandauOperator make_op() {
  auto species = SpeciesSet::electron_deuterium();
  // Reduced mass ratio for test speed. The ion thermal speed (~0.18 v0) must
  // stay resolvable by the AMR depth below, or the e-i friction aliases away
  // and the current never equilibrates.
  species[1].mass = 25.0;
  LandauOptions opts;
  opts.order = 2;
  opts.radius = 4.5;
  opts.base_levels = 1;
  opts.cells_per_thermal = 0.8;
  opts.max_levels = 5;
  opts.n_workers = 4;
  return LandauOperator(species, opts);
}

QuenchOptions quench_opts() {
  QuenchOptions q;
  q.dt = 0.5;
  q.max_steps = 30;
  q.e_initial_over_ec = 0.5;
  q.te_ev = 3000.0;
  q.equilibrium_tol = 5e-3;
  q.min_equilibrium_steps = 2;
  q.source.total_injected = 3.0;
  q.source.t_start = 0.5;
  q.source.duration = 5.0;
  q.source.cold_temperature = 0.05;
  q.newton.rtol = 1e-6;
  return q;
}

} // namespace

TEST(Quench, SourcePulseEnvelopeIntegrates) {
  LandauOperator op = make_op();
  SourceSpec spec;
  spec.total_injected = 5.0;
  spec.t_start = 1.0;
  spec.duration = 4.0;
  ColdPulseSource src(op, spec);
  EXPECT_EQ(src.rate(0.5), 0.0);
  EXPECT_EQ(src.rate(5.5), 0.0);
  // Midpoint-rule integral of the rate over the pulse = total_injected.
  double total = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) total += src.rate(1.0 + (i + 0.5) * 4.0 / n) * 4.0 / n;
  EXPECT_NEAR(total, 5.0, 1e-4);
}

TEST(Quench, SourceIsQuasiNeutral) {
  LandauOperator op = make_op();
  SourceSpec spec;
  ColdPulseSource src(op, spec);
  la::Vec s(op.n_total());
  ASSERT_TRUE(src.evaluate(spec.t_start + 0.5 * spec.duration, &s));
  double charge_rate = 0.0;
  for (int sp = 0; sp < op.n_species(); ++sp) {
    const double n_rate = op.space().moment(op.block(s, sp), [](double, double) { return 1.0; });
    charge_rate += op.species()[sp].charge * n_rate;
  }
  EXPECT_NEAR(charge_rate, 0.0, 1e-8);
}

TEST(Quench, FullScenarioProducesExpectedDynamics) {
  LandauOperator op = make_op();
  auto qopts = quench_opts();
  QuenchModel model(op, qopts);
  const auto result = model.run();

  ASSERT_GT(result.history.size(), 10u);
  ASSERT_GE(result.switchover_step, 0) << "current never reached quasi-equilibrium";

  const auto& first = result.history.front();
  const auto& last = result.history.back();

  // Density grows by roughly the injected mass (conservative source).
  EXPECT_GT(last.n_e, first.n_e + 0.5 * result.mass_injected);
  EXPECT_NEAR(last.n_e - first.n_e, result.mass_injected, 0.2 * result.mass_injected);

  // Temperature collapses during the quench.
  EXPECT_LT(last.t_e, 0.85 * first.t_e);

  // In the quench phase E follows eta J and rises above the initial field.
  double max_e_quench = 0.0, e0 = first.e_z;
  for (const auto& s : result.history)
    if (s.quench_phase) max_e_quench = std::max(max_e_quench, std::abs(s.e_z));
  EXPECT_GT(max_e_quench, std::abs(e0));
}

TEST(Runaway, TailPopulationGrowsUnderStrongField) {
  // With a field well above the quasi-equilibrium value, fast electrons see
  // decreasing friction and the tail population grows — the seed-runaway
  // mechanism of §IV. The bulk, held by e-i friction, drifts only modestly.
  LandauOperator op = make_op();
  NewtonOptions loose;
  loose.rtol = 1e-6;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f = op.maxwellian_state();

  const double vc = 2.0;
  auto tail_fraction = [&](const la::Vec& state) {
    auto b = op.block(state, 0);
    const double n = op.space().moment(b, [](double, double) { return 1.0; });
    const double tail = op.space().moment(
        b, [&](double r, double z) { return r * r + z * z > vc * vc ? 1.0 : 0.0; });
    return tail / n;
  };
  // Control: identical steps with no field (tail relaxes toward Maxwellian).
  la::Vec f_ctl = f;
  for (int s = 0; s < 6; ++s) integrator.step(f_ctl, 0.5, /*e_z=*/0.0);
  const double tail_ctl = tail_fraction(f_ctl);
  // Driven: the field feeds the weakly collisional tail.
  for (int s = 0; s < 6; ++s) integrator.step(f, 0.5, /*e_z=*/0.15);
  const double tail_drv = tail_fraction(f);
  EXPECT_GT(tail_drv, 1.15 * tail_ctl); // clear excess over the no-field control
  // Bulk drift bounded by friction (far below free acceleration E*t = 0.45).
  auto b = op.block(f, 0);
  const double n = op.space().moment(b, [](double, double) { return 1.0; });
  const double uz = op.space().moment(b, [](double, double z) { return z; }) / n;
  EXPECT_LT(std::abs(uz), 0.25);
}

TEST(Quench, ResistivityPhaseCurrentGrowsTowardSteadyState) {
  LandauOperator op = make_op();
  NewtonOptions loose;
  loose.rtol = 1e-6;
  auto res = measure_resistivity(op, 1e-3, 0.5, 40, 5e-3, loose);
  EXPECT_TRUE(res.converged);
  // Electrons drift against E (charge -1): J = -q_e n u ... sign works out
  // positive for E > 0.
  EXPECT_GT(res.j_z, 0.0);
  EXPECT_GT(res.eta, 0.0);
}
