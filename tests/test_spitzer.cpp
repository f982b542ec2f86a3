#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "quench/model.h"
#include "quench/spitzer.h"

using namespace landau;
using namespace landau::quench;

TEST(Spitzer, FOfZLimits) {
  // F(1) ~ 0.5129 (the classic Spitzer value), F -> 0.222/0.753 as Z -> inf.
  EXPECT_NEAR(spitzer_f(1.0), 0.51286, 1e-4);
  EXPECT_NEAR(spitzer_f(1e9), 0.222 / 0.753, 1e-4);
  EXPECT_GT(spitzer_f(1.0), spitzer_f(4.0)); // decreasing in Z
}

TEST(Spitzer, EtaScalesAsTMinus32) {
  const double e1 = spitzer_eta(1.0, 1.0);
  const double e2 = spitzer_eta(1.0, 4.0);
  EXPECT_NEAR(e2, e1 / 8.0, 1e-12);
}

TEST(Spitzer, EtaGrowsWithZ) {
  EXPECT_GT(spitzer_eta(4.0), spitzer_eta(1.0));
  EXPECT_GT(spitzer_eta(16.0), spitzer_eta(4.0));
}

TEST(Spitzer, CriticalFieldScales) {
  EXPECT_NEAR(critical_field(1000.0, 1.0) / critical_field(500.0, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(critical_field(1000.0, 2.0) / critical_field(1000.0, 1.0), 2.0, 1e-12);
}

TEST(Spitzer, DreicerFieldRelations) {
  // E_D / E_c = m_e c^2 / kT: enormous for thermal plasmas, which is why the
  // quench model needs the high-energy tail to seed runaways (§IV).
  const double te = 3000.0;
  EXPECT_NEAR(dreicer_field(te) / critical_field(te), 510998.95 / te, 1e-9 * (510998.95 / te));
  // Hotter local plasma lowers E_D (more electrons near the runaway region).
  EXPECT_LT(dreicer_field(te, 1.0, 2.0), dreicer_field(te, 1.0, 1.0));
  // Density raises both fields proportionally.
  EXPECT_NEAR(dreicer_field(te, 3.0) / dreicer_field(te, 1.0), 3.0, 1e-12);
}

TEST(SpitzerVerification, ComputedResistivityNearSpitzerZ1) {
  // The §IV-B verification on a reduced problem: an electron-ion plasma with
  // the ion mass lowered to 25 m_e so the mesh can resolve both species
  // quickly (Spitzer resistivity is ion-mass independent in the heavy-ion
  // limit up to O(sqrt(m_e/m_i)) corrections). The ion Maxwellian MUST be
  // resolved: an aliased ion distribution destroys the e-i friction and the
  // current runs away instead of equilibrating. The paper reports ~1%
  // agreement on a 176-cell production mesh; here we accept 10%.
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOptions opts;
  opts.order = 3;
  opts.radius = 5.0;
  opts.base_levels = 1;
  opts.cells_per_thermal = 0.9;
  opts.max_levels = 5;
  opts.n_workers = 4; // the Jacobian kernel dominates; spread its cells over 4 SMs
  LandauOperator op(species, opts);
  // Sanity: the smallest cell resolves the ion thermal speed.
  double hmin = 1e30;
  for (const auto& lf : op.forest().leaves()) hmin = std::min(hmin, lf.box.dx());
  ASSERT_LE(hmin, species[1].thermal_speed() / 0.8);

  const double e_z = 5e-3; // small field: linear response regime
  NewtonOptions newton;
  newton.rtol = 1e-6;
  auto res = measure_resistivity(op, e_z, 1.0, 40, 2e-3, newton);
  ASSERT_NE(res.eta, 0.0);
  EXPECT_GT(res.j_z, 0.0); // electrons drift against E: positive current
  const double eta_sp = spitzer_eta(1.0);
  EXPECT_NEAR(res.eta / eta_sp, 1.0, 0.1)
      << "computed " << res.eta << " vs Spitzer " << eta_sp;
}
