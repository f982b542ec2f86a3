// Back-end consistency and basic physics of the Landau Jacobian kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/operator.h"
#include "util/special_math.h"

using namespace landau;

namespace {

LandauOptions small_opts(Backend backend = Backend::Cpu) {
  LandauOptions o;
  o.order = 2; // keep kernel tests quick; Q3 covered in operator tests
  o.radius = 4.0;
  o.base_levels = 1;
  o.cells_per_thermal = 0.6;
  o.max_levels = 3;
  o.backend = backend;
  o.n_workers = 2;
  return o;
}

/// A clearly non-equilibrium two-bump state for one species.
double two_bump(double r, double z) {
  return maxwellian_rz(r, z, 0.6, 0.8, 1.0) + maxwellian_rz(r, z, 0.4, 0.5, -1.2);
}

/// A test plasma and its thermal-speed clustering.
struct Plasma {
  const char* name;
  SpeciesSet species;
  double cluster_ratio;
  LandauOperator op(Backend backend = Backend::Cpu) const {
    return LandauOperator(species, small_opts(backend), cluster_ratio);
  }
};

/// Electron + deuterium with the mass ratio reduced so one grid stays small.
Plasma electron_deuterium() {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  return {"e/D", species, std::numeric_limits<double>::infinity()};
}

/// The e/D/8 W plasma with the species10 workload's reduced masses, on one grid.
Plasma tungsten_one_grid() {
  auto species = SpeciesSet::tungsten_plasma();
  species[1].mass = 100.0;
  for (int s = 2; s < species.size(); ++s) species[s].mass = 1600.0;
  return {"e/D/8 W, one grid", species, std::numeric_limits<double>::infinity()};
}

/// The e/D/8 W plasma with physical masses, clustered e | D | 8 W on three grids.
Plasma tungsten_three_grids() {
  return {"e | D | 8 W, three grids", SpeciesSet::tungsten_plasma(), 2.0};
}

/// First row of species s's block in the state vector.
std::size_t block_offset(const LandauOperator& op, int s) {
  std::size_t off = 0;
  for (int t = 0; t < s; ++t) off += op.n_dofs(t);
  return off;
}

/// Largest |a - b| within each species block, relative to that block's
/// largest |b|: blocks on grids of different thermal scale differ by orders
/// of magnitude, so each is compared at its own scale.
double block_deviation(const LandauOperator& op, const la::CsrMatrix& a, const la::CsrMatrix& b) {
  EXPECT_EQ(a.nnz(), b.nnz());
  const auto rowptr = b.row_offsets();
  double worst = 0.0;
  for (int s = 0; s < op.n_species(); ++s) {
    double diff = 0.0, scale = 0.0;
    const std::size_t r0 = block_offset(op, s);
    for (std::size_t i = r0; i < r0 + op.n_dofs(s); ++i)
      for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        diff = std::max(diff, std::abs(a.values()[k] - b.values()[k]));
        scale = std::max(scale, std::abs(b.values()[k]));
      }
    EXPECT_GT(scale, 0.0) << "species " << s;
    worst = std::max(worst, diff / scale);
  }
  return worst;
}

} // namespace

TEST(Kernels, AllBackendsProduceTheSameJacobian) {
  // The fast kernels contract the species-free K_e and D_e and scale them at
  // the scatter; the CPU reference scales each species' point values and
  // contracts per species.
  for (const Plasma& plasma :
       {electron_deuterium(), tungsten_one_grid(), tungsten_three_grids()}) {
    SCOPED_TRACE(plasma.name);
    LandauOperator cpu = plasma.op(Backend::Cpu);
    cpu.pack(cpu.maxwellian_state());
    la::CsrMatrix j_cpu = cpu.new_matrix();
    cpu.add_collision(j_cpu);
    for (Backend be : {Backend::CudaSim, Backend::KokkosSim}) {
      LandauOperator op = plasma.op(be);
      op.pack(op.maxwellian_state());
      la::CsrMatrix j = op.new_matrix();
      op.add_collision(j);
      EXPECT_LT(block_deviation(op, j, j_cpu), 1e-11) << backend_name(be);
    }
  }
}

TEST(Kernels, JacobianIsBlockDiagonalAcrossSpecies) {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts());
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  op.add_collision(j);
  const std::size_t nf = op.n_dofs_per_species();
  auto rowptr = j.row_offsets();
  auto colind = j.col_indices();
  for (std::size_t i = 0; i < j.rows(); ++i)
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
      EXPECT_EQ(i / nf, static_cast<std::size_t>(colind[k]) / nf)
          << "cross-species coupling at (" << i << "," << colind[k] << ")";
}

TEST(Kernels, MaxwellianIsNearEquilibrium) {
  // C(f_M) f_M must be small compared to C(g) g for a non-equilibrium g.
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  auto opts = small_opts();
  opts.order = 3;
  opts.cells_per_thermal = 1.2;
  opts.max_levels = 3;
  LandauOperator op(electron_only, opts);

  la::Vec fm = op.maxwellian_state();
  op.pack(fm);
  la::CsrMatrix c = op.new_matrix();
  op.add_collision(c);
  la::Vec rm(op.n_total());
  c.mult(fm, rm);

  la::Vec g = op.project([](int, double r, double z) { return two_bump(r, z); });
  op.pack(g);
  c.zero_entries();
  op.add_collision(c);
  la::Vec rg(op.n_total());
  c.mult(g, rg);

  EXPECT_LT(rm.norm2(), 2e-2 * rg.norm2());
}

TEST(Kernels, CollisionAnnihilatesConstantsExactly) {
  // Column sums against the constant test function vanish: density moment of
  // C f is zero for any f (grad psi = 0 kills both terms).
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOperator op(electron_only, small_opts());
  la::Vec g = op.project([](int, double r, double z) { return two_bump(r, z); });
  op.pack(g);
  la::CsrMatrix c = op.new_matrix();
  op.add_collision(c);
  la::Vec cf(op.n_total());
  c.mult(g, cf);
  // 1^T M^{-1}... the weak-form statement is sum_a psi_a(=1) . (C f)_a = 0
  // where the coefficient vector of psi=1 is all ones.
  double s = 0.0, amax = 0.0;
  for (std::size_t i = 0; i < cf.size(); ++i) {
    s += cf[i];
    amax = std::max(amax, std::abs(cf[i]));
  }
  EXPECT_NEAR(s, 0.0, 1e-10 * std::max(amax, 1e-30) * static_cast<double>(cf.size()));
}

TEST(Kernels, CountersReportComputeBoundJacobian) {
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOperator op(electron_only, small_opts(Backend::CudaSim));
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  exec::KernelCounters jac_counters, mass_counters;
  op.add_collision(j, &jac_counters);
  op.add_mass_kernel(j, 1.0, &mass_counters);
  // The paper's Table IV contrast: Jacobian AI >> mass AI.
  EXPECT_GT(jac_counters.arithmetic_intensity(), 4.0);
  EXPECT_LT(mass_counters.arithmetic_intensity(), 2.5);
  EXPECT_GT(jac_counters.arithmetic_intensity(), 4.0 * mass_counters.arithmetic_intensity());
}

TEST(Kernels, MassKernelMatchesHostMassMatrix) {
  // The kernel scatters one M_e per cell into every species block of its grid.
  for (const Plasma& plasma : {electron_deuterium(), tungsten_three_grids()}) {
    SCOPED_TRACE(plasma.name);
    LandauOperator op = plasma.op(Backend::CudaSim);
    op.pack(op.maxwellian_state());
    la::CsrMatrix m_kernel = op.new_matrix();
    op.add_mass_kernel(m_kernel, 1.0);
    EXPECT_LT(block_deviation(op, m_kernel, op.mass()), 1e-12);
  }
}

TEST(Kernels, CooAssemblyMatchesTraditionalPath) {
  // §III-F: the COO interface must produce exactly the same matrix as the
  // MatSetValues-style path, without the CPU first-assembly step and without
  // atomics (disjoint slots per element).
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts());
  la::Vec f = op.project([](int s, double r, double z) {
    return two_bump(r, z) * (s == 0 ? 1.0 : 0.7);
  });
  op.pack(f);

  la::CsrMatrix direct = op.new_matrix();
  op.add_collision(direct);

  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  CooJacobianAssembler coo(op.space(), op.n_species());
  coo.assemble(Backend::CudaSim, pool, ctx);
  const auto& m = coo.matrix();

  ASSERT_EQ(m.nnz(), direct.nnz());
  double scale = 0.0;
  for (std::size_t k = 0; k < direct.nnz(); ++k)
    scale = std::max(scale, std::abs(direct.values()[k]));
  for (std::size_t k = 0; k < direct.nnz(); ++k)
    EXPECT_NEAR(m.values()[k], direct.values()[k], 1e-12 * scale);

  // Reassembly about a different state matches a fresh direct assembly.
  la::Vec g = op.maxwellian_state();
  op.pack(g);
  JacobianContext ctx2;
  ctx2.init(op.space(), op.species(), op.ip_data());
  coo.assemble(Backend::KokkosSim, pool, ctx2);
  la::CsrMatrix direct2 = op.new_matrix();
  op.add_collision(direct2);
  for (std::size_t k = 0; k < direct2.nnz(); ++k)
    EXPECT_NEAR(coo.matrix().values()[k], direct2.values()[k], 1e-12 * scale);
}

TEST(Kernels, AdvectionShiftsMomentumNotDensity) {
  SpeciesSet electron_only(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOperator op(electron_only, small_opts());
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix a = op.new_matrix();
  op.add_advection(a, 0.3);
  la::Vec af(op.n_total());
  a.mult(f, af);
  // Density moment of A f ~ 0 (boundary flux only); momentum moment nonzero.
  double density_rate = 0.0;
  for (std::size_t i = 0; i < af.size(); ++i) density_rate += af[i];
  la::Vec z_fn = op.project([](int, double, double z) { return z; });
  EXPECT_GT(std::abs(z_fn.dot(af)), 1e-6);
  EXPECT_LT(std::abs(density_rate), 1e-6 * std::abs(z_fn.dot(af)));
}

TEST(Kernels, AdvectionNeedsNoPackedState) {
  // Advection reads no integration-point data, so a fresh operator assembles
  // the same matrix as one that has packed a state.
  for (const Plasma& plasma : {electron_deuterium(), tungsten_three_grids()}) {
    SCOPED_TRACE(plasma.name);
    LandauOperator op = plasma.op();
    la::CsrMatrix fresh = op.new_matrix();
    op.add_advection(fresh, 0.3);
    op.pack(op.maxwellian_state());
    la::CsrMatrix packed = op.new_matrix();
    op.add_advection(packed, 0.3);
    ASSERT_EQ(fresh.nnz(), packed.nnz());
    for (std::size_t k = 0; k < fresh.nnz(); ++k)
      EXPECT_EQ(fresh.values()[k], packed.values()[k]) << k;
  }
}

TEST(Kernels, AdvectionBlocksScaleWithChargeOverMass) {
  // Species on one grid share one species-free A_e: A_s = (q_s/m_s) E_z A_e,
  // so A_s = (q_s m_r)/(m_s q_r) A_r for every species r on the same grid.
  for (const Plasma& plasma : {electron_deuterium(), tungsten_three_grids()}) {
    SCOPED_TRACE(plasma.name);
    LandauOperator op = plasma.op();
    la::CsrMatrix a = op.new_matrix();
    op.add_advection(a, 0.3);
    const auto rowptr = a.row_offsets();
    const auto colind = a.col_indices();
    int pairs = 0;
    for (int g = 0; g < op.n_grids(); ++g) {
      const auto& on_grid = op.grid(g).species;
      const int r = on_grid.front();
      const std::size_t off_r = block_offset(op, r);
      for (int s : on_grid) {
        if (s == r) continue;
        ++pairs;
        const Species& sp_s = op.species()[s];
        const Species& sp_r = op.species()[r];
        const double ratio = (sp_s.charge * sp_r.mass) / (sp_s.mass * sp_r.charge);
        const std::size_t off_s = block_offset(op, s);
        double diff = 0.0, scale = 0.0;
        for (std::size_t i = 0; i < op.n_dofs(s); ++i)
          for (std::int32_t k = rowptr[off_s + i]; k < rowptr[off_s + i + 1]; ++k) {
            const std::size_t j = static_cast<std::size_t>(colind[k]) - off_s;
            diff = std::max(diff, std::abs(a.values()[k] - ratio * a.get(off_r + i, off_r + j)));
            scale = std::max(scale, std::abs(a.values()[k]));
          }
        ASSERT_GT(scale, 0.0);
        EXPECT_LE(diff, 1e-14 * scale) << "species " << s << " against " << r;
      }
    }
    EXPECT_EQ(pairs, op.n_species() - op.n_grids()); // e/D: 1, e | D | 8 W: 7
  }
}
