// Back-end consistency and basic physics of the Landau Jacobian kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/kernel_math.h"
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

/// The per-entry path the scatter replaced (MatSetValues): each
/// closure-expanded entry of an element matrix is found by its (row, column),
/// distributing constrained contributions to master dofs. The scatter's
/// oracle.
void add_element_matrix(const fem::FESpace& fes, std::size_t cell, const la::DenseMatrix& ke,
                        la::CsrMatrix& a) {
  const fem::DofMap& dm = fes.dofmap();
  const auto nodes = dm.cell_nodes(cell);
  for (std::size_t bi = 0; bi < nodes.size(); ++bi)
    for (std::size_t bj = 0; bj < nodes.size(); ++bj) {
      const double v = ke(bi, bj);
      if (v == 0.0) continue;
      for (const auto& [di, wi] : dm.closure(nodes[bi]))
        for (const auto& [dj, wj] : dm.closure(nodes[bj]))
          a.add(static_cast<std::size_t>(di), static_cast<std::size_t>(dj), wi * wj * v);
    }
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

/// The collision matrix from assemble_landau_jacobian on each of op's grid
/// contexts without its pair-tensor table: the tensor recomputed per pair.
la::CsrMatrix recomputed(const LandauOperator& op, Backend backend) {
  la::CsrMatrix j = op.new_matrix();
  exec::ThreadPool pool(1);
  for (int g = 0; g < op.n_grids(); ++g) {
    JacobianContext ctx = op.make_context(g);
    ctx.tensor = {};
    assemble_landau_jacobian(backend, pool, ctx, j);
  }
  return j;
}

/// Every stored value of a equals b's.
void expect_same_values(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t k = 0; k < a.nnz(); ++k) EXPECT_EQ(a.values()[k], b.values()[k]) << "value " << k;
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
  // Algorithm 1 as the paper runs it, the tensor recomputed at every call:
  // a context without the operator's pair-tensor table.
  exec::KernelCounters jac_counters, mass_counters, table_counters;
  exec::ThreadPool pool(2);
  assemble_landau_jacobian(Backend::CudaSim, pool, op.make_context(0), j, &jac_counters);
  op.add_mass_kernel(j, 1.0, &mass_counters);
  // The paper's Table IV contrast: Jacobian AI >> mass AI.
  EXPECT_GT(jac_counters.arithmetic_intensity(), 4.0);
  EXPECT_LT(mass_counters.arithmetic_intensity(), 2.5);
  EXPECT_GT(jac_counters.arithmetic_intensity(), 4.0 * mass_counters.arithmetic_intensity());
  // Read from the table, a pair is 14 flops against 40 streamed bytes: the
  // per-iteration kernel sits on the memory side, with the mass kernel.
  op.add_collision(j, &table_counters);
  ASSERT_FALSE(op.make_context(0).tensor.empty());
  EXPECT_LT(table_counters.arithmetic_intensity(), 1.0);
}

TEST(Kernels, PairTableMatchesRecomputeBitwise) {
  // The first add_collision builds each grid's pair-tensor table and every
  // call after it reads the table. At one worker each value equals the
  // recompute path's on a context without the table, on the e/D mesh (with
  // hanging nodes) and on the three-grid tungsten operator, for two states.
  for (const Plasma& plasma : {electron_deuterium(), tungsten_three_grids()}) {
    for (Backend be : {Backend::CudaSim, Backend::KokkosSim}) {
      SCOPED_TRACE(testing::Message() << plasma.name << ", " << backend_name(be));
      LandauOptions o = small_opts(be);
      o.n_workers = 1;
      LandauOperator op(plasma.species, o, plasma.cluster_ratio);
      EXPECT_TRUE(op.make_context(0).tensor.empty()) << "the constructor builds no table";
      for (int call = 0; call < 2; ++call) {
        std::vector<double> drifts(static_cast<std::size_t>(op.n_species()), 0.0);
        drifts[0] = 0.3 * call;
        op.pack(op.maxwellian_state(drifts));
        la::CsrMatrix j = op.new_matrix();
        op.add_collision(j);
        for (int g = 0; g < op.n_grids(); ++g)
          EXPECT_EQ(op.make_context(g).tensor.size(),
                    op.grid(g).fes->n_ips() * op.ip_data().n_padded() / kIpChunk);
        expect_same_values(j, recomputed(op, be));
      }
    }
  }
  // The serial reference never reads a table, so its operator builds none.
  LandauOperator cpu = electron_deuterium().op(Backend::Cpu);
  cpu.pack(cpu.maxwellian_state());
  la::CsrMatrix j = cpu.new_matrix();
  cpu.add_collision(j);
  EXPECT_TRUE(cpu.make_context(0).tensor.empty());
}

TEST(Kernels, PairTablesStayWithTheirOperator) {
  // Two operators on differently refined meshes assemble in turn, each
  // through its own tables: each matches its own recompute path. The finer
  // one builds first, so a table leaking into the coarser operator would
  // read as wrong values rather than past its end.
  const Plasma plasma = electron_deuterium();
  LandauOptions coarse = small_opts(Backend::CudaSim);
  coarse.n_workers = 1;
  LandauOptions fine = coarse;
  fine.cells_per_thermal = 1.0;
  LandauOperator a(plasma.species, coarse), b(plasma.species, fine);
  ASSERT_NE(a.n_ips_total(), b.n_ips_total());
  for (int call = 0; call < 2; ++call)
    for (LandauOperator* op : {&b, &a}) {
      op->pack(op->maxwellian_state());
      la::CsrMatrix j = op->new_matrix();
      op->add_collision(j);
      ASSERT_FALSE(op->make_context(0).tensor.empty());
      expect_same_values(j, recomputed(*op, Backend::CudaSim));
    }
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
  // §III-F: the kernels' one scatter goes through each grid's COO coordinate
  // list, resolved to value indices once (fem::ElementScatter). It must add
  // exactly what the per-entry (row, column) lookup of the MatSetValues path
  // adds (add_element_matrix above), hanging-node closures included, and
  // re-assembly about a second state must match a fresh assembly.
  LandauOperator op = electron_deuterium().op();
  const fem::FESpace& fes = op.space();
  const fem::DofMap& dm = fes.dofmap();
  int hanging = 0;
  for (std::size_t n = 0; n < dm.n_nodes(); ++n)
    hanging += dm.is_constrained(static_cast<std::int32_t>(n)) ? 1 : 0;
  ASSERT_GT(hanging, 0) << "the test mesh must have hanging nodes";

  JacobianContext ctx;
  ctx.init(fes, op.species(), op.ip_data());
  const auto coeff = ctx.coefficients(detail::landau_coeffs);
  const int nb = fes.tabulation().n_basis();
  const auto nbs = static_cast<std::size_t>(nb);

  // Two element terms per cell from the state's nodal values; the second is
  // antisymmetric and the first vanishes where (a + b) % 3 == 0, so diagonal
  // entries with a % 3 == 0 are zero and take the sparsity skip.
  auto element = [&](const std::vector<double>& u, std::size_t c, detail::ElementMatrices& x) {
    const auto nodes = dm.cell_nodes(c);
    x.resize(2, nb);
    for (int a = 0; a < nb; ++a)
      for (int b = 0; b < nb; ++b) {
        const double ua = u[static_cast<std::size_t>(nodes[static_cast<std::size_t>(a)])];
        const double ub = u[static_cast<std::size_t>(nodes[static_cast<std::size_t>(b)])];
        x.at(0, a, b) = (a + b) % 3 == 0 ? 0.0 : ua * ub;
        x.at(1, a, b) = ua - ub;
      }
  };

  la::CsrMatrix by_map = op.new_matrix();
  EXPECT_NO_THROW(
      fes.scatter().check_layout(by_map, ctx.matrix_rows, ctx.matrix_nnz, ctx.block_offsets));
  const auto& offsets = ctx.block_offsets;
  for (const la::Vec& state :
       {op.project([](int s, double r, double z) { return two_bump(r, z) * (s == 0 ? 1.0 : 0.7); }),
        op.maxwellian_state()}) {
    std::vector<double> u(dm.n_nodes());
    dm.expand(op.block(state, 0), u);
    by_map.zero_entries();
    std::vector<la::CsrMatrix> by_entry(static_cast<std::size_t>(op.n_species()),
                                        fes.block_pattern());
    detail::ElementMatrices x;
    la::DenseMatrix ke(nbs, nbs);
    for (std::size_t c = 0; c < fes.n_cells(); ++c) {
      element(u, c, x);
      fes.scatter().add(c, x.x, coeff, offsets, by_map.values(), false);
      for (int s = 0; s < op.n_species(); ++s) {
        const double* cs = coeff.data() + 2 * static_cast<std::size_t>(s);
        for (int a = 0; a < nb; ++a)
          for (int b = 0; b < nb; ++b)
            ke(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) =
                cs[0] * x.at(0, a, b) + cs[1] * x.at(1, a, b);
        add_element_matrix(fes, c, ke, by_entry[static_cast<std::size_t>(s)]);
      }
    }
    for (int s = 0; s < op.n_species(); ++s) {
      const auto want = by_entry[static_cast<std::size_t>(s)].values();
      const auto got = by_map.values().subspan(offsets[static_cast<std::size_t>(s)], want.size());
      for (std::size_t k = 0; k < want.size(); ++k)
        EXPECT_EQ(got[k], want[k]) << "species " << s << " value " << k;
    }
  }
}

TEST(Kernels, AssemblyRejectsForeignMatrix) {
  // A scatter by value index cannot tell, entry by entry, that a matrix has
  // another pattern, so every entry point checks the layout first.
  const Plasma plasma = electron_deuterium();
  LandauOperator op = plasma.op(Backend::CudaSim);
  op.pack(op.maxwellian_state());
  LandauOptions finer = small_opts(Backend::CudaSim);
  finer.cells_per_thermal = 1.2;
  const LandauOperator other(plasma.species, finer, plasma.cluster_ratio);
  la::CsrMatrix foreign = other.new_matrix();
  ASSERT_NE(foreign.nnz(), op.new_matrix().nnz());
  EXPECT_THROW(op.add_collision(foreign), Error);
  EXPECT_THROW(op.add_advection(foreign, 0.3), Error);
  EXPECT_THROW(op.add_mass_kernel(foreign, 1.0), Error);
  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  EXPECT_THROW(assemble_landau_jacobian(Backend::CudaSim, pool, ctx, foreign), Error);

  // Same rows and nnz, other row offsets: the last entry of the first row
  // moved to the last row, outside the first species' block.
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
  EXPECT_THROW(op.add_mass_kernel(shifted, 1.0), Error);
  EXPECT_THROW(assemble_landau_jacobian(Backend::CudaSim, pool, ctx, shifted), Error);

  la::CsrMatrix own = op.new_matrix();
  EXPECT_NO_THROW(op.add_collision(own));
  EXPECT_NO_THROW(assemble_landau_jacobian(Backend::CudaSim, pool, ctx, own));
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
