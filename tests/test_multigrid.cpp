// Multi-grid operator tests (§III-H): clustering, cross-grid collision
// coupling, exact conservation across grids, and the cost trade-off of
// Table I realized by the actual operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/kernel_math.h"
#include "core/operator.h"
#include "exec/counters.h"
#include "solver/implicit.h"
#include "util/profiler.h"
#include "util/special_math.h"

using namespace landau;

namespace {

LandauOptions mg_opts() {
  LandauOptions o;
  o.order = 3;
  o.radius = 4.0; // in reference-thermal units; each grid rescales
  o.base_levels = 1;
  o.cells_per_thermal = 0.8;
  o.max_levels = 3;
  o.backend = Backend::CudaSim;
  o.n_workers = 2;
  return o;
}

/// Electrons plus a moderately heavy ion: two thermal-speed clusters.
SpeciesSet two_cluster_species() {
  return SpeciesSet(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
       {.name = "i", .mass = 36.0, .charge = 1.0, .density = 1.0, .temperature = 1.0}});
}

/// The operator pattern built entry by entry: each species' block holds the
/// all-to-all coupling of every cell's free dofs on its grid.
la::CsrMatrix cell_clique_matrix(const LandauOperator& op) {
  la::SparsityPattern pattern(op.n_total(), op.n_total());
  std::size_t off = 0;
  for (int s = 0; s < op.n_species(); ++s) {
    const fem::FESpace& fes = *op.grid(op.grid_of_species(s)).fes;
    for (std::size_t c = 0; c < fes.n_cells(); ++c) {
      const auto dofs = fes.dofmap().cell_free_dofs(c);
      for (auto di : dofs)
        for (auto dj : dofs)
          pattern.add(off + static_cast<std::size_t>(di), off + static_cast<std::size_t>(dj));
    }
    off += op.n_dofs(s);
  }
  pattern.compress();
  return la::CsrMatrix(pattern);
}

} // namespace

TEST(MultiGrid, ClustersByThermalSpeed) {
  LandauOperator op(two_cluster_species(), mg_opts(), 2.0);
  EXPECT_EQ(op.n_grids(), 2);
  EXPECT_NE(op.grid_of_species(0), op.grid_of_species(1));
  // The ion grid is scaled down by the thermal-speed ratio (6x here).
  const double re = op.grid(op.grid_of_species(0)).radius;
  const double ri = op.grid(op.grid_of_species(1)).radius;
  EXPECT_NEAR(re / ri, 6.0, 1e-10);
}

TEST(MultiGrid, SimilarSpeciesShareAGrid) {
  SpeciesSet sp({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
                 {.name = "e2", .mass = 1.5, .charge = -1.0, .density = 0.5, .temperature = 1.0},
                 {.name = "i", .mass = 100.0, .charge = 2.0, .density = 0.75, .temperature = 1.0}});
  LandauOperator op(sp, mg_opts(), 2.0);
  EXPECT_EQ(op.n_grids(), 2);
  EXPECT_EQ(op.grid_of_species(0), op.grid_of_species(1)); // within 2x
  EXPECT_NE(op.grid_of_species(0), op.grid_of_species(2));
}

TEST(MultiGrid, OneClusterMatchesSingleGridBitwise) {
  // Species within one 2x thermal-speed cluster: the clustered operator is
  // the default one-grid operator bit for bit — mesh, mass and collision
  // matrix — because the fastest grid keeps opts.radius exactly.
  SpeciesSet sp({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
                 {.name = "e2", .mass = 1.5, .charge = -1.0, .density = 0.5, .temperature = 1.0}});
  auto opts = mg_opts();
  opts.n_workers = 0;
  LandauOperator one(sp, opts);
  LandauOperator clustered(sp, opts, 2.0);
  ASSERT_EQ(clustered.n_grids(), 1);
  EXPECT_EQ(clustered.grid(0).radius, 4.0);

  const auto& cells = one.forest().leaves();
  const auto& clustered_cells = clustered.forest().leaves();
  ASSERT_EQ(cells.size(), clustered_cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const mesh::Box& a = cells[c].box;
    const mesh::Box& b = clustered_cells[c].box;
    EXPECT_TRUE(a.x0 == b.x0 && a.y0 == b.y0 && a.x1 == b.x1 && a.y1 == b.y1) << "cell " << c;
  }

  auto expect_bitwise_equal = [](const la::CsrMatrix& a, const la::CsrMatrix& b) {
    ASSERT_EQ(a.nnz(), b.nnz());
    EXPECT_TRUE(std::equal(a.row_offsets().begin(), a.row_offsets().end(),
                           b.row_offsets().begin()));
    EXPECT_TRUE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                           b.col_indices().begin()));
    for (std::size_t k = 0; k < a.nnz(); ++k) EXPECT_EQ(a.values()[k], b.values()[k]) << k;
  };
  expect_bitwise_equal(one.mass(), clustered.mass());

  const double drifts[2] = {0.3, 0.0};
  const la::Vec f = one.maxwellian_state(drifts);
  one.pack(f);
  clustered.pack(f);
  la::CsrMatrix ja = one.new_matrix();
  la::CsrMatrix jb = clustered.new_matrix();
  one.add_collision(ja);
  clustered.add_collision(jb);
  expect_bitwise_equal(ja, jb);
}

TEST(MultiGrid, NewMatrixReplicatesGridPattern) {
  // new_matrix() repeats each grid's block pattern at its species' offsets;
  // mass() copies each grid's host mass matrix into its species' blocks.
  for (const auto& [ratio, n_grids] :
       {std::pair{std::numeric_limits<double>::infinity(), 1}, std::pair{2.0, 3}}) {
    const LandauOperator op(SpeciesSet::tungsten_plasma(), mg_opts(), ratio);
    ASSERT_EQ(op.n_grids(), n_grids);
    const la::CsrMatrix m = op.new_matrix();
    const la::CsrMatrix want = cell_clique_matrix(op);
    EXPECT_EQ(m.rows(), want.rows());
    EXPECT_TRUE(std::ranges::equal(m.row_offsets(), want.row_offsets())) << n_grids << " grids";
    EXPECT_TRUE(std::ranges::equal(m.col_indices(), want.col_indices())) << n_grids << " grids";
    std::size_t off = 0;
    for (int s = 0; s < op.n_species(); ++s) {
      const fem::FESpace& fes = *op.grid(op.grid_of_species(s)).fes;
      la::CsrMatrix m1 = fes.block_pattern();
      fes.assemble_mass(m1);
      const auto block = op.mass().values().subspan(off, m1.nnz());
      for (std::size_t k = 0; k < m1.nnz(); ++k)
        EXPECT_EQ(block[k], m1.values()[k]) << "species " << s << " value " << k;
      off += m1.nnz();
    }
    EXPECT_EQ(off, op.mass().nnz());
  }
}

TEST(MultiGrid, MaxwellianMomentsPerGrid) {
  LandauOperator op(two_cluster_species(), mg_opts(), 2.0);
  la::Vec f = op.maxwellian_state();
  for (int s = 0; s < 2; ++s) {
    const auto m = op.moments(f, s);
    EXPECT_NEAR(m.density, 1.0, 2e-2) << "species " << s;
    // Each species is well resolved on its own scaled grid: (m/2)(3/2)theta.
    EXPECT_NEAR(m.energy, 0.75 * op.species()[s].mass * op.species()[s].theta(), 2e-2)
        << "species " << s;
  }
}

TEST(MultiGrid, MatrixIsBlockDiagonalPerSpecies) {
  LandauOperator op(two_cluster_species(), mg_opts(), 2.0);
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  op.add_collision(j);
  // Row/col of each entry must belong to the same species block.
  const std::size_t n0 = op.n_dofs(0);
  auto rowptr = j.row_offsets();
  auto colind = j.col_indices();
  for (std::size_t i = 0; i < j.rows(); ++i)
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const bool row_e = i < n0;
      const bool col_e = static_cast<std::size_t>(colind[k]) < n0;
      EXPECT_EQ(row_e, col_e);
    }
}

TEST(MultiGrid, CrossGridCollisionsCoupleSpecies) {
  // The e-i friction must act across grids: drifting electrons on grid A
  // must exchange momentum with ions on grid B.
  LandauOperator op(two_cluster_species(), mg_opts(), 2.0);
  NewtonOptions loose;
  loose.rtol = 1e-8;
  ImplicitIntegrator integrator(op, loose);
  la::Vec f(op.n_total());
  {
    la::Vec init = op.maxwellian_state();
    f = init;
    // Give the electrons a z-drift.
    const auto& fes = op.grid(op.grid_of_species(0)).fes;
    la::Vec drifting = fes->interpolate([&](double r, double z) {
      return op.species()[0].maxwellian(r, z, 0.4);
    });
    std::copy(drifting.begin(), drifting.end(), op.block(f, 0).begin());
  }
  const double pe0 = op.moments(f, 0).momentum_z;
  const double pi0 = op.moments(f, 1).momentum_z;
  integrator.step(f, 1.0);
  integrator.step(f, 1.0);
  const double pe1 = op.moments(f, 0).momentum_z;
  const double pi1 = op.moments(f, 1).momentum_z;
  EXPECT_LT(pe1, 0.95 * pe0);        // electrons lose momentum
  EXPECT_GT(pi1, pi0 + 1e-6);        // ions gain it
}

TEST(MultiGrid, ConservationAcrossGrids) {
  // Density per species, total z-momentum and total energy are conserved to
  // solver tolerance even though the species live on different grids — the
  // tensor identities pair (i in A, j in B) with (i in B, j in A).
  LandauOperator op(two_cluster_species(), mg_opts(), 2.0);
  NewtonOptions tight;
  tight.rtol = 1e-10;
  ImplicitIntegrator integrator(op, tight);
  la::Vec f(op.n_total());
  {
    f = op.maxwellian_state();
    const auto& fes = op.grid(op.grid_of_species(0)).fes;
    la::Vec drifting = fes->interpolate([&](double r, double z) {
      return op.species()[0].maxwellian(r, z, 0.5);
    });
    std::copy(drifting.begin(), drifting.end(), op.block(f, 0).begin());
  }
  const auto me0 = op.moments(f, 0);
  const auto mi0 = op.moments(f, 1);
  for (int s = 0; s < 3; ++s) integrator.step(f, 0.8);
  const auto me1 = op.moments(f, 0);
  const auto mi1 = op.moments(f, 1);

  EXPECT_NEAR(me1.density, me0.density, 1e-9);
  EXPECT_NEAR(mi1.density, mi0.density, 1e-9);
  EXPECT_NEAR(me1.momentum_z + mi1.momentum_z, me0.momentum_z + mi0.momentum_z,
              1e-8 * std::abs(me0.momentum_z));
  EXPECT_NEAR(me1.energy + mi1.energy, me0.energy + mi0.energy,
              1e-7 * (me0.energy + mi0.energy));
}

TEST(MultiGrid, FewerEquationsThanSharedGrid) {
  // The Table I trade-off realized: the multi-grid operator solves far fewer
  // equations than a single shared grid resolving both scales.
  auto species = two_cluster_species();
  auto opts = mg_opts();
  opts.max_levels = 6;
  LandauOperator mg(species, opts, 2.0);
  LandauOperator shared(species, opts);
  EXPECT_LT(mg.n_total(), shared.n_total());
  // And each species is still resolved: its grid's smallest cell fits vth.
  for (int s = 0; s < 2; ++s) {
    const auto& g = mg.grid(mg.grid_of_species(s));
    double hmin = 1e30;
    for (const auto& lf : g.forest.leaves()) hmin = std::min(hmin, lf.box.dx());
    EXPECT_LE(hmin, species[s].thermal_speed() / 0.5);
  }
}

TEST(MultiGrid, KernelCountsOnlyGridSpeciesElementWork) {
  // Each grid's kernel forms element matrices for its own species only: the
  // counted flops are the inner pairs over all grids' points plus, per grid
  // and cell, the species-free K_e and D_e contraction (nq nb^2 x 15) and
  // their scaling into each grid species' block (nb^2 x 3 per species). A
  // pair reads its tensor from the grid's table (built by this first call,
  // its work counted on the landau:tensor event), so it counts only the
  // accumulation.
  SpeciesSet sp({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
                 {.name = "e2", .mass = 1.5, .charge = -1.0, .density = 0.5, .temperature = 1.0},
                 {.name = "i", .mass = 100.0, .charge = 2.0, .density = 0.75, .temperature = 1.0}});
  LandauOperator op(sp, mg_opts(), 2.0);
  ASSERT_EQ(op.n_grids(), 2);
  ASSERT_EQ(op.options().backend, Backend::CudaSim);
  op.pack(op.maxwellian_state());
  la::CsrMatrix j = op.new_matrix();
  exec::KernelCounters counters;
  op.add_collision(j, &counters);

  const auto n = static_cast<std::int64_t>(op.n_ips_total());
  std::int64_t expected = 0;
  for (int g = 0; g < op.n_grids(); ++g) {
    const auto& fes = *op.grid(g).fes;
    const auto cells = static_cast<std::int64_t>(fes.n_cells());
    const std::int64_t nq = fes.tabulation().n_quad(), nb = fes.tabulation().n_basis();
    const auto n_grid_species = static_cast<std::int64_t>(op.grid(g).species.size());
    expected += cells * nq * n * detail::kInnerAccumulateFlops;
    expected += cells * (nq * nb * nb * detail::kElementContractFlops +
                         n_grid_species * nb * nb * detail::kElementScaleFlops);
  }
  EXPECT_EQ(counters.flops.load(), expected);
}

TEST(MultiGrid, StepAttributesKernelWorkToItsEvent) {
  // A plain step passes no counters, yet every Jacobian launch adds its
  // work to landau:jacobian-kernel: each add_collision (one landau:matrix
  // event) launches one kernel per grid, all reading the tables the first
  // call builds.
  LandauOperator op(two_cluster_species(), mg_opts(), 2.0);
  ASSERT_EQ(op.n_grids(), 2);
  ImplicitIntegrator integrator(op, NewtonOptions{});
  la::Vec f = op.maxwellian_state();
  auto& prof = Profiler::instance();
  prof.reset();
  integrator.step(f, 0.1);
  exec::KernelWork per_call;
  for (int g = 0; g < op.n_grids(); ++g) {
    const exec::KernelWork w = landau_kernel_work(op.options().backend, op.make_context(g));
    per_call.flops += w.flops;
    per_call.dram_bytes += w.dram_bytes;
  }
  ASSERT_GT(per_call.flops, 0);
  const std::int64_t calls = prof.count("landau:matrix");
  ASSERT_GT(calls, 0);
  const EventStats kernel = prof.stats("landau:jacobian-kernel");
  EXPECT_EQ(kernel.count, calls * op.n_grids());
  EXPECT_EQ(kernel.flops, calls * per_call.flops);
  EXPECT_EQ(kernel.dram_bytes, calls * per_call.dram_bytes);
}
