// The batched, zero-reallocation linear-solve path: cross-solver equivalence
// of Newton updates on a real multi-species Landau Jacobian, symbolic-phase
// reuse across refactorization (the §III-G amortization), the shared
// validated block discovery, and the integrator-level correctness fixes
// (honest convergence/stagnation reporting), plus the lagged Newton matrix
// against a quasi-Newton step that factors at every iteration.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/operator.h"
#include "la/band.h"
#include "la/band_device.h"
#include "la/dense.h"
#include "la/gmres.h"
#include "quench/source.h"
#include "quench/spitzer.h"
#include "solver/implicit.h"
#include "util/logging.h"
#include "util/special_math.h"

using namespace landau;
using namespace landau::la;

namespace {

LandauOptions small_opts() {
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

/// Block-diagonal banded matrix: `blocks` independent species-style systems.
CsrMatrix block_matrix(std::size_t blocks, std::size_t block_n, std::size_t bw, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = blocks * block_n;
  SparsityPattern p(n, n);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        p.add(b * block_n + i, b * block_n + j);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        a.add(b * block_n + i, b * block_n + j, i == j ? 10.0 : dist(rng));
  return a;
}

double rel_err(const Vec& x, const Vec& ref) {
  Vec d = x;
  d.axpy(-1.0, ref);
  const double nr = ref.norm2();
  return nr > 0 ? d.norm2() / nr : d.norm2();
}

} // namespace

TEST(SolverEquivalence, NewtonUpdateMatchesAcrossAllFourSolvers) {
  // A real multi-species quasi-Newton system M - dt (C - A) from the Landau
  // operator, solved by the integrator's band LU and by the three solvers
  // kept beside it: the device band LU, dense LU and GMRES.
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts());
  op.pack(op.maxwellian_state());
  CsrMatrix c = op.new_matrix();
  op.add_collision(c);
  op.add_advection(c, -0.05);
  CsrMatrix sys = op.new_matrix();
  sys.axpy(1.0, op.mass());
  sys.axpy(-0.1, c);

  const std::size_t n = op.n_total();
  Vec rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = std::sin(0.01 * static_cast<double>(i) + 1.0);

  Vec x_dense(n);
  DenseLU dense(sys.to_dense());
  dense.solve(rhs, x_dense);

  // Host band solver, serial and batched over a pool.
  BlockBandSolver serial;
  serial.analyze(sys);
  serial.factor(sys);
  Vec x_serial(n);
  serial.solve(rhs, x_serial);
  EXPECT_LT(rel_err(x_serial, x_dense), 1e-10);

  exec::ThreadPool pool(4);
  BlockBandSolver batched(&pool);
  batched.analyze(sys);
  batched.factor(sys);
  Vec x_batched(n);
  batched.solve(rhs, x_batched);
  EXPECT_EQ(rel_err(x_batched, x_serial), 0.0); // same arithmetic, any schedule

  DeviceBlockBandSolver dev(pool);
  dev.analyze(sys);
  dev.factor(sys);
  Vec x_dev(n);
  dev.solve(rhs, x_dev);
  EXPECT_LT(rel_err(x_dev, x_dense), 1e-10);

  Vec x_gmres(n);
  GmresOptions gopts;
  gopts.rtol = 1e-14;
  gopts.max_iterations = 5000;
  const auto res = gmres_solve(sys, rhs, x_gmres, gopts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(rel_err(x_gmres, x_dense), 1e-10);
}

TEST(SolverReuse, RefactorAfterReassemblySkipsAnalysis) {
  // The quasi-Newton pattern: zero_entries() + reassembly with new values,
  // then factor() again — the cached symbolic phase must be reused and the
  // new factorization must be correct.
  auto a = block_matrix(4, 30, 3, 7);
  const auto a0 = a; // keep the first values

  exec::ThreadPool pool(2);
  BlockBandSolver host(&pool);
  DeviceBlockBandSolver dev(pool);
  host.analyze(a);
  dev.analyze(a);
  host.factor(a);
  dev.factor(a);

  // Reassemble with different values on the same pattern.
  std::vector<double> new_vals(a.values().begin(), a.values().end());
  for (auto& v : new_vals) v *= 1.5;
  a.zero_entries();
  for (std::size_t i = 0; i < new_vals.size(); ++i) a.values()[i] = new_vals[i];

  host.factor(a);
  dev.factor(a);
  EXPECT_EQ(host.analysis_count(), 1);
  EXPECT_EQ(dev.analysis_count(), 1);

  Vec xref(a.rows()), b(a.rows()), xh(a.rows()), xd(a.rows());
  for (std::size_t i = 0; i < xref.size(); ++i) xref[i] = std::cos(0.2 * static_cast<double>(i));
  a.mult(xref, b);
  host.solve(b, xh);
  dev.solve(b, xd);
  EXPECT_LT(rel_err(xh, xref), 1e-11);
  EXPECT_LT(rel_err(xd, xref), 1e-11);

  // invalidate() drops the cache; re-analysis is counted.
  host.invalidate();
  EXPECT_FALSE(host.analyzed());
  host.analyze(a);
  EXPECT_EQ(host.analysis_count(), 2);
}

TEST(SolverReuse, CachedFactorMatchesFromScratch) {
  // The scatter-map path must reproduce the legacy from_csr + factor result
  // exactly (same band shape, same arithmetic).
  auto a = block_matrix(3, 25, 2, 19);
  BlockBandSolver solver;
  solver.analyze(a);
  for (auto& v : a.values()) v += 0.25; // values the analysis never saw
  solver.factor(a);

  Vec xref(a.rows()), b(a.rows()), x(a.rows());
  for (std::size_t i = 0; i < xref.size(); ++i) xref[i] = 1.0 + static_cast<double>(i % 7);
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST(DenseLUPivoting, BadlyRowScaledSystemStaysAccurate) {
  // Rows spanning ten orders of magnitude (AMR cell volumes do this): pivot
  // selection by raw magnitude loses the factorization; scaled partial
  // pivoting must keep the solve backward stable.
  const std::size_t n = 40;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::pow(10.0, -10.0 * static_cast<double>(i) / (n - 1));
    for (std::size_t j = 0; j < n; ++j) a(i, j) = scale * (i == j ? 8.0 : dist(rng));
  }
  Vec xref(n), b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) xref[i] = std::sin(0.5 * static_cast<double>(i));
  a.mult(xref, b);
  DenseLU lu(a);
  lu.solve(b, x);
  EXPECT_LT(rel_err(x, xref), 1e-12);
}

TEST(BlockDiscovery, RejectsNonContiguousOrdering) {
  // An ordering that interleaves two components must be caught, not
  // silently built into cross-coupled blocks.
  auto a = block_matrix(2, 4, 1, 3);
  std::vector<std::int32_t> interleaved = {0, 4, 1, 5, 2, 6, 3, 7};
  EXPECT_THROW(discover_blocks(a, interleaved), landau::Error);

  std::vector<std::int32_t> contiguous = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto blocks = discover_blocks(a, contiguous);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].begin, 0u);
  EXPECT_EQ(blocks[0].end, 4u);
  EXPECT_EQ(blocks[1].begin, 4u);
  EXPECT_EQ(blocks[1].end, 8u);
}

TEST(ImplicitIntegrator, SymbolicAnalysisAmortizedAcrossSteps) {
  LandauOperator op(SpeciesSet({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0,
                                 .temperature = 1.0}}),
                    small_opts());
  NewtonOptions nopts;
  nopts.rtol = 1e-6;
  ImplicitIntegrator integrator(op, nopts);
  la::Vec f = op.maxwellian_state();
  // No LU crosses a step: every step factors its own Newton matrix, and so
  // does a step at another dt after them.
  for (int s = 0; s < 3; ++s) EXPECT_GE(integrator.step(f, 0.5).factorizations, 1);
  EXPECT_GE(integrator.step(f, 0.2).factorizations, 1);
  EXPECT_GE(integrator.total_newton_iterations(), 4L);
  EXPECT_EQ(integrator.band_analysis_count(), 1); // one symbolic phase, many factors
}

TEST(ImplicitIntegrator, StagnationIsReportedHonestly) {
  // Unreachable tolerance: the update hits the roundoff floor first. The
  // step must report stagnated = true and converged = false — not the old
  // behavior of claiming convergence.
  LandauOperator op(SpeciesSet({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0,
                                 .temperature = 1.0}}),
                    small_opts());
  NewtonOptions nopts;
  nopts.rtol = 0.0;
  nopts.atol = 0.0;
  nopts.max_iterations = 60;
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Error); // the stagnation warn is expected
  ImplicitIntegrator integrator(op, nopts);
  la::Vec f = op.maxwellian_state();
  const auto stats = integrator.step(f, 0.5);
  Logger::instance().set_level(saved);
  EXPECT_TRUE(stats.stagnated);
  EXPECT_FALSE(stats.converged);
  EXPECT_GT(stats.residual_norm, 0.0);
}

// ---------------------------------------------------------------------------
// Lagged Newton matrix against the unlagged quasi-Newton reference
// ---------------------------------------------------------------------------

namespace {

struct UnlaggedStep {
  int newton_iterations = 0;
  bool converged = false;
};

/// Backward-Euler quasi-Newton step that assembles and factors the Newton
/// matrix M - dt (C(f_k) - A) at every iteration, built from the public
/// operator API and la::BlockBandSolver: the oracle for the integrator's
/// lagged factorization.
UnlaggedStep unlagged_step(CollisionOperatorBase& op, Vec& f, double dt, double e_z,
                           const Vec* source, const NewtonOptions& nopts) {
  const CsrMatrix& mass = op.mass();
  CsrMatrix cmat = op.new_matrix(), jmat = op.new_matrix();
  BlockBandSolver band(&op.worker_pool());
  const Vec fn = f;
  Vec msrc(f.size()), r(f.size()), tmp(f.size()), delta(f.size());
  if (source) mass.mult(*source, msrc);
  UnlaggedStep out;
  double r0 = -1.0;
  for (int it = 0; it < nopts.max_iterations; ++it) {
    op.pack(f);
    cmat.zero_entries();
    if (e_z != 0.0) op.add_advection(cmat, -e_z);
    op.add_collision(cmat);
    tmp = f;
    tmp.axpy(-1.0, fn);
    mass.mult(tmp, r);
    cmat.mult(f, tmp);
    r.axpy(-dt, tmp);
    if (source) r.axpy(-dt, msrc);
    const double g = r.norm2();
    if (r0 < 0) r0 = g > 0 ? g : 1.0;
    if (g <= std::max(nopts.atol, nopts.rtol * r0)) {
      out.converged = true;
      break;
    }
    jmat.zero_entries();
    jmat.axpy(1.0, mass);
    jmat.axpy(-dt, cmat);
    if (!band.analyzed()) band.analyze(jmat);
    band.factor(jmat);
    band.solve(r, delta);
    f.axpy(-1.0, delta);
    ++out.newton_iterations;
  }
  return out;
}

/// One integrator step and one unlagged reference step from f0 at rtol 1e-8:
/// the states agree to 1e-7 relative, and lagging costs at most one extra
/// iteration. Returns the integrator's
/// stats.
StepStats expect_matches_unlagged(CollisionOperatorBase& op, const Vec& f0, double dt,
                                  double e_z, const Vec* source = nullptr) {
  NewtonOptions nopts;
  nopts.rtol = 1e-8;
  Vec f_ref = f0, f = f0;
  const UnlaggedStep ref = unlagged_step(op, f_ref, dt, e_z, source, nopts);
  ImplicitIntegrator integrator(op, nopts);
  const StepStats st = integrator.step(f, dt, e_z, source);
  EXPECT_TRUE(ref.converged);
  EXPECT_TRUE(st.converged);
  EXPECT_LE(st.newton_iterations, ref.newton_iterations + 1);
  EXPECT_GE(st.factorizations, 1);
  EXPECT_LE(st.factorizations, st.newton_iterations);
  EXPECT_LT(rel_err(f, f_ref), 1e-7);
  return st;
}

/// Electron bi-Maxwellian (theta_perp 0.5, theta_par 1.2): far from
/// equilibrium, so the frozen-coefficient iteration contracts slowly.
Vec electron_bi_maxwellian(LandauOperator& op) {
  return op.project([](int, double r, double z) {
    const double th_perp = 0.5, th_par = 1.2;
    return 1.0 / (std::pow(kPi, 1.5) * th_perp * std::sqrt(th_par)) *
           std::exp(-r * r / th_perp - z * z / th_par);
  });
}

LandauOperator electron_op() {
  return LandauOperator(SpeciesSet({{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0,
                                     .temperature = 1.0}}),
                        small_opts());
}

} // namespace

TEST(LaggedFactor, FieldAndColdSourceFactorOncePerStep) {
  // The e/D quench step: drifting electrons, E = eta J and the cold pulse at
  // its peak rate. The iteration contracts fast, so one factor serves it.
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOperator op(species, small_opts());
  const double drifts[2] = {0.12, 0.0};
  const Vec f0 = op.maxwellian_state(drifts);
  const double e_z =
      quench::spitzer_eta(species.z_eff(), op.electron_temperature(f0)) * op.current_z(f0);
  quench::SourceSpec spec;
  spec.duration = 10.0;
  spec.cold_temperature = 0.05;
  Vec source(op.n_total());
  ASSERT_TRUE(quench::ColdPulseSource(op, spec).evaluate(5.0, &source));
  const StepStats st = expect_matches_unlagged(op, f0, 0.1, e_z, &source);
  EXPECT_EQ(st.factorizations, 1);
  EXPECT_GT(st.max_contraction, 0.0);
  EXPECT_LT(st.max_contraction, 0.5);
}

TEST(LaggedFactor, SlowContractionRefactors) {
  LandauOperator op = electron_op();
  const StepStats st = expect_matches_unlagged(op, electron_bi_maxwellian(op), 0.5, 0.0);
  EXPECT_GT(st.factorizations, 1);
  EXPECT_GT(st.max_contraction, 0.5);
}

TEST(LaggedFactor, StrongFieldLargeStepRefactors) {
  LandauOperator op = electron_op();
  const StepStats st = expect_matches_unlagged(op, electron_bi_maxwellian(op), 5.0, 0.5);
  EXPECT_GT(st.factorizations, 1);
  EXPECT_LT(st.factorizations, st.newton_iterations);
}

TEST(LaggedFactor, ThreeGridOperator) {
  // e | i | heavy ion: thermal speeds 1, 1/6 and 1/36 cluster onto three
  // grids at ratio 2, and the inner integral spans all of them.
  const SpeciesSet species(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0},
       {.name = "i", .mass = 36.0, .charge = 1.0, .density = 0.5, .temperature = 1.0},
       {.name = "z", .mass = 1296.0, .charge = 2.0, .density = 0.25, .temperature = 1.0}});
  LandauOperator op(species, small_opts(), 2.0);
  ASSERT_EQ(op.n_grids(), 3);
  const double drifts[3] = {0.2, 0.0, 0.0};
  expect_matches_unlagged(op, op.maxwellian_state(drifts), 0.5, 0.1);
}
