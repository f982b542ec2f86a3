#include "solver/implicit.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/profiler.h"
#include "util/robustness.h"

namespace landau {

namespace {

// Lagged Newton matrix: an iteration refactors only when the residual
// contracted by less than this factor since the previous iteration,
// |G_k| > rho |G_{k-1}|. Probed on the test mesh (electron bi-Maxwellian,
// alone and with a colder D of mass 25; dt 0.3 to 500; E 0 and 0.5): of
// the 14 steps that converge when factoring at every iteration, 12 take
// within one iteration of it at rho = 0.5, and the two E = 0.5, dt 50 steps
// take 19 instead of 12 and 23 instead of 21. Never refactoring fails on 4
// of the 14 (E = 0.5 from dt 5 up), so the rule is needed. rho = 0.9 factors
// far less on slowly contracting steps but took 43 iterations instead of 27
// on the bi-Maxwellian with E = 0.5 at dt 5.
constexpr double kRefactorContraction = 0.5;

} // namespace

ImplicitIntegrator::ImplicitIntegrator(CollisionOperatorBase& op, NewtonOptions nopts)
    : op_(op), nopts_(nopts), cmat_(op.new_matrix()), jmat_(cmat_), band_(&op.worker_pool()) {}

void ImplicitIntegrator::invalidate_if_structure_changed(const la::CsrMatrix& jmat) {
  // The band solver's symbolic phase (RCM, block discovery, scatter maps) is
  // amortized across Newton iterations and steps (§III-G); quasi-Newton
  // freezes the structure, so only an actual pattern change — AMR refine
  // swapping in a new matrix — may invalidate it.
  if (jmat.rows() == sym_rows_ && jmat.nnz() == sym_nnz_) return;
  if (sym_rows_ != 0)
    LANDAU_DEBUG("linear solver: matrix structure changed ("
                 << sym_rows_ << "x" << sym_nnz_ << " nnz -> " << jmat.rows() << "x"
                 << jmat.nnz() << " nnz), re-running symbolic analysis");
  band_.invalidate();
  sym_rows_ = jmat.rows();
  sym_nnz_ = jmat.nnz();
}

void ImplicitIntegrator::factor() {
  auto& fault = FaultInjector::instance();
  if (fault.armed() && fault.fire(FaultKind::Throw, "factor"))
    LANDAU_THROW("injected fault: linear solver factorization failure");
  if (robustness().paranoid)
    LANDAU_ASSERT(jmat_.all_finite(), "paranoid: non-finite entries in the Newton matrix");
  invalidate_if_structure_changed(jmat_);
  if (!band_.analyzed()) {
    band_.analyze(jmat_);
    LANDAU_DEBUG("band solver: " << band_.n_blocks() << " blocks, bandwidth "
                                 << band_.bandwidth());
  }
  ScopedEvent ev("landau:factor");
  band_.factor(jmat_);
}

void ImplicitIntegrator::solve(const la::Vec& rhs, la::Vec& x) {
  ScopedEvent ev("landau:solve");
  auto& fault = FaultInjector::instance();
  if (fault.armed() && fault.fire(FaultKind::Throw, "solve"))
    LANDAU_THROW("injected fault: triangular solve failure");
  band_.solve(rhs, x);
}

StepStats ImplicitIntegrator::step(la::Vec& f, double dt, double e_z, const la::Vec* source) {
  ScopedEvent ev("landau:step");
  auto& fault = FaultInjector::instance();
  fault.begin_attempt();
  const std::size_t n = op_.n_total();
  LANDAU_ASSERT(f.size() == n, "state size mismatch");
  if (cmat_.rows() != n) {
    // The operator was rebuilt under us (AMR refine): new matrices with the
    // new pattern; factor() notices and re-runs the symbolic phase.
    cmat_ = op_.new_matrix();
    jmat_ = cmat_;
  }
  const la::Vec fn = f;
  const auto& mass = op_.mass();
  const double theta = nopts_.theta;
  LANDAU_ASSERT(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");

  // M s (constant through the step).
  la::Vec msrc(n);
  if (source) {
    LANDAU_ASSERT(source->size() == n, "source size mismatch");
    mass.mult(*source, msrc);
  }

  la::Vec r(n), tmp(n), delta(n);

  // The field term -e_z A is constant through the step: assembled once, and
  // every C - A below starts from a copy of it (note sign).
  if (amat_.rows() != n) amat_ = cmat_;
  amat_.zero_entries();
  if (e_z != 0.0) op_.add_advection(amat_, -e_z);
  auto assemble_c_minus_a = [&] {
    std::ranges::copy(amat_.values(), cmat_.values().begin());
    op_.add_collision(cmat_);
  };

  // Explicit part of the theta scheme: (1 - theta) (C(f_n) - A) f_n,
  // evaluated once per step.
  la::Vec rhs_exp(n);
  if (theta < 1.0) {
    op_.pack(fn);
    assemble_c_minus_a();
    cmat_.mult(fn, rhs_exp);
  }

  StepStats stats;
  double r0 = -1.0, r_prev = 0.0;

  if (fault.armed()) {
    // Injected terminal outcomes, emulated cheaply at the step boundary: a
    // diverged Newton leaves a perturbed state and converged = false; a
    // stagnated one leaves the state untouched (the update stalled) with
    // stagnated = true. Both are consumed one-shot, so a controller retry of
    // the same physical step re-runs clean.
    if (fault.fire(FaultKind::NewtonDiverge, "newton")) {
      f.scale(1.5);
      stats.newton_iterations = nopts_.max_iterations;
      stats.residual_norm = 1e300;
      return stats;
    }
    if (fault.fire(FaultKind::Stagnate, "newton")) {
      stats.newton_iterations = 1;
      stats.stagnated = true;
      stats.residual_norm = std::max(nopts_.atol, nopts_.rtol) * 10.0;
      return stats;
    }
  }

  for (int it = 0; it < nopts_.max_iterations; ++it) {
    // Frozen-coefficient collision matrix about the current iterate.
    op_.pack(f);
    assemble_c_minus_a();

    // Residual G = M (f - f_n) - dt [theta (C - A) f + (1-theta) (C_n - A) f_n] - dt M s.
    tmp = f;
    tmp.axpy(-1.0, fn);
    mass.mult(tmp, r);
    cmat_.mult(f, tmp);
    r.axpy(-dt * theta, tmp);
    if (theta < 1.0) r.axpy(-dt * (1.0 - theta), rhs_exp);
    if (source) r.axpy(-dt, msrc);
    if (fault.armed() && fault.fire(FaultKind::Nan, "rhs"))
      r[0] = std::numeric_limits<double>::quiet_NaN();

    stats.residual_norm = r.norm2();
    if (!std::isfinite(stats.residual_norm)) {
      // NaN/Inf in the residual: every further iterate would be poisoned, so
      // abandon the step immediately and tell the caller to roll back.
      stats.non_finite = true;
      LANDAU_WARN("Newton abandoned at iteration " << it
                                                   << ": non-finite residual norm");
      return stats;
    }
    // r_prev > 0 here: a zero residual always meets the tolerance below.
    const double contraction = it > 0 ? stats.residual_norm / r_prev : 0.0;
    stats.max_contraction = std::max(stats.max_contraction, contraction);
    if (r0 < 0) r0 = stats.residual_norm > 0 ? stats.residual_norm : 1.0;
    LANDAU_DEBUG("newton " << it << " |G| = " << stats.residual_norm);
    if (stats.residual_norm <= std::max(nopts_.atol, nopts_.rtol * r0)) {
      stats.converged = true;
      break;
    }
    r_prev = stats.residual_norm;

    // Defined output: the update is zeroed before the factor and the solve,
    // so a throw from either leaves a no-op update, never a stale one.
    delta.zero();
    if (it == 0 || contraction > kRefactorContraction) {
      // Newton matrix M - theta dt (C - A) about f_k, factored; the other
      // iterations solve with these factors against the true residual G_k.
      jmat_.zero_entries();
      jmat_.axpy(1.0, mass);
      jmat_.axpy(-dt * theta, cmat_);
      factor();
      ++stats.factorizations;
    }
    solve(r, delta);
    f.axpy(-1.0, delta);
    if (fault.armed() && fault.fire(FaultKind::Nan, "state"))
      f[0] = std::numeric_limits<double>::quiet_NaN();
    ++stats.newton_iterations;
    ++newton_count_;

    const double delta_norm = delta.norm2();
    const double f_norm = f.norm2();
    if (!std::isfinite(delta_norm) || !std::isfinite(f_norm)) {
      stats.non_finite = true;
      LANDAU_WARN("Newton abandoned at iteration " << it
                                                   << ": non-finite update or state");
      return stats;
    }

    // Stagnation exit: once the update is negligible relative to the state,
    // the quasi-Newton iteration has hit its roundoff floor — further
    // iterations only burn Jacobian builds (PETSc's snes_stol analog). The
    // step is accepted, but |G| never met atol/rtol, so converged stays
    // false: quench runs must not silently treat a stalled step as solved.
    if (delta_norm <= 1e-12 * std::max(1.0, f_norm)) {
      stats.stagnated = true;
      LANDAU_WARN("Newton stagnated after " << stats.newton_iterations
                                            << " iterations: |delta| at roundoff floor with |G| = "
                                            << stats.residual_norm
                                            << " above tolerance; accepting the step");
      break;
    }
  }
  if (!stats.converged && !stats.stagnated && !stats.non_finite)
    LANDAU_WARN("Newton did not converge: |G| = " << stats.residual_norm << " after "
                                                  << stats.newton_iterations << " iterations");
  // Telemetry of record for the step log and check.sh telemetry stage; the
  // handles are resolved once and the updates are relaxed atomics.
  static obs::Counter& newton_total =
      obs::MetricsRegistry::instance().counter("solver.newton.iterations");
  static obs::Counter& factor_total =
      obs::MetricsRegistry::instance().counter("solver.factorizations");
  static obs::Histogram& newton_hist = obs::MetricsRegistry::instance().histogram(
      "solver.newton.per_step", {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0});
  newton_total.inc(stats.newton_iterations);
  factor_total.inc(stats.factorizations);
  newton_hist.observe(static_cast<double>(stats.newton_iterations));
  return stats;
}

} // namespace landau
