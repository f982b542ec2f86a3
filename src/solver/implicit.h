#pragma once
// Fully implicit (backward Euler, or theta) advance of the Vlasov(E)-Landau
// system with the paper's quasi-Newton iteration (§III): the Jacobian is the
// FE operator with the Landau coefficients D(f), K(f) frozen at an iterate.
// The iteration converges linearly and is the solver XGC uses in production.
//
// One step solves G(f) = M (f - f_n) - dt [theta (C(f) - A) f
// + (1 - theta) (C(f_n) - A) f_n] - dt M s = 0, with A the E-field advection
// blocks, C the frozen-coefficient collision matrix and s an optional source.
// Every iteration packs f_k and assembles C(f_k) for the true residual G_k.
// The Newton matrix M - theta dt (C - A) is assembled and factored at the
// step's first iteration, and again only when the residual contracts too
// slowly (|G_k| > rho |G_{k-1}|); other iterations solve with the factors
// they have (a lagged Jacobian, PETSc's -snes_lag_jacobian). No factorization
// outlives a step() call.
//
// The linear solver is the custom block band LU with RCM ordering (§III-G):
// the species blocks factor independently, batched over the operator's
// worker pool. Its symbolic analysis (RCM, block discovery, scatter maps) is
// cached across Newton iterations and steps, and invalidated only when the
// matrix nonzero structure changes (AMR refine). The device band LU, dense LU
// and GMRES (la/) solve the same systems in the tests and bench_ablation.

#include "core/operator_base.h"
#include "la/band.h"

namespace landau {

struct NewtonOptions {
  int max_iterations = 50;
  double rtol = 1e-8;
  double atol = 1e-14;
  /// Time-discretization parameter: 1 = backward Euler (the paper's choice),
  /// 0.5 = trapezoidal/Crank-Nicolson (second order in dt). The implicit
  /// side always uses the frozen-coefficient quasi-Newton Jacobian.
  double theta = 1.0;
};

struct StepStats {
  int newton_iterations = 0;
  bool converged = false; // |G| met atol/rtol
  /// The update stalled at the quasi-Newton roundoff floor before |G| met
  /// the tolerance: the step was accepted, but converged stays honest.
  bool stagnated = false;
  /// A NaN/Inf appeared in the residual or the Newton update: the iteration
  /// was abandoned immediately and f may be poisoned — callers (the step
  /// controller) must roll back to their pre-step snapshot.
  bool non_finite = false;
  double residual_norm = 0.0;
  /// Newton matrices assembled and factored in the step: 1 when the first
  /// factorization served every iteration.
  int factorizations = 0;
  /// Largest residual contraction |G_k| / |G_{k-1}| in the step; 0 when the
  /// step computed fewer than two residuals.
  double max_contraction = 0.0;
};

class ImplicitIntegrator {
public:
  explicit ImplicitIntegrator(CollisionOperatorBase& op, NewtonOptions nopts = {});

  /// Advance f by one backward-Euler step of size dt under field e_z and
  /// optional source s (a full state-sized vector, df/dt units).
  StepStats step(la::Vec& f, double dt, double e_z = 0.0, const la::Vec* source = nullptr);

  long total_newton_iterations() const { return newton_count_; }

  /// Matrix bandwidth after band ordering (diagnostic; valid once a step has
  /// run).
  std::size_t band_bandwidth() const { return band_.bandwidth(); }
  std::size_t band_blocks() const { return band_.n_blocks(); }
  /// Symbolic analyses performed by the host band solver (diagnostic: stays
  /// at 1 across steps unless the matrix structure changes).
  long band_analysis_count() const { return band_.analysis_count(); }

private:
  void invalidate_if_structure_changed(const la::CsrMatrix& jmat);
  /// "factor" fault site, paranoid audit and structure check, then the band
  /// factorization of jmat_.
  void factor();
  /// x = jmat_^-1 rhs with the factors of the last factor() ("solve" fault
  /// site first).
  void solve(const la::Vec& rhs, la::Vec& x);

  CollisionOperatorBase& op_;
  NewtonOptions nopts_;
  la::CsrMatrix cmat_, jmat_;
  la::CsrMatrix amat_; // -e_z A of the current step, allocated by the first step
  la::BlockBandSolver band_;
  std::size_t sym_rows_ = 0, sym_nnz_ = 0; // structure signature of the cache
  long newton_count_ = 0;
};

} // namespace landau
