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
// Linear solvers: the custom block band LU with RCM ordering (§III-G,
// default — the species blocks factor independently, batched over the
// operator's worker pool), the device band LU (same batch in the emulated
// CUDA model), dense LU (reference), or GMRES (the iterative alternative the
// conclusion discusses). All four follow the same lagging rule; GMRES keeps
// no factors and solves with the last Newton matrix assembled. The band
// solvers' symbolic analysis (RCM, block discovery, scatter maps) is cached
// across Newton iterations and steps, and invalidated only when the matrix
// nonzero structure changes (AMR refine).

#include <memory>
#include <optional>

#include "core/operator_base.h"
#include "la/band.h"
#include "la/band_device.h"
#include "la/dense.h"
#include "la/gmres.h"

namespace landau {

enum class LinearSolverKind { BandLU, DeviceBandLU, DenseLU, Gmres };

struct NewtonOptions {
  int max_iterations = 50;
  double rtol = 1e-8;
  double atol = 1e-14;
  bool verbose = false;
  /// Time-discretization parameter: 1 = backward Euler (the paper's choice),
  /// 0.5 = trapezoidal/Crank-Nicolson (second order in dt). The implicit
  /// side always uses the frozen-coefficient quasi-Newton Jacobian.
  double theta = 1.0;
};

/// Controls for the inner linear solve of each Newton iteration. The direct
/// solvers have no tunables (their accuracy is fixed by the factorization);
/// the GMRES fields mirror la::GmresOptions.
struct LinearSolverOptions {
  double gmres_rtol = 1e-12;
  double gmres_atol = 1e-50;
  int gmres_max_iterations = 2000;
  int gmres_restart = 60;
  bool gmres_jacobi_preconditioner = true;
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
  /// Newton matrices assembled in the step (factored, for the direct
  /// solvers): 1 when the first factorization served every iteration.
  int factorizations = 0;
  /// Largest residual contraction |G_k| / |G_{k-1}| in the step; 0 when the
  /// step computed fewer than two residuals.
  double max_contraction = 0.0;
};

class ImplicitIntegrator {
public:
  explicit ImplicitIntegrator(CollisionOperatorBase& op, NewtonOptions nopts = {},
                              LinearSolverKind linear = LinearSolverKind::BandLU,
                              LinearSolverOptions lsopts = {});

  /// Advance f by one backward-Euler step of size dt under field e_z and
  /// optional source s (a full state-sized vector, df/dt units).
  StepStats step(la::Vec& f, double dt, double e_z = 0.0, const la::Vec* source = nullptr);

  LinearSolverKind linear_solver() const { return linear_; }
  const LinearSolverOptions& linear_options() const { return lsopts_; }
  long total_newton_iterations() const { return newton_count_; }

  /// Matrix bandwidth after band ordering (diagnostic; valid once a step has run with
  /// the band solver).
  std::size_t band_bandwidth() const { return band_.bandwidth(); }
  std::size_t band_blocks() const { return band_.n_blocks(); }
  /// Symbolic analyses performed by the host band solver (diagnostic: stays
  /// at 1 across steps unless the matrix structure changes).
  long band_analysis_count() const { return band_.analysis_count(); }

private:
  void invalidate_if_structure_changed(const la::CsrMatrix& jmat);
  /// Structure check, "factor" fault site, paranoid audit, then the chosen
  /// solver's factorization of jmat_ (GMRES keeps none).
  void factor();
  /// x = jmat_^-1 rhs with the factors of the last factor() ("solve" fault
  /// site first); GMRES iterates on jmat_ as last assembled.
  void solve(const la::Vec& rhs, la::Vec& x);

  CollisionOperatorBase& op_;
  NewtonOptions nopts_;
  LinearSolverKind linear_;
  LinearSolverOptions lsopts_;
  la::CsrMatrix cmat_, jmat_;
  la::CsrMatrix amat_; // -e_z A of the current step, allocated by the first step
  la::BlockBandSolver band_;
  std::unique_ptr<la::DeviceBlockBandSolver> device_band_;
  std::optional<la::DenseLU> dense_;
  std::size_t sym_rows_ = 0, sym_nnz_ = 0; // structure signature of the cache
  long newton_count_ = 0;
};

} // namespace landau
