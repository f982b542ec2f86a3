#pragma once
// The Vlasov-Maxwell-Landau thermal quench model (§IV-C), end to end:
//
//  1. Spitzer phase: evolve under a fixed small E_z until the current
//     reaches quasi-equilibrium (the resistivity verification setup, §IV-B).
//  2. Quench phase: switch to E <- eta_Spitzer(T_e, Z) * J, inject a pulse
//     of cold plasma; the temperature collapses, eta rises, E rises, fast
//     electrons accelerate — the seed-runaway dynamics of Fig. 5.
//
// The driver records the normalized profiles n_e, J, E, T_e each step
// (Fig. 5's four panels).
//
// Time advance goes through the failure-recovering StepController: a step
// that diverges, stagnates, produces NaNs, or throws from the linear solver
// is rolled back and retried at a smaller dt (growing back once the
// transient passes), so the scenario completes through the violent collapse.
// With `checkpoint_path`/`checkpoint_interval` set, the full run state —
// distribution, time, dt, controller state, phase flags and the recorded
// history — is checkpointed every N accepted steps (torn-write safe), and a
// run with `resume = true` continues mid-scenario, including across the
// Spitzer→quench switchover, reproducing the uninterrupted history.

#include <string>
#include <vector>

#include "core/operator.h"
#include "quench/source.h"
#include "solver/implicit.h"
#include "solver/step_controller.h"

namespace landau::quench {

struct QuenchOptions {
  double dt = 0.25;               // initial step, electron collision times
  int max_steps = 200;            // accepted steps (retries don't count)
  double e_initial_over_ec = 0.5; // E0 = 0.5 E_c (the paper's experiment)
  double te_ev = 1000.0;          // physical reference temperature for E_c
  double equilibrium_tol = 2e-3;  // relative dJ/J per step for switchover
  int min_equilibrium_steps = 3;
  SourceSpec source;              // injected after switchover
  double tail_speed = 2.5;        // |v| (v0 units) above which electrons count
                                  // toward the seed-runaway diagnostic
  NewtonOptions newton;

  /// Reject/retry + adaptive-dt knobs. dt_initial/dt_max are derived from
  /// `dt` unless set explicitly (dt_initial <= 0 means "use dt").
  StepControllerOptions controller{.dt_initial = 0.0};

  /// Checkpoint/restart: with a nonempty path and interval > 0, the run
  /// state is saved every `checkpoint_interval` accepted steps. With
  /// `resume` set, run() loads `checkpoint_path` (if it exists) and
  /// continues mid-scenario instead of starting fresh.
  std::string checkpoint_path;
  int checkpoint_interval = 0;
  bool resume = false;
};

/// One recorded time point (all normalized; Fig. 5 quantities).
struct QuenchSample {
  double t = 0;
  double n_e = 0;
  double j_z = 0;
  double e_z = 0;
  double t_e = 0;
  double runaway_fraction = 0; // electron fraction above the tail threshold
  int newton_iterations = 0;
  bool quench_phase = false;
  double dt = 0;        // dt the accepted step used (0 for the initial sample)
  int rejections = 0;   // rejected attempts before this step was accepted
};

struct QuenchResult {
  std::vector<QuenchSample> history;
  double mass_injected = 0.0; // electron density added by the source
  int switchover_step = -1;   // first quench-phase step
  long total_rejections = 0;  // step-controller rejects over the whole run
  long stagnated_steps = 0;   // accepted steps whose Newton never met |G| tol
  bool resumed = false;       // run() continued from a checkpoint
};

class QuenchModel {
public:
  QuenchModel(LandauOperator& op, QuenchOptions opts);

  /// Run the full scenario; f is the evolving state (starts Maxwellian, or
  /// restored from the checkpoint when resuming).
  QuenchResult run();

  /// Access the state after run().
  const la::Vec& state() const { return f_; }

  const StepController& controller() const { return controller_; }

private:
  /// Persisted mid-run loop state (everything run() keeps between steps
  /// besides f_, the controller, and the history).
  struct LoopState {
    std::int64_t next_step = 0;
    double t = 0.0;
    double e_z = 0.0;
    double prev_j = 0.0;
    double quench_t0 = 0.0;
    std::int64_t steady_count = 0;
    std::int64_t quench_phase = 0;
  };

  void save_checkpoint(const QuenchResult& result, const LoopState& ls) const;
  bool load_checkpoint(QuenchResult& result, LoopState& ls);

  LandauOperator& op_;
  QuenchOptions opts_;
  ImplicitIntegrator integrator_;
  StepController controller_;
  la::Vec f_;
};

/// The §IV-B resistivity measurement: evolve under fixed e_z until J is
/// quasi-steady and return eta = E/J (used for Fig. 4). Runs through the
/// step controller, so failed steps are retried instead of being silently
/// recorded; rejection/stagnation totals are surfaced in the result.
struct ResistivityResult {
  double eta = 0;
  double j_z = 0;
  int steps = 0;
  bool converged = false;
  long rejections = 0;      // controller rejects over the measurement
  long stagnated_steps = 0; // accepted-but-stagnated steps
};
ResistivityResult measure_resistivity(LandauOperator& op, double e_z, double dt, int max_steps,
                                      double tol = 1e-3, NewtonOptions newton = {});

} // namespace landau::quench
