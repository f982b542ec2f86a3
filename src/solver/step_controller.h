#pragma once
// Failure-recovering adaptive time-step layer over ImplicitIntegrator.
//
// The quasi-Newton backward-Euler step the paper (and XGC) relies on must
// *always* complete: a thermal-quench transient drives the solver through
// regimes where a fixed dt stagnates or diverges, and a NaN produced anywhere
// would silently poison every downstream diagnostic. advance() wraps one
// step() with reject/retry semantics:
//
//   accept   converged AND the state, residual and update are finite (the
//            state scan is O(n) and always runs). A streak of easy accepts
//            (few Newton iterations, no rejects) grows dt by `growth` toward
//            dt_max, so the Spitzer plateau runs at large steps.
//   reject   divergence, stagnation, a non-finite residual / update / state,
//            or a landau::Error thrown by the linear solver.
//            The state rolls back to the pre-step snapshot, dt shrinks by
//            `backoff` (floored at dt_min), and the step re-attempts — so the
//            quench transient is resolved with small steps automatically.
//   give up  after max_retries rejected attempts advance() throws
//            landau::Error — except that a final attempt which merely
//            stagnated (finite state, |update| at the quasi-Newton roundoff
//            floor) is accepted with a warning, because retrying cannot beat
//            the roundoff floor and production runs must complete.
//
// Controller state (dt, easy-step streak, accept/reject counters) is plain
// data with no hidden RNG, so save_state()/restore_state() round-trips it
// bit-exactly through a checkpoint file.

#include <cstdint>

#include "solver/implicit.h"

namespace landau {

struct StepControllerOptions {
  double dt_initial = 0.25;
  double dt_min = 1e-4;      // reject backoff floor
  double dt_max = 0.0;       // growth ceiling; <= 0 means dt_initial
  double backoff = 0.5;      // dt multiplier on reject, in (0, 1]
  double growth = 1.5;       // dt multiplier after an easy streak, >= 1
  int easy_streak = 3;       // consecutive easy accepts before growing dt
  int easy_newton_threshold = 4; // a step is easy if it takes <= this many its
  int max_retries = 8;       // rejected attempts per advance before giving up
};

/// Outcome of one accepted advance.
struct AdvanceStats {
  StepStats step;                 // stats of the accepted attempt
  double dt = 0.0;                // dt the accepted attempt used
  int rejections = 0;             // rejected attempts within this advance
  bool accepted_stagnated = false; // accepted via the exhaustion escape hatch
};

class StepController {
public:
  explicit StepController(ImplicitIntegrator& integrator, StepControllerOptions opts = {});

  /// Advance f by exactly one accepted step (retrying internally as needed).
  /// Throws landau::Error when max_retries attempts are all rejected; f is
  /// left at the pre-step snapshot in that case.
  AdvanceStats advance(la::Vec& f, double e_z = 0.0, const la::Vec* source = nullptr);

  double dt() const { return dt_; }
  void set_dt(double dt);
  double dt_max() const { return opts_.dt_max > 0.0 ? opts_.dt_max : opts_.dt_initial; }

  const StepControllerOptions& options() const { return opts_; }
  ImplicitIntegrator& integrator() { return integrator_; }

  long total_accepted() const { return accepted_; }
  long total_rejected() const { return rejected_; }

  /// Bit-exact persistable controller state (checkpoint/restart).
  struct PersistedState {
    double dt = 0.0;
    std::int64_t easy_count = 0;
    std::int64_t accepted = 0;
    std::int64_t rejected = 0;
  };
  PersistedState save_state() const;
  void restore_state(const PersistedState& s);

private:
  ImplicitIntegrator& integrator_;
  StepControllerOptions opts_;
  double dt_;
  int easy_count_ = 0;
  long accepted_ = 0;
  long rejected_ = 0;
  la::Vec snapshot_; // pre-step state, reused across advances (no realloc)
  int advance_event_ = -1, reject_event_ = -1; // cached profiler ids
};

} // namespace landau
