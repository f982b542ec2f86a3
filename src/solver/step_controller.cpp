#include "solver/step_controller.h"

#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/profiler.h"

namespace landau {

StepController::StepController(ImplicitIntegrator& integrator, StepControllerOptions opts)
    : integrator_(integrator), opts_(opts), dt_(opts.dt_initial),
      advance_event_(Profiler::instance().event_id("controller:advance")),
      reject_event_(Profiler::instance().event_id("controller:reject")) {
  LANDAU_ASSERT(opts_.dt_initial > 0.0, "dt_initial must be positive");
  LANDAU_ASSERT(opts_.dt_min > 0.0 && opts_.dt_min <= opts_.dt_initial,
                "dt_min must be in (0, dt_initial]");
  LANDAU_ASSERT(opts_.backoff > 0.0 && opts_.backoff <= 1.0, "backoff must be in (0, 1]");
  LANDAU_ASSERT(opts_.growth >= 1.0, "growth must be >= 1");
  LANDAU_ASSERT(opts_.max_retries >= 0, "max_retries must be >= 0");
}

void StepController::set_dt(double dt) {
  LANDAU_ASSERT(dt > 0.0, "dt must be positive");
  dt_ = dt;
}

StepController::PersistedState StepController::save_state() const {
  return {dt_, easy_count_, accepted_, rejected_};
}

void StepController::restore_state(const PersistedState& s) {
  LANDAU_ASSERT(s.dt > 0.0, "restored dt must be positive");
  dt_ = s.dt;
  easy_count_ = static_cast<int>(s.easy_count);
  accepted_ = s.accepted;
  rejected_ = s.rejected;
}

AdvanceStats StepController::advance(la::Vec& f, double e_z, const la::Vec* source) {
  ScopedEvent ev(advance_event_);
  snapshot_ = f; // rollback point; reuses capacity after the first advance
  AdvanceStats out;

  for (int attempt = 0;; ++attempt) {
    const bool last = attempt >= opts_.max_retries;
    StepStats stats;
    bool threw = false;
    std::string reason;
    try {
      stats = integrator_.step(f, dt_, e_z, source);
    } catch (const Error& e) {
      threw = true;
      reason = e.what();
    }

    bool ok = false;
    if (!threw) {
      const bool finite =
          !stats.non_finite && std::isfinite(stats.residual_norm) && f.all_finite();
      ok = finite && stats.converged;
      if (!ok && last && finite && stats.stagnated) {
        // Retrying cannot beat the quasi-Newton roundoff floor; completing
        // with an honest warning beats dying here (the XGC production
        // constraint: the implicit step must always finish).
        LANDAU_WARN("step controller: accepting stagnated step after "
                    << out.rejections << " rejection(s), |G| = " << stats.residual_norm);
        out.accepted_stagnated = true;
        ok = true;
      }
      if (!reason.empty()) reason.clear();
      if (!ok) {
        if (!finite) reason = "non-finite residual/update/state";
        else if (stats.stagnated) reason = "Newton stagnated";
        else reason = "Newton did not converge";
      }
    }

    if (ok) {
      out.step = stats;
      out.dt = dt_;
      ++accepted_;
      static obs::Counter& accepted_ctr =
          obs::MetricsRegistry::instance().counter("controller.accepted");
      static obs::Gauge& dt_gauge = obs::MetricsRegistry::instance().gauge("controller.dt");
      accepted_ctr.inc();
      dt_gauge.set(dt_);
      // dt regrowth: after a streak of easy, reject-free accepts, step back
      // out toward the ceiling so the post-transient plateau runs cheap.
      if (out.rejections == 0 && !out.accepted_stagnated &&
          stats.newton_iterations <= opts_.easy_newton_threshold) {
        if (++easy_count_ >= opts_.easy_streak && dt_ < dt_max()) {
          const double grown = std::min(dt_ * opts_.growth, dt_max());
          LANDAU_DEBUG("step controller: growing dt " << dt_ << " -> " << grown << " after "
                                                      << easy_count_ << " easy steps");
          dt_ = grown;
          easy_count_ = 0;
        }
      } else {
        easy_count_ = 0;
      }
      return out;
    }

    // Reject: roll back and either retry at a smaller dt or give up.
    f = snapshot_;
    ++out.rejections;
    ++rejected_;
    static obs::Counter& rejected_ctr =
        obs::MetricsRegistry::instance().counter("controller.rejected");
    rejected_ctr.inc();
    Profiler::instance().add(reject_event_, 0.0, 1);
    easy_count_ = 0;
    if (last)
      LANDAU_THROW("step controller: step rejected " << out.rejections
                                                     << " time(s), retries exhausted (last: "
                                                     << reason << ", dt = " << dt_ << ")");
    const double shrunk = std::max(dt_ * opts_.backoff, opts_.dt_min);
    LANDAU_WARN("step controller: rejecting step (" << reason << "), dt " << dt_ << " -> "
                                                    << shrunk << ", attempt " << (attempt + 1)
                                                    << "/" << (opts_.max_retries + 1));
    dt_ = shrunk;
  }
}

} // namespace landau
