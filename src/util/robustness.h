#pragma once
// Robustness hooks shared by the solver and quench layers:
//
//  * RobustnessOptions — runtime switches for the defensive checks whose cost
//    is not negligible. `paranoid` turns on finite-value audits at the
//    operator boundary (packed IP data, assembled collision matrix, Newton
//    matrix); the cheap guards (residual-norm finiteness, state scan in the
//    step controller) are always on.
//
//  * FaultInjector — a deterministic fault hook the time integrator and the
//    linear-solve paths consult, compiled in always and disabled unless armed
//    (the disarmed fast path is a single branch on an empty spec list).
//    Arming happens programmatically (tests) or via the LANDAU_FAULT_SPEC
//    environment variable (examples, CI). Grammar — comma-separated entries:
//
//        kind[@site]@step=N
//
//    with kind one of
//        newton_diverge   the Newton iteration diverges (state perturbed,
//                         converged = false)
//        stagnate         the Newton update stalls (state untouched,
//                         stagnated = true)
//        nan              a NaN appears at `site` (rhs | state)
//        throw            landau::Error thrown at `site` (factor | solve);
//                         factor fires only on iterations that factor the
//                         Newton matrix, which always includes an
//                         attempt's first iteration
//    an optional site restricting where the fault fires, and N the 0-based
//    *attempt* index: every ImplicitIntegrator::step() call — including the
//    step controller's retries — advances the counter by one, so a retried
//    step sees a fresh index and a one-shot fault does not re-fire. Each
//    entry fires at most once. Examples:
//
//        newton_diverge@step=7
//        nan@rhs@step=12
//        throw@factor@step=3,throw@factor@step=4

#include <string>
#include <vector>

namespace landau {

struct RobustnessOptions {
  /// Audit finite-ness of the packed IP data, the assembled collision matrix
  /// and the Newton matrix with LANDAU_ASSERT (O(nnz) scans per Newton
  /// iteration; off by default, the controller's cheap guards stay on).
  bool paranoid = false;
};

/// Global robustness switches (mirrors the Options database pattern: examples
/// set it from the command line, tests set it directly).
RobustnessOptions& robustness();

enum class FaultKind { NewtonDiverge, Stagnate, Nan, Throw };

const char* fault_kind_name(FaultKind k);

/// Deterministic fault-injection hook (see file comment for the grammar).
class FaultInjector {
public:
  /// Global instance; on first use arms itself from LANDAU_FAULT_SPEC if set.
  static FaultInjector& instance();

  /// Parse and arm a spec (replacing any armed faults); "" disarms. Throws
  /// landau::Error on a grammar violation. Resets the attempt counter.
  void configure(const std::string& spec);

  /// Disarm all faults and reset counters.
  void clear();

  /// Fast disarmed check — the only cost on the clean path.
  bool armed() const { return !specs_.empty(); }

  /// Called by ImplicitIntegrator at the top of every step() attempt.
  void begin_attempt() { ++attempt_; }
  long attempt() const { return attempt_; }

  /// True exactly once per matching armed entry: kind matches, the entry's
  /// site is empty or equals `site`, and the entry's step equals the current
  /// attempt index.
  bool fire(FaultKind kind, const char* site = "");

  /// Faults fired since the last configure()/clear() (test bookkeeping).
  long fired_count() const { return fired_; }

private:
  FaultInjector();

  struct Spec {
    FaultKind kind = FaultKind::Throw;
    std::string site; // empty = any site
    long step = 0;    // 0-based attempt index
    bool fired = false;
  };
  std::vector<Spec> specs_;
  long attempt_ = -1; // becomes 0 at the first begin_attempt()
  long fired_ = 0;
};

} // namespace landau
