// Seeded violations: capture.
// Device regions must not touch LANDAU_HOST_ONLY names and must not declare
// host containers — per-block host allocations that nvcc would reject.
#include <vector>

#include "exec/annotations.h"
#include "exec/cuda_sim.h"

namespace exec = landau::exec;

/// Stand-in for the tree's host-side services (ThreadPool, Tracer, ...).
class LANDAU_HOST_ONLY FileLogger {
public:
  void log(double v);
};

void bad_capture(exec::ThreadPool& pool, FileLogger& logger) {
  exec::launch(
      pool, 2, {16, 1, 1},
      LANDAU_KERNEL [&](exec::Block& blk) {
        std::vector<double> scratch(16); // VIOLATION: host container in kernel
        scratch[0] = static_cast<double>(blk.block_idx());
        FileLogger local; // VIOLATION: host-only name referenced in kernel
        local.log(scratch[0]);
      },
      nullptr, "corpus:capture");
  logger.log(0.0); // ok: host code may use host-only services freely
}
