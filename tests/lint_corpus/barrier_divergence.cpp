// Seeded violations: barrier-divergence.
// A barrier reached by only part of a block deadlocks on hardware; the
// emulator, which runs phases sequentially on one worker, never notices.
#include "exec/annotations.h"
#include "exec/cuda_sim.h"

namespace exec = landau::exec;

void bad_barriers(exec::ThreadPool& pool) {
  exec::launch(
      pool, 4, {32, 4, 1},
      LANDAU_KERNEL [&](exec::Block& blk) {
        auto regs = blk.registers<double>("acc");
        blk.threads([&](exec::ThreadIdx t) {
          regs[static_cast<std::size_t>(t.flat)] = 1.0;
          blk.sync(); // VIOLATION: __syncthreads() inside a per-thread phase
        });
        int lane = 0;
        blk.threads([&](exec::ThreadIdx t) { lane = t.x; });
        if (lane > 0) {
          blk.sync(); // VIOLATION: barrier under a thread-dependent branch
        }
        blk.sync(); // ok: block-uniform top-level barrier
      },
      nullptr, "corpus:barriers");
}
