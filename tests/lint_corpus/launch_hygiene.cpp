// Seeded violations: launch-hygiene.
// Launch sites must carry the LANDAU_KERNEL marker and a span-name string;
// allocations must be named; literal Dim3 x-extents must be powers of two
// when a kernel in the file uses the warp-shuffle butterfly.
#include "exec/annotations.h"
#include "exec/cuda_sim.h"

namespace exec = landau::exec;

void unnamed_allocs(exec::ThreadPool& pool) {
  const exec::Dim3 block{48, 1, 1}; // VIOLATION: 48 lanes can't run the butterfly
  exec::launch( // VIOLATION: no span-name string argument anywhere below
      pool, 8, block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        auto regs = blk.registers<double>();    // VIOLATION: unnamed registers
        auto tile = blk.shared<double>(32);     // VIOLATION: unnamed shared
        blk.threads([&](exec::ThreadIdx t) {
          regs[static_cast<std::size_t>(t.flat)] = tile[0];
        });
        blk.shfl_xor_sum_x(regs);
      },
      nullptr);
}

void unannotated(exec::ThreadPool& pool) {
  // The unmarked lambda means none of the device-region checks see its body.
  exec::launch( // VIOLATION: kernel lambda lacks the LANDAU_KERNEL marker
      pool, 8, {32, 1, 1}, [&](exec::Block& blk) { (void)blk; },
      nullptr, "corpus:unannotated");
}
