// Seeded violations: atomics.
// Buffers registered through LANDAU_CROSS_BLOCK are written concurrently by
// multiple blocks (paper §III-F); every store must take an atomic-add path.
#include <span>

#include "exec/annotations.h"
#include "exec/check.h"
#include "exec/cuda_sim.h"

namespace exec = landau::exec;
namespace check = landau::exec::check;

void bad_atomics(exec::ThreadPool& pool, std::span<double> values) {
  check::KernelScope chk("corpus:atomics");
  auto ref_out = LANDAU_CROSS_BLOCK(chk.out(values, "coo.values"));
  exec::launch(
      pool, 4, {16, 1, 1},
      LANDAU_KERNEL [&](exec::Block& blk) {
        auto out = blk.view(ref_out);
        blk.threads([&](exec::ThreadIdx t) {
          const std::size_t i = static_cast<std::size_t>(t.flat);
          out[i] = 1.0;  // VIOLATION: raw store into a cross-block buffer
          out[i] += 2.0; // VIOLATION: read-modify-write without atomicity
        });
      },
      &chk, "corpus:atomics");
  chk.finish();
}
