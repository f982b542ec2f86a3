// Seeded violations: shared-bounds.
// Provable out-of-bounds affine indexing of a constant-extent shared tile.
// The analyzer only flags indices it can bound exactly, so everything here
// is integer-literal / constexpr arithmetic.
#include "exec/annotations.h"
#include "exec/cuda_sim.h"

namespace exec = landau::exec;

constexpr int kTile = 16;

void bad_bounds(exec::ThreadPool& pool) {
  exec::launch(
      pool, 2, {16, 1, 1},
      LANDAU_KERNEL [&](exec::Block& blk) {
        auto tile = blk.shared<double>(kTile, "tile");
        blk.threads([&](exec::ThreadIdx t) {
          (void)t;
          for (int i = 0; i <= kTile; ++i)
            tile[i] = 0.0; // VIOLATION: i reaches kTile, one past the end
        });
        blk.sync();
        tile[kTile + 1] = 1.0; // VIOLATION: provably past the end
        tile[kTile - 1] = 1.0; // ok: last valid slot
      },
      nullptr, "corpus:bounds");
}
