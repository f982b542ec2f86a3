// No seeded violations: exercises every construct the analyzer reasons
// about in its sanctioned form. Pins the zero-false-positive behavior — a
// finding on this file is an analyzer regression.
#include <cmath>
#include <span>

#include "exec/annotations.h"
#include "exec/check.h"
#include "exec/cuda_sim.h"
#include "la/csr.h"

namespace exec = landau::exec;
namespace check = landau::exec::check;

constexpr int kTile = 8;

LANDAU_DEVICE inline double scaled(double v, double s) { return v * s; }

void clean_kernel(exec::ThreadPool& pool, std::span<double> values, landau::la::CsrMatrix& j,
                  double exponent) {
  check::KernelScope chk("corpus:clean");
  auto ref_out = LANDAU_CROSS_BLOCK(chk.out(values, "csr.values"));
  const exec::Dim3 block{32, 2, 1}; // power-of-two lanes for the butterfly
  exec::launch(
      pool, 4, block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        auto out = blk.view(ref_out);
        auto tile = blk.shared<double>(kTile, "tile");
        auto regs = blk.registers<double>("acc");
        blk.threads([&](exec::ThreadIdx t) {
          for (int i = t.x; i < kTile; i += blk.block_dim().x)
            tile[i] = scaled(1.0, 2.0); // bounded: i < kTile == extent
          regs[static_cast<std::size_t>(t.flat)] = tile[kTile - 1];
        });
        blk.sync(); // block-uniform barrier at phase boundary
        blk.shfl_xor_sum_x(regs);
        const double v = std::pow(regs[0], exponent); // runtime exponent: fine
        if (landau::fp::exact_eq(v, 0.0)) return;     // sanctioned exact compare
        blk.threads([&](exec::ThreadIdx t) {
          // Cross-block output written only through the atomic path (§III-F).
          if (t.flat == 0) j.add_atomic(0, 0, v);
        });
        (void)out;
      },
      &chk, "corpus:clean");
  chk.finish();
}
