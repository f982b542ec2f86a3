#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "exec/cuda_sim.h"

using namespace landau::exec;

TEST(CudaSim, LaunchCoversGridAndThreads) {
  ThreadPool pool(2);
  const int grid = 7;
  const Dim3 block{4, 4, 1};
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(grid * block.size()));
  launch(pool, grid, block, [&](Block& blk) {
    blk.threads([&](ThreadIdx t) {
      hits[static_cast<std::size_t>(blk.block_idx() * blk.num_threads() + t.flat)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CudaSim, SharedMemoryVisibleAcrossPhases) {
  ThreadPool pool(1);
  std::vector<double> out(4, 0.0);
  launch(pool, 4, Dim3{8, 1, 1}, [&](Block& blk) {
    auto shared = blk.shared<double>(8);
    blk.threads([&](ThreadIdx t) { shared[static_cast<std::size_t>(t.x)] = t.x + 1.0; });
    blk.sync();
    blk.threads([&](ThreadIdx t) {
      if (t.x == 0) {
        double s = 0;
        for (double v : shared) s += v;
        out[static_cast<std::size_t>(blk.block_idx())] = s;
      }
    });
  });
  for (double v : out) EXPECT_DOUBLE_EQ(v, 36.0);
}

TEST(CudaSim, RegisterFilePersistsAcrossPhases) {
  ThreadPool pool(0);
  double result = 0.0;
  launch(pool, 1, Dim3{4, 2, 1}, [&](Block& blk) {
    auto regs = blk.registers<double>();
    blk.threads([&](ThreadIdx t) { regs[static_cast<std::size_t>(t.flat)] = t.x * 10.0 + t.y; });
    blk.sync();
    blk.threads([&](ThreadIdx t) {
      if (t.flat == 0)
        for (auto r : regs) result += r;
    });
  });
  // sum over x of (10x + y) for x in 0..3, y in 0..1 = (0+10+20+30)*2 + 4*1
  EXPECT_DOUBLE_EQ(result, 124.0);
}

TEST(CudaSim, ShuffleXorSumReducesEachRow) {
  ThreadPool pool(0);
  std::vector<double> row_sums(4, 0.0);
  launch(pool, 1, Dim3{8, 4, 1}, [&](Block& blk) {
    auto regs = blk.registers<double>();
    blk.threads([&](ThreadIdx t) { regs[static_cast<std::size_t>(t.flat)] = t.x + 100.0 * t.y; });
    blk.shfl_xor_sum_x(regs);
    blk.threads([&](ThreadIdx t) {
      if (t.x == 0) row_sums[static_cast<std::size_t>(t.y)] = regs[static_cast<std::size_t>(t.flat)];
    });
  });
  // Each row sums x=0..7 plus 8*100*y.
  for (int y = 0; y < 4; ++y) EXPECT_DOUBLE_EQ(row_sums[static_cast<std::size_t>(y)], 28.0 + 800.0 * y);
}

TEST(CudaSim, ShuffleGivesSameResultToEveryLane) {
  // On hardware every lane ends with the same reduced value; the emulation
  // must preserve that (the Landau kernel reads it from all threads).
  ThreadPool pool(0);
  bool all_equal = true;
  launch(pool, 1, Dim3{16, 1, 1}, [&](Block& blk) {
    auto regs = blk.registers<double>();
    blk.threads([&](ThreadIdx t) { regs[static_cast<std::size_t>(t.flat)] = t.x * t.x; });
    blk.shfl_xor_sum_x(regs);
    blk.threads([&](ThreadIdx t) {
      if (regs[static_cast<std::size_t>(t.flat)] != regs[0]) all_equal = false;
    });
  });
  EXPECT_TRUE(all_equal);
}

TEST(CudaSim, ShuffleRequiresPowerOfTwoWidth) {
  ThreadPool pool(0);
  EXPECT_THROW(
      launch(pool, 1, Dim3{6, 1, 1},
             [&](Block& blk) {
               auto regs = blk.registers<double>();
               blk.shfl_xor_sum_x(regs);
             }),
      landau::Error);
}

TEST(CudaSim, ShuffleReducesStructTypes) {
  struct Pair {
    double a = 0, b = 0;
    Pair& operator+=(const Pair& o) {
      a += o.a;
      b += o.b;
      return *this;
    }
  };
  ThreadPool pool(0);
  Pair total;
  launch(pool, 1, Dim3{4, 1, 1}, [&](Block& blk) {
    auto regs = blk.registers<Pair>();
    blk.threads([&](ThreadIdx t) {
      regs[static_cast<std::size_t>(t.flat)] = Pair{static_cast<double>(t.x), 2.0 * t.x};
    });
    blk.shfl_xor_sum_x(regs);
    blk.threads([&](ThreadIdx t) {
      if (t.flat == 0) total = regs[0];
    });
  });
  EXPECT_DOUBLE_EQ(total.a, 6.0);
  EXPECT_DOUBLE_EQ(total.b, 12.0);
}

TEST(CudaSim, ArenaAlignsOveralignedTypes) {
  // The vector chunks backing the arena are only aligned to max_align_t, so
  // alignas(64) tile types must be aligned from the chunk's actual base
  // address, not the bump offset alone.
  struct alignas(64) Tile {
    double v[8];
  };
  Arena arena(256); // small chunks force frequent new-chunk paths
  for (int i = 0; i < 16; ++i) {
    auto d = arena.alloc<double>(3); // mis-align the bump offset
    auto t = arena.alloc<Tile>(2);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % alignof(Tile), 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
    t[0].v[0] = static_cast<double>(i);
    EXPECT_DOUBLE_EQ(t[0].v[0], static_cast<double>(i));
  }
  // An allocation larger than the chunk size gets its own aligned chunk.
  auto big = arena.alloc<Tile>(8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % alignof(Tile), 0u);
}
