#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "la/band_device.h"

using namespace landau;
using namespace landau::la;

namespace {

BandMatrix random_band(std::size_t n, std::size_t bw, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  BandMatrix b(n, bw, bw);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j)
      b.at(i, j) = i == j ? 4.0 * static_cast<double>(bw) + 2.0 : dist(rng);
  return b;
}

} // namespace

TEST(DeviceBand, FactorMatchesSerialBitwise) {
  exec::ThreadPool pool(2);
  for (unsigned seed : {1u, 2u, 3u}) {
    BandMatrix serial = random_band(60, 5, seed);
    BandMatrix device = serial;
    serial.factor_lu();
    BandMatrix* ptr = &device;
    device_band_factor(pool, {&ptr, 1});
    for (std::size_t i = 0; i < 60; ++i)
      for (std::size_t j = (i > 5 ? i - 5 : 0); j <= std::min<std::size_t>(59, i + 5); ++j)
        EXPECT_EQ(device.at(i, j), serial.at(i, j)) << "(" << i << "," << j << ")";
  }
}

TEST(DeviceBand, SolveMatchesSerial) {
  exec::ThreadPool pool(2);
  BandMatrix a = random_band(80, 7, 11);
  BandMatrix lu = a;
  lu.factor_lu();
  Vec xref(80), b(80);
  for (std::size_t i = 0; i < 80; ++i) xref[i] = std::sin(0.3 * static_cast<double>(i));
  a.mult(xref, b);

  Vec x_serial(80);
  lu.solve(b, x_serial);

  Vec x_dev = b;
  BandMatrix* mat = &lu;
  Vec* xp = &x_dev;
  device_band_solve(pool, {&mat, 1}, {&xp, 1});
  for (std::size_t i = 0; i < 80; ++i) EXPECT_NEAR(x_dev[i], x_serial[i], 1e-12);
}

TEST(DeviceBand, BatchOfIndependentSystems) {
  // The batched advance the paper's conclusion describes: many independent
  // systems, one block per system, all correct.
  exec::ThreadPool pool(2);
  const int batch = 12;
  std::vector<BandMatrix> mats;
  std::vector<Vec> xs, refs;
  std::vector<BandMatrix*> mptr;
  std::vector<Vec*> xptr;
  for (int k = 0; k < batch; ++k) {
    const std::size_t n = 20 + 5 * static_cast<std::size_t>(k);
    BandMatrix a = random_band(n, 3, 100u + static_cast<unsigned>(k));
    Vec xref(n), b(n);
    for (std::size_t i = 0; i < n; ++i) xref[i] = std::cos(static_cast<double>(i) + k);
    a.mult(xref, b);
    mats.push_back(a);
    xs.push_back(b);
    refs.push_back(xref);
  }
  for (int k = 0; k < batch; ++k) {
    mptr.push_back(&mats[static_cast<std::size_t>(k)]);
    xptr.push_back(&xs[static_cast<std::size_t>(k)]);
  }
  device_band_factor(pool, {mptr.data(), mptr.size()});
  std::vector<BandMatrix*> cmptr(mptr.begin(), mptr.end());
  device_band_solve(pool, {cmptr.data(), cmptr.size()}, {xptr.data(), xptr.size()});
  for (int k = 0; k < batch; ++k)
    for (std::size_t i = 0; i < xs[static_cast<std::size_t>(k)].size(); ++i)
      EXPECT_NEAR(xs[static_cast<std::size_t>(k)][i], refs[static_cast<std::size_t>(k)][i], 1e-10)
          << "system " << k;
}

TEST(DeviceBand, BlockSolverMatchesCpuBlockSolver) {
  // Block-diagonal multi-species style system through both solvers.
  const std::size_t blocks = 4, bn = 25, bw = 3;
  SparsityPattern p(blocks * bn, blocks * bn);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (std::size_t blk = 0; blk < blocks; ++blk)
    for (std::size_t i = 0; i < bn; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(bn - 1, i + bw); ++j)
        p.add(blk * bn + i, blk * bn + j);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t blk = 0; blk < blocks; ++blk)
    for (std::size_t i = 0; i < bn; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(bn - 1, i + bw); ++j)
        a.add(blk * bn + i, blk * bn + j, i == j ? 15.0 : dist(rng));

  Vec xref(blocks * bn), b(blocks * bn);
  for (std::size_t i = 0; i < xref.size(); ++i) xref[i] = dist(rng);
  a.mult(xref, b);

  BlockBandSolver cpu;
  cpu.analyze(a);
  cpu.factor(a);
  Vec x_cpu(xref.size());
  cpu.solve(b, x_cpu);

  exec::ThreadPool pool(2);
  DeviceBlockBandSolver dev(pool);
  dev.analyze(a);
  EXPECT_EQ(dev.n_blocks(), blocks);
  dev.factor(a);
  Vec x_dev(xref.size());
  dev.solve(b, x_dev);

  for (std::size_t i = 0; i < xref.size(); ++i) {
    EXPECT_NEAR(x_cpu[i], xref[i], 1e-10);
    EXPECT_NEAR(x_dev[i], x_cpu[i], 1e-12);
  }
}

TEST(DeviceBand, CountersRecordFactorWork) {
  exec::ThreadPool pool(1);
  BandMatrix a = random_band(50, 4, 3);
  BandMatrix* ptr = &a;
  exec::KernelCounters counters;
  device_band_factor(pool, {&ptr, 1}, &counters);
  EXPECT_GT(counters.flops.load(), 0);
}

TEST(DeviceBand, NanMatrixFactorThrowsAndRefactorRecovers) {
  // Mirrors BlockBandSolver.NanMatrixFactorThrowsAndRefactorRecovers on a
  // two-worker pool: the NaN pivot throws on a worker, reaches the caller,
  // and the solver refactors clean values afterwards.
  const std::size_t blocks = 3, bn = 11, bw = 1;
  SparsityPattern p(blocks * bn, blocks * bn);
  for (std::size_t blk = 0; blk < blocks; ++blk)
    for (std::size_t i = 0; i < bn; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(bn - 1, i + bw); ++j)
        p.add(blk * bn + i, blk * bn + j);
  p.compress();
  CsrMatrix a(p);
  std::mt19937 rng(53);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t blk = 0; blk < blocks; ++blk)
    for (std::size_t i = 0; i < bn; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(bn - 1, i + bw); ++j)
        a.add(blk * bn + i, blk * bn + j, i == j ? 10.0 : dist(rng));

  exec::ThreadPool pool(2);
  DeviceBlockBandSolver solver(pool);
  solver.analyze(a);

  auto poisoned = a;
  poisoned.values()[poisoned.values().size() / 2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver.factor(poisoned), landau::Error);

  solver.factor(a);
  const std::size_t n = blocks * bn;
  Vec xref(n), b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) xref[i] = 1.0 + 0.1 * static_cast<double>(i);
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}
