#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "la/band_device.h"
#include "util/profiler.h"
#include "util/simd.h"

using namespace landau;
using namespace landau::la;

namespace {

/// A seeded diagonally dominant band of shape (n, lbw, ubw).
BandMatrix random_band(std::size_t n, std::size_t lbw, std::size_t ubw, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  BandMatrix b(n, lbw, ubw);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > lbw ? i - lbw : 0); j <= std::min(n - 1, i + ubw); ++j)
      b.at(i, j) = i == j ? 2.0 * static_cast<double>(lbw + ubw) + 2.0 : dist(rng);
  return b;
}

struct Shape {
  std::size_t n, lbw, ubw;
};

/// The host/device factor sweep: n of 0, 1 and less than a panel (8), one
/// band side zero, bands narrower than a tile, lbw != ubw, a species10 block
/// (1006 x 153), and 100 seeded shapes with n <= 300 and lbw, ubw < 40.
std::vector<Shape> sweep_shapes() {
  std::vector<Shape> s = {{0, 0, 0},      {0, 3, 2},     {1, 0, 0},    {1, 2, 5},
                          {5, 3, 1},      {7, 0, 6},     {7, 6, 0},    {8, 8, 8},
                          {9, 1, 1},      {17, 8, 8},    {40, 12, 12}, {60, 5, 5},
                          {200, 7, 7},    {250, 3, 30},  {300, 39, 0}, {300, 0, 39},
                          {1006, 153, 153}};
  std::mt19937 rng(2024);
  for (int k = 0; k < 100; ++k) {
    const std::size_t n = rng() % 301, lbw = rng() % 40, ubw = rng() % 40;
    s.push_back({n, lbw, ubw});
  }
  return s;
}

/// The outer-product factor's flop count, sum over k of
/// (imax - k)(1 + 2 (jmax - k)).
std::int64_t outer_product_flops(const Shape& s) {
  std::int64_t flops = 0;
  for (std::size_t k = 0; k < s.n; ++k) {
    const auto rows = static_cast<std::int64_t>(std::min(s.n - 1, k + s.lbw) - k);
    const auto cols = static_cast<std::int64_t>(std::min(s.n - 1, k + s.ubw) - k);
    flops += rows * (1 + 2 * cols);
  }
  return flops;
}

/// Every stored double of a and b has the same bit pattern (so +0 and -0
/// differ); reports the first difference.
void expect_same_bits(const BandMatrix& a, const BandMatrix& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t q = 0; q < a.data().size(); ++q)
    if (std::bit_cast<std::uint64_t>(a.data()[q]) != std::bit_cast<std::uint64_t>(b.data()[q])) {
      ADD_FAILURE() << "storage index " << q << " is " << a.data()[q] << ", not " << b.data()[q];
      return;
    }
}

} // namespace

TEST(DeviceBand, FactorMatchesSerialBitwise) {
  // The host factor is blocked (8-column panels, SIMD register tiles); the
  // device factor keeps the outer-product form of §III-G and is the oracle.
  // They must agree bit for bit at every lane width, and both must report
  // the outer-product flop count. About one in eight off-diagonal entries is
  // a signed zero, so an update the outer-product loop does not make (a zero
  // update on the band edge) changes a sign.
  exec::ThreadPool pool(2);
  std::vector<int> widths = {2};
  if (simd_variant() == SimdVariant::Avx2) widths.push_back(4);
  unsigned seed = 0;
  for (const Shape& s : sweep_shapes()) {
    SCOPED_TRACE(::testing::Message() << "n " << s.n << ", lbw " << s.lbw << ", ubw " << s.ubw);
    BandMatrix a = random_band(s.n, s.lbw, s.ubw, ++seed);
    std::mt19937 rng(seed);
    for (std::size_t i = 0; i < s.n; ++i)
      for (std::size_t j = (i > s.lbw ? i - s.lbw : 0); j <= std::min(s.n - 1, i + s.ubw); ++j)
        if (i != j && rng() % 8 == 0) a.at(i, j) = rng() % 2 == 0 ? 0.0 : -0.0;
    const std::int64_t flops = outer_product_flops(s);

    BandMatrix device = a;
    BandMatrix* ptr = &device;
    Profiler::instance().reset();
    device_band_factor(pool, {&ptr, 1});
    EXPECT_EQ(Profiler::instance().stats("la:band-factor").flops, flops);
    EXPECT_EQ(a.factor_flops(), flops);

    for (int w : widths) {
      SCOPED_TRACE(::testing::Message() << "W = " << w);
      BandMatrix host = a;
      detail::factor_lu_at_width(host, w);
      expect_same_bits(host, device);
    }
    SCOPED_TRACE(simd_variant_name());
    BandMatrix host = a;
    host.factor_lu();
    expect_same_bits(host, device);
  }
}

TEST(DeviceBand, SolveMatchesSerial) {
  exec::ThreadPool pool(2);
  BandMatrix a = random_band(80, 7, 7, 11);
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
    BandMatrix a = random_band(n, 3, 3, 100u + static_cast<unsigned>(k));
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
  BandMatrix a = random_band(50, 4, 4, 3);
  BandMatrix host = a;
  BandMatrix* ptr = &a;
  Profiler::instance().reset();
  device_band_factor(pool, {&ptr, 1});
  // 46 pivots with 4 rows and 4 columns beyond them, 46 * 4 * (1 + 2 * 4),
  // then 3 * 7 + 2 * 5 + 1 * 3 on the last four: 1690, as the host factor
  // reports. The band (50 rows of 9) is read and written once.
  const EventStats e = Profiler::instance().stats("la:band-factor");
  EXPECT_EQ(e.count, 1);
  EXPECT_EQ(e.flops, 1690);
  EXPECT_EQ(e.dram_bytes, 50 * 9 * 8 * 2);
  EXPECT_EQ(host.factor_flops(), 1690);
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
