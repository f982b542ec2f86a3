#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "la/band.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/rcm.h"
#include "util/simd.h"

using namespace landau::la;

namespace {

/// Random structurally-symmetric diagonally-dominant banded matrix.
CsrMatrix random_banded(std::size_t n, std::size_t bw, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  SparsityPattern p(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j) p.add(i, j);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j)
      a.add(i, j, i == j ? 4.0 * static_cast<double>(bw) + 1.0 : dist(rng));
  return a;
}

/// Block-diagonal matrix: `blocks` copies of a banded block, species-major —
/// the structure of the multi-species Landau Jacobian (§III-G).
CsrMatrix block_matrix(std::size_t blocks, std::size_t block_n, std::size_t bw, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = blocks * block_n;
  SparsityPattern p(n, n);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        p.add(b * block_n + i, b * block_n + j);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        a.add(b * block_n + i, b * block_n + j, i == j ? 10.0 : dist(rng));
  return a;
}

/// 27-point stencil on a k^3 grid numbered plane by plane (the uniform 3-D
/// velocity mesh's coupling), with `isolated` diagonal-only rows inserted at
/// the given positions of the numbering.
CsrMatrix grid27(std::size_t k, const std::vector<std::size_t>& isolated = {}) {
  const std::size_t n = k * k * k + isolated.size();
  std::vector<std::size_t> id; // grid node -> row
  for (std::size_t r = 0; r < n; ++r)
    if (std::find(isolated.begin(), isolated.end(), r) == isolated.end()) id.push_back(r);
  SparsityPattern p(n, n);
  for (std::size_t r : isolated) p.add(r, r);
  const auto node = [k](std::size_t x, std::size_t y, std::size_t z) { return (z * k + y) * k + x; };
  for (std::size_t z = 0; z < k; ++z)
    for (std::size_t y = 0; y < k; ++y)
      for (std::size_t x = 0; x < k; ++x)
        for (std::size_t c = 0; c < 27; ++c) {
          const std::size_t nx = x + c % 3, ny = y + c / 3 % 3, nz = z + c / 9; // offsets -1..1, shifted by 1
          if (nx == 0 || ny == 0 || nz == 0 || nx > k || ny > k || nz > k) continue;
          p.add(id[node(x, y, z)], id[node(nx - 1, ny - 1, nz - 1)]);
        }
  p.compress();
  return CsrMatrix(p);
}

/// A = L U with unit lower L and upper U of band width bw, their entries
/// seeded in {-1, 0, 1} and U(k,k) = 1 except U(p,p) = 0. Every step of the
/// elimination is exact in doubles, so the pivot at row p comes out exactly
/// zero, once the earlier panels' updates have reached it.
BandMatrix singular_at(std::size_t n, std::size_t bw, std::size_t p, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<double> l(n * n, 0.0), u(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    l[i * n + i] = 1.0;
    u[i * n + i] = i == p ? 0.0 : 1.0;
    for (std::size_t k = (i > bw ? i - bw : 0); k < i; ++k) {
      l[i * n + k] = static_cast<double>(static_cast<int>(rng() % 3) - 1);
      u[k * n + i] = static_cast<double>(static_cast<int>(rng() % 3) - 1);
    }
  }
  BandMatrix a(n, bw, bw);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j)
      for (std::size_t k = 0; k <= std::min(i, j); ++k) a.at(i, j) += l[i * n + k] * u[k * n + j];
  return a;
}

/// factor_lu, and the factor at each lane width, throws landau::Error naming
/// the bad pivot's row.
void expect_pivot_error_at(const BandMatrix& a, std::size_t row) {
  const std::string where = "at row " + std::to_string(row) + " ";
  std::vector<int> widths = {0, 2};
  if (landau::simd_variant() == landau::SimdVariant::Avx2) widths.push_back(4);
  for (int w : widths) {
    BandMatrix b = a;
    try {
      if (w == 0)
        b.factor_lu();
      else
        detail::factor_lu_at_width(b, w);
      ADD_FAILURE() << "no throw at W = " << w;
    } catch (const landau::Error& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << "W = " << w << ": " << e.what();
    }
  }
}

std::vector<std::int32_t> identity_order(std::size_t n) {
  std::vector<std::int32_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  return id;
}

} // namespace

TEST(Rcm, PermutationIsValid) {
  auto a = random_banded(30, 3, 1);
  auto perm = rcm_ordering(a);
  ASSERT_EQ(perm.size(), 30u);
  std::vector<bool> seen(30, false);
  for (auto p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 30);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
}

TEST(Rcm, ReducesBandwidthOfShuffledBandedMatrix) {
  // Take a banded matrix, scramble it with a random permutation, and verify
  // RCM recovers a bandwidth close to the original.
  auto a = random_banded(60, 2, 3);
  std::vector<std::int32_t> shuffle(60);
  for (std::size_t i = 0; i < 60; ++i) shuffle[i] = static_cast<std::int32_t>(i);
  std::shuffle(shuffle.begin(), shuffle.end(), std::mt19937(99));
  auto scrambled = permute_symmetric(a, shuffle);
  EXPECT_GT(scrambled.bandwidth(), 10u);
  auto perm = rcm_ordering(scrambled);
  EXPECT_LE(permuted_bandwidth(scrambled, perm), 6u);
}

TEST(Rcm, DetectsSpeciesBlocksAsComponents) {
  auto a = block_matrix(10, 19, 2, 5);
  std::int32_t nc = 0;
  auto comp = connected_components(a, &nc);
  EXPECT_EQ(nc, 10);
  EXPECT_EQ(comp[0], comp[18]);
  EXPECT_NE(comp[0], comp[19]);
}

TEST(Rcm, BandOrderingKeepsNaturalOrderOnlyWhenNarrowerAndContiguous) {
  // On the plane-by-plane 3-D grid RCM's corner-rooted level sets are wider
  // than a plane, so the band solvers keep the natural numbering.
  const auto a = grid27(6);
  const auto natural = identity_order(a.rows());
  ASSERT_LT(permuted_bandwidth(a, natural), permuted_bandwidth(a, rcm_ordering(a)));
  EXPECT_EQ(band_ordering(a), natural);

  // Scrambled, the natural numbering is wide: RCM is kept.
  std::vector<std::int32_t> shuffle = natural;
  std::shuffle(shuffle.begin(), shuffle.end(), std::mt19937(7));
  const auto scrambled = permute_symmetric(a, shuffle);
  EXPECT_EQ(band_ordering(scrambled), rcm_ordering(scrambled));

  // An isolated row inside the numbering splits the grid's component in two
  // runs: still narrower than RCM, but block discovery needs RCM's
  // contiguous components.
  const auto split = grid27(6, {100});
  const auto split_natural = identity_order(split.rows());
  ASSERT_LT(permuted_bandwidth(split, split_natural),
            permuted_bandwidth(split, rcm_ordering(split)));
  EXPECT_EQ(band_ordering(split), rcm_ordering(split));
  EXPECT_EQ(discover_blocks(split, band_ordering(split)).size(), 2u);
}

TEST(Band, InBandPredicate) {
  BandMatrix b(5, 1, 2);
  EXPECT_TRUE(b.in_band(2, 1));
  EXPECT_TRUE(b.in_band(2, 4));
  EXPECT_FALSE(b.in_band(2, 0));
  EXPECT_FALSE(b.in_band(0, 3));
}

class BandLUSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BandLUSweep, MatchesDenseLUOnRandomSystems) {
  const auto [n, bw] = GetParam();
  auto a = random_banded(static_cast<std::size_t>(n), static_cast<std::size_t>(bw),
                         static_cast<unsigned>(n * 100 + bw));
  // Identity permutation: matrix is already banded.
  std::vector<std::int32_t> identity(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) identity[static_cast<std::size_t>(i)] = i;
  auto band = BandMatrix::from_csr(a, identity, 0, static_cast<std::size_t>(n));
  EXPECT_LE(band.lower_bandwidth(), static_cast<std::size_t>(bw));

  Vec xref(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xref[static_cast<std::size_t>(i)] = std::cos(static_cast<double>(i));
  a.mult(xref, b);

  band.factor_lu();
  Vec x(static_cast<std::size_t>(n));
  band.solve(b, x);

  DenseLU dense(a.to_dense());
  Vec xd(static_cast<std::size_t>(n));
  dense.solve(b, xd);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xd[static_cast<std::size_t>(i)], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(SizesAndBandwidths, BandLUSweep,
                         ::testing::Combine(::testing::Values(5, 20, 64, 150),
                                            ::testing::Values(1, 3, 7)));
// Bands of a panel (8 columns) and wider, which reach the register tiles.
INSTANTIATE_TEST_SUITE_P(TileBandwidths, BandLUSweep,
                         ::testing::Combine(::testing::Values(20, 64, 150),
                                            ::testing::Values(12, 40)));

TEST(Band, FactorReportsFlopCount) {
  auto a = random_banded(20, 2, 11);
  std::vector<std::int32_t> identity(20);
  for (int i = 0; i < 20; ++i) identity[static_cast<std::size_t>(i)] = i;
  auto band = BandMatrix::from_csr(a, identity, 0, 20);
  // The outer-product count, sum over k of (imax - k)(1 + 2 (jmax - k)): 18
  // pivots with 2 rows and 2 columns beyond them, 18 * 2 * (1 + 2 * 2), then
  // 1 * (1 + 2 * 1) at k = 18.
  band.factor_lu();
  EXPECT_EQ(band.factor_flops(), 183);
}

TEST(Band, ZeroPivotThrows) {
  BandMatrix b(3, 1, 1);
  b.at(0, 0) = 1.0;
  b.at(1, 1) = 0.0; // becomes the pivot after the first elimination step
  b.at(2, 2) = 1.0;
  EXPECT_THROW(b.factor_lu(), landau::Error);
  // The zero pivot at row 27 of a 40 x 40 band of width 12 forms only once
  // the earlier panels' updates reach it, the register tiles of the panel
  // [16, 24) among them.
  expect_pivot_error_at(singular_at(40, 12, 27, 5), 27);
}

TEST(Band, NanPivotThrowsInsteadOfPropagating) {
  // A NaN pivot fails every < comparison, so a naive |piv| < eps check lets
  // it through and the factorization silently fills with NaNs; the negated
  // check must throw instead.
  BandMatrix b(3, 1, 1);
  b.at(0, 0) = 1.0;
  b.at(1, 1) = std::numeric_limits<double>::quiet_NaN();
  b.at(2, 2) = 1.0;
  EXPECT_THROW(b.factor_lu(), landau::Error);
  // A NaN at (20, 27) of a 40 x 40 band of width 12 reaches no pivot before
  // row 27; the register tiles of the panel [16, 24) carry it onto that one.
  BandMatrix wide = BandMatrix::from_csr(random_banded(40, 12, 9), identity_order(40), 0, 40);
  wide.at(20, 27) = std::numeric_limits<double>::quiet_NaN();
  expect_pivot_error_at(wide, 27);
}

TEST(Band, FromCsrRejectsCrossBlockCoupling) {
  // Extracting a block range that truncates couplings must be caught, not
  // silently dropped.
  SparsityPattern p(4, 4);
  for (std::size_t i = 0; i < 4; ++i) p.add(i, i);
  p.add(1, 3); // couples "block" [0,2) to [2,4)
  p.add(3, 1);
  p.compress();
  CsrMatrix a(p);
  for (std::size_t i = 0; i < 4; ++i) a.add(i, i, 1.0);
  a.add(1, 3, 0.5);
  a.add(3, 1, 0.5);
  std::vector<std::int32_t> identity = {0, 1, 2, 3};
  EXPECT_THROW(BandMatrix::from_csr(a, identity, 0, 2), landau::Error);
}

TEST(Band, MultNotValidAfterFactorButBeforeIsExact) {
  auto a = random_banded(12, 2, 77);
  std::vector<std::int32_t> identity(12);
  for (int i = 0; i < 12; ++i) identity[static_cast<std::size_t>(i)] = i;
  auto band = BandMatrix::from_csr(a, identity, 0, 12);
  Vec x(12, 1.0), y1(12), y2(12);
  band.mult(x, y1);
  a.mult(x, y2);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(BlockBandSolver, SolvesMultiSpeciesBlockSystem) {
  auto a = block_matrix(10, 19, 2, 17); // 10 species, 19 dofs each
  BlockBandSolver solver;
  solver.analyze(a);
  EXPECT_EQ(solver.n_blocks(), 10u);
  solver.factor(a);

  Vec xref(190), b(190), x(190);
  for (std::size_t i = 0; i < 190; ++i) xref[i] = std::sin(0.1 * static_cast<double>(i));
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < 190; ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST(BlockBandSolver, RefactorWithNewValuesSamePattern) {
  auto a = block_matrix(3, 15, 2, 23);
  BlockBandSolver solver;
  solver.analyze(a);
  solver.factor(a);
  // Change values (same pattern), refactor, and verify the new solve.
  for (auto& v : a.values()) v *= 2.0;
  solver.factor(a);
  Vec xref(45), b(45), x(45);
  for (std::size_t i = 0; i < 45; ++i) xref[i] = 1.0 + static_cast<double>(i % 5);
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < 45; ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST(BlockBandSolver, SolveWithAliasedOutputMatchesSeparateOutput) {
  // Documented contract: solve(b, x) may be called with x aliasing b — every
  // block gathers its rhs into private workspace before any result is
  // scattered. The controller's retry path relies on this.
  auto a = block_matrix(4, 17, 2, 41);
  BlockBandSolver solver;
  solver.analyze(a);
  solver.factor(a);
  const std::size_t n = 4 * 17;
  Vec b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(0.3 * static_cast<double>(i));
  solver.solve(b, x);
  Vec inplace = b;
  solver.solve(inplace, inplace);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(inplace[i], x[i]);
}

TEST(BlockBandSolver, NanMatrixFactorThrowsAndRefactorRecovers) {
  auto a = block_matrix(3, 11, 1, 53);
  BlockBandSolver solver;
  solver.analyze(a);

  auto poisoned = a;
  poisoned.values()[poisoned.values().size() / 2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver.factor(poisoned), landau::Error);

  // The solver object must stay usable: refactor with clean values and solve.
  solver.factor(a);
  const std::size_t n = 3 * 11;
  Vec xref(n), b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) xref[i] = 1.0 + 0.1 * static_cast<double>(i);
  a.mult(xref, b);
  solver.solve(b, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST(BlockBandSolver, BandwidthReflectsRcm) {
  auto a = random_banded(40, 3, 31);
  BlockBandSolver solver;
  solver.analyze(a);
  EXPECT_LE(solver.bandwidth(), 8u);
}
