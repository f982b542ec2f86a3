// The SIMD inner integral (core/inner_tile.h): every lane width fills the
// eight slots bit for bit alike, and each slot is the scalar reference pair
// (inner_point) accumulated over that slot's source points. The pair-tensor
// table's entries are landau_tensor_2d's values, and reading them gives the
// recomputing helper's slots, at every width.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/inner_tile.h"
#include "util/simd.h"

using namespace landau;
using namespace landau::detail;

namespace {

/// Field points: generic, near the axis (every pair has s < 1e-3), and one
/// that coincides with source point 3 of every tile.
constexpr double kField[][2] = {{1.3, 0.4}, {2e-4, -0.7}, {0.9, -1.1}};

/// A seeded tile of n source points whose last n - n_real are zero-weight
/// padding (r = z = w = 0, as IPData pads). Point 3 sits on the field point
/// (0.9, -1.1), points 5 and 6 near the axis.
struct Tile {
  std::vector<double> r, z, w, sdfr, sdfz, sf;
  std::size_t n_chunks() const { return r.size() / kIpChunk; }
  /// The source points of chunk c.
  InnerSource chunk(std::size_t c) const {
    const std::size_t k = c * kIpChunk;
    return {r.data() + k, z.data() + k, w.data() + k, sdfr.data() + k, sdfz.data() + k,
            sf.data() + k};
  }
};

Tile make_tile(std::size_t n, std::size_t n_real, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ur(0.05, 4.0), uz(-4.0, 4.0), uw(0.0, 1.0),
      us(-1.0, 1.0);
  Tile t;
  for (auto* v : {&t.r, &t.z, &t.w, &t.sdfr, &t.sdfz, &t.sf}) v->assign(n, 0.0);
  for (std::size_t j = 0; j < n_real; ++j) {
    t.r[j] = ur(rng);
    t.z[j] = uz(rng);
    t.w[j] = uw(rng);
    t.sdfr[j] = us(rng);
    t.sdfz[j] = us(rng);
    t.sf[j] = us(rng);
  }
  t.r[3] = kField[2][0];
  t.z[3] = kField[2][1];
  t.r[5] = 1e-5;
  t.r[6] = 3e-4;
  return t;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every slot of a and b, bit for bit.
void expect_same_slots(const InnerSlots& a, const InnerSlots& b, const char* what) {
  for (std::size_t k = 0; k < kIpChunk; ++k) {
    EXPECT_EQ(bits(a.gk_r[k]), bits(b.gk_r[k])) << what << " gk_r slot " << k;
    EXPECT_EQ(bits(a.gk_z[k]), bits(b.gk_z[k])) << what << " gk_z slot " << k;
    EXPECT_EQ(bits(a.gd00[k]), bits(b.gd00[k])) << what << " gd00 slot " << k;
    EXPECT_EQ(bits(a.gd01[k]), bits(b.gd01[k])) << what << " gd01 slot " << k;
    EXPECT_EQ(bits(a.gd11[k]), bits(b.gd11[k])) << what << " gd11 slot " << k;
  }
}

} // namespace

TEST(InnerTile, AllWidthsAgreeBitwise) {
  const bool avx2 = simd_variant() == SimdVariant::Avx2;
  for (unsigned seed = 1; seed <= 4; ++seed) {
    const Tile t = make_tile(64, 59, seed);
    for (const auto& f : kField) {
      InnerSlots w1, w2, w4, dispatched;
      for (std::size_t c = 0; c < t.n_chunks(); ++c) {
        const InnerSource s = t.chunk(c);
        inner_tile_at_width(1, f[0], f[1], s, &w1);
        inner_tile_at_width(2, f[0], f[1], s, &w2);
        if (avx2) inner_tile_at_width(4, f[0], f[1], s, &w4);
        inner_tile(f[0], f[1], s, &dispatched);
      }
      expect_same_slots(w1, w2, "W=2 vs W=1");
      if (avx2) expect_same_slots(w1, w4, "W=4 vs W=1");
      expect_same_slots(w1, dispatched, simd_variant_name());
      EXPECT_TRUE(std::isfinite(w1.fold().gd00));
      EXPECT_NE(w1.fold().gd00, 0.0);
    }
  }
}

TEST(InnerTile, MatchesScalarInnerPoint) {
  const std::size_t n = 48;
  for (unsigned seed = 11; seed <= 13; ++seed) {
    const Tile t = make_tile(n, 45, seed);
    for (const auto& f : kField) {
      InnerSlots slots;
      for (std::size_t c = 0; c < t.n_chunks(); ++c) inner_tile(f[0], f[1], t.chunk(c), &slots);
      // The scalar reference: inner_point per pair, point 8c + k into slot k.
      InnerSlots ref;
      for (std::size_t k = 0; k < kIpChunk; ++k) {
        InnerAccum acc;
        for (std::size_t j = k; j < n; j += kIpChunk)
          inner_point(f[0], f[1], t.r[j], t.z[j], t.w[j], t.sdfr[j], t.sdfz[j], t.sf[j], &acc);
        ref.gk_r[k] = acc.gk_r;
        ref.gk_z[k] = acc.gk_z;
        ref.gd00[k] = acc.gd00;
        ref.gd01[k] = acc.gd01;
        ref.gd11[k] = acc.gd11;
      }
      expect_same_slots(slots, ref, "helper vs inner_point");
      // The fold is ((p0+p4)+(p2+p6))+((p1+p5)+(p3+p7)).
      const double* p = ref.gd01;
      const double tree = ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
      EXPECT_EQ(bits(slots.fold().gd01), bits(tree));
    }
  }
}

TEST(InnerTile, TableFillMatchesScalarTensorBitwise) {
  // tensor_chunk at W = 1, 2 and 4 stores, per pair, the five entries
  // landau_tensor_2d gives for it: U^K = [uk00, off; uk10, d11] and
  // U^D = [ud00, off; off, d11].
  std::vector<int> widths{1, 2};
  if (simd_variant() == SimdVariant::Avx2) widths.push_back(4);
  for (unsigned seed = 21; seed <= 23; ++seed) {
    const Tile t = make_tile(32, 29, seed);
    for (const auto& f : kField)
      for (std::size_t c = 0; c < t.n_chunks(); ++c) {
        const std::size_t j0 = c * kIpChunk;
        TensorChunk dispatched;
        tensor_chunk(f[0], f[1], t.r.data() + j0, t.z.data() + j0, &dispatched);
        for (const int w : widths) {
          TensorChunk tc;
          tensor_chunk_at_width(w, f[0], f[1], t.r.data() + j0, t.z.data() + j0, &tc);
          for (std::size_t k = 0; k < kIpChunk; ++k) {
            Tensor2 uk, ud;
            landau_tensor_2d(f[0], f[1], t.r[j0 + k], t.z[j0 + k], &uk, &ud);
            SCOPED_TRACE(testing::Message() << "W=" << w << " pair " << j0 + k);
            EXPECT_EQ(bits(tc.uk00[k]), bits(uk.m[0][0]));
            EXPECT_EQ(bits(tc.uk10[k]), bits(uk.m[1][0]));
            EXPECT_EQ(bits(tc.ud00[k]), bits(ud.m[0][0]));
            EXPECT_EQ(bits(tc.off[k]), bits(uk.m[0][1]));
            EXPECT_EQ(bits(tc.off[k]), bits(ud.m[1][0]));
            EXPECT_EQ(bits(tc.d11[k]), bits(uk.m[1][1]));
            EXPECT_EQ(bits(dispatched.d11[k]), bits(tc.d11[k]));
          }
        }
      }
  }
}

TEST(InnerTile, TableHelperMatchesRecomputeAtEveryWidth) {
  // inner_tile_table over tensor_chunk's entries fills the slots inner_tile
  // fills from the coordinates, bit for bit, at every width.
  std::vector<int> widths{1, 2};
  if (simd_variant() == SimdVariant::Avx2) widths.push_back(4);
  for (unsigned seed = 31; seed <= 33; ++seed) {
    const Tile t = make_tile(64, 59, seed);
    for (const auto& f : kField) {
      InnerSlots recompute_dispatched, table_dispatched;
      for (std::size_t c = 0; c < t.n_chunks(); ++c) {
        TensorChunk tc;
        tensor_chunk(f[0], f[1], t.r.data() + c * kIpChunk, t.z.data() + c * kIpChunk, &tc);
        inner_tile(f[0], f[1], t.chunk(c), &recompute_dispatched);
        inner_tile_table(tc, t.chunk(c).sums, &table_dispatched);
      }
      expect_same_slots(table_dispatched, recompute_dispatched, simd_variant_name());
      for (const int w : widths) {
        InnerSlots recompute, table;
        for (std::size_t c = 0; c < t.n_chunks(); ++c) {
          TensorChunk tc;
          tensor_chunk_at_width(w, f[0], f[1], t.r.data() + c * kIpChunk,
                                t.z.data() + c * kIpChunk, &tc);
          inner_tile_at_width(w, f[0], f[1], t.chunk(c), &recompute);
          inner_tile_table_at_width(w, tc, t.chunk(c).sums, &table);
        }
        expect_same_slots(table, recompute, w == 1 ? "W=1" : w == 2 ? "W=2" : "W=4");
        expect_same_slots(table, table_dispatched, "table at W vs dispatched");
      }
    }
  }
}
