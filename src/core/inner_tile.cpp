// Built with -fno-math-errno (so lane_sqrt vectorizes) and -ffp-contract=off
// (so no multiply-add fuses at any width); see src/CMakeLists.txt.

#include "core/inner_tile.h"

#include "util/error.h"
#include "util/simd.h"

namespace landau::detail {

namespace {

double fold8(const double* p) {
  return ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
}

using lanes::load;
using lanes::store;

/// One chunk at lane type V: slots [g W, g W + W) form lane group g.
template <class V>
[[gnu::always_inline]] inline void tile_lanes(double ri, double zi, const InnerSource& src,
                                              InnerSlots* slots) {
  constexpr int W = lanes::kWidth<V>;
  V vri{}, vzi{};
  if constexpr (W == 1) {
    vri = ri;
    vzi = zi;
  } else {
    for (int l = 0; l < W; ++l) vri[l] = ri, vzi[l] = zi;
  }
  for (int k = 0; k < static_cast<int>(kIpChunk); k += W) {
    InnerSums<V> acc;
    load(slots->gk_r + k, &acc.gk_r);
    load(slots->gk_z + k, &acc.gk_z);
    load(slots->gd00 + k, &acc.gd00);
    load(slots->gd01 + k, &acc.gd01);
    load(slots->gd11 + k, &acc.gd11);
    V r{}, z{}, w{}, sdfr{}, sdfz{}, sf{};
    load(src.r + k, &r);
    load(src.z + k, &z);
    load(src.w + k, &w);
    load(src.sum_dfr + k, &sdfr);
    load(src.sum_dfz + k, &sdfz);
    load(src.sum_f + k, &sf);
    inner_pair(vri, vzi, r, z, w, sdfr, sdfz, sf, &acc);
    store(acc.gk_r, slots->gk_r + k);
    store(acc.gk_z, slots->gk_z + k);
    store(acc.gd00, slots->gd00 + k);
    store(acc.gd01, slots->gd01 + k);
    store(acc.gd11, slots->gd11 + k);
  }
}

void tile_w1(double ri, double zi, const InnerSource& src, InnerSlots* slots) {
  tile_lanes<double>(ri, zi, src, slots);
}

void tile_w2(double ri, double zi, const InnerSource& src, InnerSlots* slots) {
  tile_lanes<lanes::f64x2>(ri, zi, src, slots);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void tile_w4(double ri, double zi, const InnerSource& src,
                                             InnerSlots* slots) {
  tile_lanes<lanes::f64x4>(ri, zi, src, slots);
}
#endif

using TileFn = void (*)(double, double, const InnerSource&, InnerSlots*);

TileFn tile_at_width(int width) {
  switch (width) {
    case 1: return tile_w1;
    case 2: return tile_w2;
#if defined(__x86_64__)
    case 4:
      LANDAU_ASSERT(simd_variant() == SimdVariant::Avx2, "lane width 4 needs AVX2");
      return tile_w4;
#endif
  }
  LANDAU_THROW("inner_tile: no lane width " << width);
}

} // namespace

LANDAU_DEVICE InnerSlots& InnerSlots::operator+=(const InnerSlots& o) {
  for (std::size_t k = 0; k < kIpChunk; ++k) {
    gk_r[k] += o.gk_r[k];
    gk_z[k] += o.gk_z[k];
    gd00[k] += o.gd00[k];
    gd01[k] += o.gd01[k];
    gd11[k] += o.gd11[k];
  }
  return *this;
}

LANDAU_DEVICE InnerAccum InnerSlots::fold() const {
  InnerAccum g;
  g.gk_r = fold8(gk_r);
  g.gk_z = fold8(gk_z);
  g.gd00 = fold8(gd00);
  g.gd01 = fold8(gd01);
  g.gd11 = fold8(gd11);
  return g;
}

LANDAU_DEVICE void inner_tile(double ri, double zi, const InnerSource& src,
                              InnerSlots* slots) {
  static const TileFn fn = tile_at_width(simd_width());
  fn(ri, zi, src, slots);
}

void inner_tile_at_width(int width, double ri, double zi, const InnerSource& src,
                         InnerSlots* slots) {
  tile_at_width(width)(ri, zi, src, slots);
}

} // namespace landau::detail
