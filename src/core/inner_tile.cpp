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

/// Every lane of *v set to x.
template <class V> [[gnu::always_inline]] inline void splat(double x, V* v) {
  if constexpr (lanes::kWidth<V> == 1) {
    *v = x;
  } else {
    for (int l = 0; l < lanes::kWidth<V>; ++l) (*v)[l] = x;
  }
}

/// Slots [k, k + W) plus the pairs of tensors t with the sums of src at k.
template <class V>
[[gnu::always_inline]] inline void accumulate_lanes(int k, const TensorLanes<V>& t,
                                                    const SourceSums& src, InnerSlots* slots) {
  InnerSums<V> acc;
  load(slots->gk_r + k, &acc.gk_r);
  load(slots->gk_z + k, &acc.gk_z);
  load(slots->gd00 + k, &acc.gd00);
  load(slots->gd01 + k, &acc.gd01);
  load(slots->gd11 + k, &acc.gd11);
  V w{}, sdfr{}, sdfz{}, sf{};
  load(src.w + k, &w);
  load(src.sum_dfr + k, &sdfr);
  load(src.sum_dfz + k, &sdfz);
  load(src.sum_f + k, &sf);
  inner_accumulate(t, w, sdfr, sdfz, sf, &acc);
  store(acc.gk_r, slots->gk_r + k);
  store(acc.gk_z, slots->gk_z + k);
  store(acc.gd00, slots->gd00 + k);
  store(acc.gd01, slots->gd01 + k);
  store(acc.gd11, slots->gd11 + k);
}

/// One chunk at lane type V: slots [g W, g W + W) form lane group g.
template <class V>
[[gnu::always_inline]] inline void tile_lanes(double ri, double zi, const InnerSource& src,
                                              InnerSlots* slots) {
  V vri{}, vzi{};
  splat(ri, &vri);
  splat(zi, &vzi);
  for (int k = 0; k < static_cast<int>(kIpChunk); k += lanes::kWidth<V>) {
    V r{}, z{};
    load(src.r + k, &r);
    load(src.z + k, &z);
    TensorLanes<V> t{};
    landau_tensor_lanes(vri, vzi, r, z, &t);
    accumulate_lanes(k, t, src.sums, slots);
  }
}

/// tile_lanes with the tensors read from the table entry.
template <class V>
[[gnu::always_inline]] inline void table_lanes(const TensorChunk& tc, const SourceSums& src,
                                               InnerSlots* slots) {
  for (int k = 0; k < static_cast<int>(kIpChunk); k += lanes::kWidth<V>) {
    TensorLanes<V> t{};
    load(tc.uk00 + k, &t.uk00);
    load(tc.uk10 + k, &t.uk10);
    load(tc.ud00 + k, &t.ud00);
    load(tc.off + k, &t.off);
    load(tc.d11 + k, &t.d11);
    accumulate_lanes(k, t, src, slots);
  }
}

/// One table entry at lane type V.
template <class V>
[[gnu::always_inline]] inline void chunk_lanes(double ri, double zi, const double* r,
                                               const double* z, TensorChunk* out) {
  V vri{}, vzi{};
  splat(ri, &vri);
  splat(zi, &vzi);
  for (int k = 0; k < static_cast<int>(kIpChunk); k += lanes::kWidth<V>) {
    V rj{}, zj{};
    load(r + k, &rj);
    load(z + k, &zj);
    TensorLanes<V> t{};
    landau_tensor_lanes(vri, vzi, rj, zj, &t);
    store(t.uk00, out->uk00 + k);
    store(t.uk10, out->uk10 + k);
    store(t.ud00, out->ud00 + k);
    store(t.off, out->off + k);
    store(t.d11, out->d11 + k);
  }
}

// The helpers at the baseline widths W = 1 and 2, and at W = 4 in functions
// compiled for AVX2.
template <class V> void tile_at(double ri, double zi, const InnerSource& src, InnerSlots* s) {
  tile_lanes<V>(ri, zi, src, s);
}
template <class V> void table_at(const TensorChunk& t, const SourceSums& src, InnerSlots* s) {
  table_lanes<V>(t, src, s);
}
template <class V>
void chunk_at(double ri, double zi, const double* r, const double* z, TensorChunk* out) {
  chunk_lanes<V>(ri, zi, r, z, out);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void tile_w4(double ri, double zi, const InnerSource& src,
                                             InnerSlots* s) {
  tile_lanes<lanes::f64x4>(ri, zi, src, s);
}
__attribute__((target("avx2"))) void table_w4(const TensorChunk& t, const SourceSums& src,
                                              InnerSlots* s) {
  table_lanes<lanes::f64x4>(t, src, s);
}
__attribute__((target("avx2"))) void chunk_w4(double ri, double zi, const double* r,
                                              const double* z, TensorChunk* out) {
  chunk_lanes<lanes::f64x4>(ri, zi, r, z, out);
}
#endif

/// The three helpers at one lane width.
struct Helpers {
  void (*tile)(double, double, const InnerSource&, InnerSlots*);
  void (*table)(const TensorChunk&, const SourceSums&, InnerSlots*);
  void (*chunk)(double, double, const double*, const double*, TensorChunk*);
};

Helpers helpers_at_width(int width) {
  switch (width) {
    case 1: return {tile_at<double>, table_at<double>, chunk_at<double>};
    case 2: return {tile_at<lanes::f64x2>, table_at<lanes::f64x2>, chunk_at<lanes::f64x2>};
#if defined(__x86_64__)
    case 4:
      LANDAU_ASSERT(simd_variant() == SimdVariant::Avx2, "lane width 4 needs AVX2");
      return {tile_w4, table_w4, chunk_w4};
#endif
  }
  LANDAU_THROW("inner_tile: no lane width " << width);
}

/// The helpers at simd_width(), chosen once per process.
const Helpers& dispatched() {
  static const Helpers h = helpers_at_width(simd_width());
  return h;
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
  dispatched().tile(ri, zi, src, slots);
}

LANDAU_DEVICE void inner_tile_table(const TensorChunk& t, const SourceSums& src,
                                    InnerSlots* slots) {
  dispatched().table(t, src, slots);
}

void tensor_chunk(double ri, double zi, const double* r, const double* z, TensorChunk* out) {
  dispatched().chunk(ri, zi, r, z, out);
}

void inner_tile_at_width(int width, double ri, double zi, const InnerSource& src,
                         InnerSlots* slots) {
  helpers_at_width(width).tile(ri, zi, src, slots);
}

void inner_tile_table_at_width(int width, const TensorChunk& t, const SourceSums& src,
                               InnerSlots* slots) {
  helpers_at_width(width).table(t, src, slots);
}

void tensor_chunk_at_width(int width, double ri, double zi, const double* r, const double* z,
                           TensorChunk* out) {
  helpers_at_width(width).chunk(ri, zi, r, z, out);
}

} // namespace landau::detail
