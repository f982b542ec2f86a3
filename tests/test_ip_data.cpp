#include <gtest/gtest.h>

#include <cmath>

#include "core/operator.h"
#include "util/special_math.h"

using namespace landau;

namespace {

/// One grid of radius 4 shared by `n_species` electron-like species.
LandauOperator make_operator(int n_species) {
  std::vector<Species> list(static_cast<std::size_t>(n_species), Species{.name = "e"});
  LandauOptions opts;
  opts.radius = 4.0;
  opts.cells_per_thermal = 0.8;
  opts.max_levels = 3;
  return LandauOperator(SpeciesSet(std::move(list)), opts);
}

} // namespace

TEST(IPData, PackLayoutAndSizes) {
  auto op = make_operator(2);
  op.pack(op.project([](int s, double r, double z) { return s == 0 ? r + z : r - z; }));
  const IPData& ip = op.ip_data();
  EXPECT_EQ(ip.n, op.space().n_ips());
  EXPECT_EQ(ip.n_species, 2);
  EXPECT_EQ(ip.f.size(), 2 * ip.n);
  EXPECT_GT(ip.bytes(), 0u);
}

TEST(IPData, WeightsIncludeCylindricalFactor) {
  // sum_j w_j = \int r dr dz over the domain (measure without 2 pi).
  auto op = make_operator(1);
  op.pack(op.project([](int, double, double) { return 1.0; }));
  const IPData& ip = op.ip_data();
  double sum = 0;
  for (std::size_t j = 0; j < ip.n; ++j) sum += ip.w[j];
  // \int_0^4 r dr * \int_{-4}^{4} dz = 8 * 8 = 64.
  EXPECT_NEAR(sum, 64.0, 1e-9);
}

TEST(IPData, ValuesAndGradientsMatchFunction) {
  auto op = make_operator(1);
  auto fn = [](double r, double z) { return r * r - 0.5 * z * r + 2.0; };
  op.pack(op.project([&](int, double r, double z) { return fn(r, z); }));
  const IPData& ip = op.ip_data();
  for (std::size_t j = 0; j < ip.n; ++j) {
    EXPECT_NEAR(ip.f_at(0, j), fn(ip.r[j], ip.z[j]), 1e-10);
    EXPECT_NEAR(ip.dfr_at(0, j), 2 * ip.r[j] - 0.5 * ip.z[j], 1e-9);
    EXPECT_NEAR(ip.dfz_at(0, j), -0.5 * ip.r[j], 1e-9);
  }
}

TEST(IPData, SpeciesMajorAddressing) {
  auto op = make_operator(2);
  op.pack(op.project([](int s, double, double) { return s == 0 ? 3.0 : 7.0; }));
  const IPData& ip = op.ip_data();
  for (std::size_t j = 0; j < ip.n; j += 7) {
    EXPECT_NEAR(ip.f_at(0, j), 3.0, 1e-12);
    EXPECT_NEAR(ip.f_at(1, j), 7.0, 1e-12);
  }
}

TEST(IPData, SpeciesSumsMatchPerSpeciesRecomputation) {
  // The kernels read a source point's species only through pack's sums; each
  // must be bitwise the species-order sum with the Species coefficients.
  SpeciesSet species({{.name = "e", .mass = 1.0, .charge = -1.0},
                      {.name = "D", .mass = 3.7, .charge = 1.0},
                      {.name = "Z3", .mass = 11.3, .charge = 3.0}});
  LandauOptions opts;
  opts.radius = 4.0;
  opts.cells_per_thermal = 0.8;
  opts.max_levels = 3;
  LandauOperator op(species, opts);
  op.pack(op.project([](int s, double r, double z) {
    return (1.0 + s) * std::exp(-(r * r + (z - 0.3 * s) * (z - 0.3 * s)));
  }));
  const IPData& ip = op.ip_data();
  ASSERT_EQ(ip.sum_f.size(), ip.n_padded());
  for (std::size_t j = 0; j < ip.n; ++j) {
    double sum_dfr = 0, sum_dfz = 0, sum_f = 0;
    for (int b = 0; b < ip.n_species; ++b) {
      sum_dfr += species[b].q2_over_m() * ip.dfr_at(b, j);
      sum_dfz += species[b].q2_over_m() * ip.dfz_at(b, j);
      sum_f += species[b].q2() * ip.f_at(b, j);
    }
    EXPECT_EQ(ip.sum_dfr[j], sum_dfr) << "j=" << j;
    EXPECT_EQ(ip.sum_dfz[j], sum_dfz) << "j=" << j;
    EXPECT_EQ(ip.sum_f[j], sum_f) << "j=" << j;
  }
}

TEST(IPData, StreamedArraysArePaddedWithZeroWeightPoints) {
  // The six arrays the kernels stream end on a whole SIMD chunk; the padding
  // points carry nothing. n stays the real count.
  auto op = make_operator(2);
  op.pack(op.project([](int, double r, double z) { return 1.0 + r * z; }));
  const IPData& ip = op.ip_data();
  EXPECT_EQ(ip.n, op.space().n_ips());
  EXPECT_EQ(ip.n_padded() % kIpChunk, 0u);
  EXPECT_LT(ip.n_padded() - ip.n, kIpChunk);
  for (const auto* v : {&ip.r, &ip.z, &ip.w, &ip.sum_dfr, &ip.sum_dfz, &ip.sum_f}) {
    ASSERT_EQ(v->size(), ip.n_padded());
    for (std::size_t j = ip.n; j < ip.n_padded(); ++j) EXPECT_EQ((*v)[j], 0.0);
  }
}

TEST(IPData, MismatchedStateSizeThrows) {
  auto op = make_operator(1);
  EXPECT_THROW(op.pack(la::Vec(3)), landau::Error);
}
