#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/landau_tensor.h"
#include "util/special_math.h"

using landau::elliptic_ke_poly;
using landau::kPi;
using landau::maxwellian_rz;

namespace {

/// K and E of parameter m = 1 - m1 by a long double AGM that takes m1
/// directly (b0 = sqrt(m1)) and forms c_{n+1} = c_n^2 / (4 a_{n+1}), so
/// nothing cancels: well under one double ulp from the exact values.
void reference_ke(long double m1, long double* K, long double* E) {
  long double a = 1.0L, b = std::sqrt(m1), c = std::sqrt(1.0L - m1);
  long double sum = 0.5L * c * c, pow2 = 0.5L;
  for (int n = 0; n < 64 && c > 1e-21L * a; ++n) {
    const long double an = 0.5L * (a + b);
    b = std::sqrt(a * b);
    c = c * c / (4.0L * an);
    a = an;
    pow2 *= 2.0L;
    sum += pow2 * c * c;
  }
  *K = 3.14159265358979323846264338327950288L / (2.0L * a);
  *E = *K * (1.0L - sum);
}

/// |x - ref| in units of the double ulp at ref.
double ulps(double x, long double ref) {
  const double r = std::abs(static_cast<double>(ref));
  const double ulp = std::nextafter(r, std::numeric_limits<double>::infinity()) - r;
  return static_cast<double>(std::abs(x - ref) / ulp);
}

/// The K/E parameter sweep, m1 in [1e-300, 1]: log-spaced to follow the
/// logarithmic singularity of K at m1 -> 0 (nearby points), then uniform.
template <class F> void sweep_m1(F&& check) {
  const int n = 100000;
  for (int i = 0; i <= n; ++i) check(std::pow(10.0, -300.0 * i / n));
  for (int i = 0; i < n; ++i) check((i + 0.5) / n);
}

/// Worst K and E error in ulp over the given parameters.
struct WorstUlps {
  double k = 0, e = 0, k_at = 0, e_at = 0;
  void add(double k_ulps, double e_ulps, double at) {
    if (k_ulps > k) k = k_ulps, k_at = at;
    if (e_ulps > e) e = e_ulps, e_at = at;
  }
};

} // namespace

TEST(Elliptic, KnownValuesAtZero) {
  double K, E;
  elliptic_ke_poly(1.0, &K, &E); // m = 0
  EXPECT_NEAR(K, kPi / 2, 1e-15);
  EXPECT_NEAR(E, kPi / 2, 1e-15);
}

TEST(Elliptic, ReferenceValueAtHalf) {
  // K(0.5) = 1.85407467730137..., E(0.5) = 1.35064388104768... (parameter m).
  double K, E;
  elliptic_ke_poly(0.5, &K, &E);
  EXPECT_NEAR(K, 1.8540746773013719, 1e-12);
  EXPECT_NEAR(E, 1.3506438810476755, 1e-12);
}

TEST(Elliptic, LegendreRelation) {
  // E(m)K(1-m) + E(1-m)K(m) - K(m)K(1-m) = pi/2 for all m in (0,1).
  for (double m : {0.1, 0.3, 0.5, 0.77, 0.93}) {
    double K1, E1, K2, E2;
    elliptic_ke_poly(1.0 - m, &K1, &E1);
    elliptic_ke_poly(m, &K2, &E2);
    EXPECT_NEAR(E1 * K2 + E2 * K1 - K1 * K2, kPi / 2, 1e-12) << "m=" << m;
  }
}

TEST(Elliptic, AgreesWithDirectQuadrature) {
  // Compare with midpoint quadrature of the defining integrals.
  for (double m : {0.05, 0.25, 0.6, 0.9, 0.99}) {
    const int n = 200000;
    double Kq = 0.0, Eq = 0.0;
    for (int i = 0; i < n; ++i) {
      const double t = (i + 0.5) * (kPi / 2) / n;
      const double s = 1.0 - m * std::sin(t) * std::sin(t);
      Kq += 1.0 / std::sqrt(s);
      Eq += std::sqrt(s);
    }
    Kq *= (kPi / 2) / n;
    Eq *= (kPi / 2) / n;
    double K, E;
    elliptic_ke_poly(1.0 - m, &K, &E);
    EXPECT_NEAR(K, Kq, 1e-8) << "m=" << m;
    EXPECT_NEAR(E, Eq, 1e-8) << "m=" << m;
  }
}

TEST(Elliptic, NearOneLimitFinite) {
  double K, E;
  elliptic_ke_poly(1e-12, &K, &E); // m = 1 - 1e-12
  EXPECT_TRUE(std::isfinite(K));
  EXPECT_NEAR(E, 1.0, 1e-5); // E(1) = 1
  EXPECT_GT(K, 10.0);        // K diverges logarithmically
}

TEST(Elliptic, PolynomialWithin4UlpOfReference) {
  // The kernels' K and E over the m1 sweep.
  WorstUlps worst;
  sweep_m1([&](double m1) {
    long double K_ref, E_ref;
    reference_ke(m1, &K_ref, &E_ref);
    double K, E;
    elliptic_ke_poly(m1, &K, &E);
    worst.add(ulps(K, K_ref), ulps(E, E_ref), m1);
  });
  EXPECT_LE(worst.k, 4.0) << "at m1=" << worst.k_at;
  EXPECT_LE(worst.e, 4.0) << "at m1=" << worst.e_at;

  double K, E;
  elliptic_ke_poly(1.0, &K, &E);
  EXPECT_EQ(K, kPi / 2);
  EXPECT_EQ(E, kPi / 2);
}

TEST(Elliptic, InlineLogWithin1UlpOfLongDouble) {
  // K and E take log(m1) from the branch-free lane_log, not std::log.
  double worst = 0, worst_at = 0;
  sweep_m1([&](double m1) {
    double l;
    landau::lane_log(m1, &l);
    const double u = ulps(l, std::log(static_cast<long double>(m1)));
    if (u > worst) worst = u, worst_at = m1;
  });
  EXPECT_LE(worst, 1.0) << "at m1=" << worst_at;
  // log(1) is +0 exactly, which keeps K = E = pi/2 exact at m1 = 1.
  double l;
  landau::lane_log(1.0, &l);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(l), 0u);
}

TEST(Maxwellian, NormalizationIn3V) {
  // \int f d^3v = n with d^3v = 2 pi r dr dz: check by quadrature.
  const double n0 = 2.5, theta = 0.7;
  const int nr = 400, nz = 800;
  const double rmax = 8.0, zmax = 8.0;
  double sum = 0.0;
  for (int i = 0; i < nr; ++i)
    for (int j = 0; j < nz; ++j) {
      const double r = (i + 0.5) * rmax / nr;
      const double z = -zmax + (j + 0.5) * 2 * zmax / nz;
      sum += 2 * kPi * r * maxwellian_rz(r, z, n0, theta) * (rmax / nr) * (2 * zmax / nz);
    }
  EXPECT_NEAR(sum, n0, 5e-4 * n0); // midpoint-rule truncation dominates
}

TEST(Maxwellian, EnergyMoment) {
  // \int v^2 f d^3v = (3/2) n theta for this parameterization.
  const double n0 = 1.0, theta = 1.3;
  const int nr = 400, nz = 800;
  const double rmax = 10.0, zmax = 10.0;
  double sum = 0.0;
  for (int i = 0; i < nr; ++i)
    for (int j = 0; j < nz; ++j) {
      const double r = (i + 0.5) * rmax / nr;
      const double z = -zmax + (j + 0.5) * 2 * zmax / nz;
      sum += 2 * kPi * r * (r * r + z * z) * maxwellian_rz(r, z, n0, theta) * (rmax / nr) *
             (2 * zmax / nz);
    }
  EXPECT_NEAR(sum, 1.5 * n0 * theta, 2e-3);
}

TEST(Maxwellian, DriftShiftsZCentroid) {
  const double vz0 = 0.8;
  EXPECT_GT(maxwellian_rz(0.1, vz0, 1.0, 1.0, vz0), maxwellian_rz(0.1, 0.0, 1.0, 1.0, vz0));
}
