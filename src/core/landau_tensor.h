#pragma once
// The Landau tensor (eq. 3) and its axisymmetric reductions U^D and U^K
// (eqs. 7-8), the physics core of the collision kernel.
//
// In cylindrical velocity coordinates the azimuthal integral of the 3D
// projection tensor reduces to complete elliptic integrals. With field point
// (r, z), source point (r', z'), dz = z - z', a = r^2 + r'^2 + dz^2 and
// s = 2 r r' / a, define m = 2s/(1+s) and the basis integrals
//
//   P0 = \oint (1 - s cos phi)^{-3/2} dphi = 4 E(m) / ((1-s) sqrt(1+s))
//   P1 = (4 / (s sqrt(1+s))) (E(m)/(1-s) - K(m))
//   Q0 = \oint (...)^{-1/2} = 4 K(m)/sqrt(1+s)
//   R0 = \oint (...)^{+1/2} = 4 sqrt(1+s) E(m)
//   P2 = (P0 - 2 Q0 + R0) / s^2
//
// giving (derivation in DESIGN.md §3.1, validated against direct quadrature):
//
//   U^D = a^{-3/2} [ r'^2 (P0-P2) + dz^2 P0 ,  -dz (r P0 - r' P1)
//                    -dz (r P0 - r' P1)     ,  (r^2 + r'^2) P0 - 2 r r' P1 ]
//   U^K = a^{-3/2} [ dz^2 P1 + r r' (P0-P2),  -dz (r P0 - r' P1)
//                    dz (r' P0 - r P1)      ,  (r^2 + r'^2) P0 - 2 r r' P1 ]
//
// The diagonal (r,z) == (r',z') is an integrable singularity: like the PETSc
// implementation we return zeros there (its quadrature weight is finite and
// the principal-value contribution vanishes).
//
// The per-pair arithmetic (log, K/E, tensor) is one branch-free template
// over the lane type: double for the scalar reference, and GCC vectors of
// two or four doubles for the SIMD pair loop of core/inner_tile.cpp. Cases
// are selects and the log is lane_log rather than std::log, so every width
// rounds every lane alike. Nothing takes or returns a vector by value (that
// would tie the ABI to the target), and the templates are always_inline so
// the AVX2 instance never calls out to a baseline copy.

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "exec/annotations.h"
#include "util/simd.h"
#include "util/special_math.h"

namespace landau {

/// 2x2 tensors in row-major order.
struct Tensor2 {
  double m[2][2] = {{0, 0}, {0, 0}};
};

/// Floating point operations of one landau_tensor_2d call on its common path
/// (s > 1e-3), counted by hand with log, sqrt and division as one each:
/// 12 to form dz, a, s and m1; 84 in elliptic_ke_poly (39 Horner steps, the
/// log, 5 to combine); 54 for sqrt(1+s), the P/Q/R integrals, a^{-3/2} and
/// the five distinct tensor entries. The coincidence test and the discarded
/// side of each select are not useful work and are not counted. Used for
/// flop accounting.
inline constexpr int kLandauTensor2DFlops = 150;

namespace detail {

// fdlibm e_log.c: ln 2 split so that k ln2_hi is exact, and the Lg1..Lg7
// coefficients of R(z) = Lg1 z + Lg2 z^2 + ... + Lg7 z^7.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLogLg[7] = {6.666666666666735130e-01, 3.999999999940941908e-01,
                                     2.857142874366239149e-01, 2.222219843214978396e-01,
                                     1.818357216161805012e-01, 1.531383769920937332e-01,
                                     1.479819860511658591e-01};

// Cephes ellpk/ellpe coefficients in the complementary parameter m1, highest
// degree first: K = PK(m1) - log(m1) QK(m1), E = PE(m1) - log(m1) m1 QE(m1).
inline constexpr double kEllipticPK[11] = {
    1.37982864606273237150E-4, 2.28025724005875567385E-3, 7.97404013220415179367E-3,
    9.85821379021226008714E-3, 6.87489687449949877925E-3, 6.18901033637687613229E-3,
    8.79078273952743772254E-3, 1.49380448916805252718E-2, 3.08851465246711995998E-2,
    9.65735902811690126535E-2, 1.38629436111989062502E0};
inline constexpr double kEllipticQK[11] = {
    2.94078955048598507511E-5, 9.14184723865917226571E-4, 5.94058303753167793257E-3,
    1.54850516649762399335E-2, 2.39089602715924892727E-2, 3.01204715227604046988E-2,
    3.73774314173823228969E-2, 4.88280347570998239232E-2, 7.03124996963957469739E-2,
    1.24999999999870820058E-1, 4.99999999999999999821E-1};
inline constexpr double kEllipticPE[11] = {
    1.53552577301013293365E-4, 2.50888492163602060990E-3, 8.68786816565889628429E-3,
    1.07350949056076193403E-2, 7.77395492516787092951E-3, 7.58395289413514708519E-3,
    1.15688436810574127319E-2, 2.18317996015557253103E-2, 5.68051945617860553470E-2,
    4.43147180560990850618E-1, 1.00000000000000000299E0};
inline constexpr double kEllipticQE[10] = {
    3.27954898576485872656E-5, 1.00962792679356715133E-3, 6.50609489976927491433E-3,
    1.68862163993311317300E-2, 2.61769742454493659583E-2, 3.34833904888224918614E-2,
    4.27180926518931511717E-2, 5.85936634471101055642E-2, 9.37499997197644278445E-2,
    2.49999999999888314361E-1};

} // namespace detail

/// Natural log of a normal positive x, written once for every lane type:
/// fdlibm's e_log.c argument reduction and polynomial with its special-case
/// branches taken out. x = 2^k (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)),
/// s = f / (2 + f), and log(1 + f) = f - (hfsq - s (hfsq + R(s^2))). Within
/// 1 ulp, log(1) = 0 exactly, and it uses lane-wise arithmetic and bit
/// operations only, so every lane width rounds alike. Zero, subnormal,
/// negative and non-finite x give garbage; the tensor selects such lanes
/// away.
template <class V>
[[gnu::always_inline]] LANDAU_DEVICE inline void lane_log(const V& x, V* out) noexcept {
  using U = typename lanes::Bits<V>::type;
  constexpr std::uint64_t kMantissa = 0x000fffffffffffff, kHidden = 0x0010000000000000;
  constexpr std::uint64_t kOne = 0x3ff0000000000000, kTwo52 = 0x4330000000000000;
  const U ix = __builtin_bit_cast(U, x);
  const U mant = ix & kMantissa;
  // Mantissas above ~sqrt(2) take the next binade's exponent (up = kHidden).
  const U up = (mant + std::uint64_t{0x00095f6400000000}) & kHidden;
  const V f = __builtin_bit_cast(V, mant | (up ^ kOne)) - 1.0;
  // k = exponent, converted exactly: 2^52 + e has e in its low bits.
  const V k = __builtin_bit_cast(V, ((ix >> 52) + (up >> 52)) | kTwo52) - 0x1p52 - 1023.0;
  const V s = f / (2.0 + f);
  const V z = s * s;
  const V w = z * z;
  const double* lg = detail::kLogLg;
  const V t1 = w * (lg[1] + w * (lg[3] + w * lg[5]));
  const V t2 = z * (lg[0] + w * (lg[2] + w * (lg[4] + w * lg[6])));
  const V R = t2 + t1;
  const V hfsq = 0.5 * f * f;
  *out = k * detail::kLn2Hi - ((hfsq - (s * (hfsq + R) + k * detail::kLn2Lo)) - f);
}

/// Lane-wise square root (sqrtsd, or the packed form at any vector width).
template <class V>
[[gnu::always_inline]] LANDAU_DEVICE inline void lane_sqrt(const V& x, V* out) noexcept {
  if constexpr (std::is_same_v<V, double>) {
    *out = std::sqrt(x);
  } else {
    for (int l = 0; l < lanes::kWidth<V>; ++l) (*out)[l] = __builtin_sqrt(x[l]);
  }
}

/// Complete elliptic integrals K and E of parameter m = 1 - m1 (m = k^2:
/// K(m) = \int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt, similarly E), taken from
/// the complementary parameter m1 in (0, 1] so that m -> 1 (nearby points)
/// loses nothing to cancellation. Fixed-degree Cephes polynomial-log forms
/// with one shared lane_log: within 4 ulp of the exact values for m1 in
/// [1e-300, 1], and K = E = pi/2 exactly at m1 = 1.
template <class V>
[[gnu::always_inline]] LANDAU_DEVICE inline void elliptic_ke_poly(const V& m1, V* K,
                                                                  V* E) noexcept {
  V pk = detail::kEllipticPK[0] * m1 + detail::kEllipticPK[1];
  V qk = detail::kEllipticQK[0] * m1 + detail::kEllipticQK[1];
  V pe = detail::kEllipticPE[0] * m1 + detail::kEllipticPE[1];
  V qe = detail::kEllipticQE[0] * m1 + detail::kEllipticQE[1];
  for (int i = 2; i < 11; ++i) {
    pk = pk * m1 + detail::kEllipticPK[i];
    qk = qk * m1 + detail::kEllipticQK[i];
    pe = pe * m1 + detail::kEllipticPE[i];
    if (i < 10) qe = qe * m1 + detail::kEllipticQE[i];
  }
  V log_m1{};
  lane_log(m1, &log_m1);
  *K = pk - log_m1 * qk;
  *E = pe - log_m1 * (m1 * qe);
}

/// The five distinct entries of U^K and U^D at one (field, source) pair per
/// lane: U^K = [uk00, off; uk10, d11], U^D = [ud00, off; off, d11].
template <class V> struct TensorLanes {
  V uk00, uk10, ud00, off, d11;
};

/// U^K and U^D for every lane of (r, z) x (rp, zp), branch-free: both sides
/// of every case are computed and selected, so the one source serves the
/// scalar reference (V = double) and the vector pair loop alike.
template <class V>
[[gnu::always_inline]] LANDAU_DEVICE inline void
landau_tensor_lanes(const V& r, const V& z, const V& rp, const V& zp, TensorLanes<V>* t) noexcept {
  const V dz = z - zp;
  const V a = r * r + rp * rp + dz * dz;
  V sqa{};
  lane_sqrt(a, &sqa);
  const V s = 2.0 * r * rp / a;
  // Integrable singularity at coincident points (s -> 1, dz -> 0): follow the
  // PETSc kernel and contribute zero from the diagonal.
  const V tol = 1e-14 * sqa;
  const auto skip = (a <= 0.0) | ((s >= 1.0 - 1e-14) & (dz < tol) & (-dz < tol));
  const V one_minus_s = 1.0 - s;
  const V one_plus_s = 1.0 + s;
  V K{}, E{};
  elliptic_ke_poly(one_minus_s / one_plus_s, &K, &E); // m1 = 1 - m, m = 2s/(1+s)

  V sq1s{};
  lane_sqrt(one_plus_s, &sq1s);
  const V P0 = 4.0 * E / (one_minus_s * sq1s);
  const V Q0 = 4.0 * K / sq1s;
  const V R0 = 4.0 * sq1s * E;
  // Small-s series (axis limit r or r' -> 0): the closed forms lose precision
  // to cancellation (P1 like eps/s, P2 like eps/s^2). From the binomial
  // expansion of (1 - s cos)^{-3/2}:
  //   P1 = pi (3/2 s + 105/64 s^3 + O(s^5))
  //   P2 = pi (1 + 45/32 s^2 + O(s^4)).
  const auto closed = s > 1e-3;
  const V P1 = closed ? (4.0 / (s * sq1s)) * (E / one_minus_s - K)
                      : kPi * s * (1.5 + (105.0 / 64.0) * s * s);
  const V P2 = closed ? (P0 - 2.0 * Q0 + R0) / (s * s) : kPi * (1.0 + (45.0 / 32.0) * s * s);

  const V am32 = 1.0 / (a * sqa);
  const V zero{};
  t->off = skip ? zero : -dz * (r * P0 - rp * P1) * am32;
  t->d11 = skip ? zero : ((r * r + rp * rp) * P0 - 2.0 * r * rp * P1) * am32;
  t->ud00 = skip ? zero : (rp * rp * (P0 - P2) + dz * dz * P0) * am32;
  t->uk00 = skip ? zero : (dz * dz * P1 + r * rp * (P0 - P2)) * am32;
  t->uk10 = skip ? zero : dz * (rp * P0 - r * P1) * am32;
}

/// Evaluate U^K and U^D at field point (r,z), source point (rp,zp): the
/// W = 1 instance of landau_tensor_lanes.
LANDAU_DEVICE inline void landau_tensor_2d(double r, double z, double rp, double zp,
                                           Tensor2* uk, Tensor2* ud) noexcept {
  TensorLanes<double> t{};
  landau_tensor_lanes(r, z, rp, zp, &t);
  uk->m[0][0] = t.uk00;
  uk->m[0][1] = t.off;
  uk->m[1][0] = t.uk10;
  uk->m[1][1] = t.d11;
  ud->m[0][0] = t.ud00;
  ud->m[0][1] = t.off;
  ud->m[1][0] = t.off;
  ud->m[1][1] = t.d11;
}

/// 3D Landau tensor (eq. 3): U = (|u|^2 I - u u^T)/|u|^3, u = v - vbar.
std::array<std::array<double, 3>, 3> landau_tensor_3d(const std::array<double, 3>& v,
                                                      const std::array<double, 3>& vbar) noexcept;

/// Reference implementation of U^K/U^D by direct azimuthal quadrature of the
/// 3D tensor (nphi midpoint samples). Used by tests and docs only — O(nphi)
/// per call.
void landau_tensor_2d_quadrature(double r, double z, double rp, double zp, Tensor2* uk,
                                 Tensor2* ud, int nphi = 20000);

} // namespace landau
