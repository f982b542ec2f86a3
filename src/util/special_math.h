#pragma once
// Special functions used by the Landau kernels. The complete elliptic
// integrals of the 2D Landau tensor live beside it, as elliptic_ke_poly in
// core/landau_tensor.h.

#include <cmath>

namespace landau {

/// Maxwellian distribution in nondimensional velocity units: a drifting
/// isotropic Maxwellian with density n, thermal-speed parameter theta = T
/// (in units where the reference species has theta=1), and z-drift vz0:
///   f(r,z) = n / (pi theta)^{3/2} * exp(-((r^2 + (z-vz0)^2)/theta)
/// evaluated at cylindrical velocity coordinates (r, z).
double maxwellian_rz(double r, double z, double n, double theta, double vz0 = 0.0) noexcept;

/// Convenience: square.
inline constexpr double sqr(double x) noexcept { return x * x; }

inline constexpr double kPi = 3.14159265358979323846;

} // namespace landau
