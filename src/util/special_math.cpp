#include "util/special_math.h"

namespace landau {

double maxwellian_rz(double r, double z, double n, double theta, double vz0) noexcept {
  const double arg = (r * r + sqr(z - vz0)) / theta;
  return n / std::pow(kPi * theta, 1.5) * std::exp(-arg);
}

} // namespace landau
