#pragma once
// Plasma species tables and the nondimensionalization of Appendix A.
//
// Everything in the solver works in normalized units:
//   * velocities in units of v0 = sqrt(8 kT_e / pi m_e)  (electron mean speed),
//   * masses in units of m0 = m_e, charges in units of e,
//   * densities in units of n0, time in units of t0 chosen so that the
//     normalized electron-electron collision frequency is 1,
//   * E_z in units such that the advection coefficient of species a is
//     (q_a/m_a) * E.
//
// A Maxwellian of temperature T (in T_e units) for species of mass m (in m_e
// units) is then f = n/(pi theta)^{3/2} exp(-x^2/theta) with
// theta = (pi/4) (T/T_e) (m_e/m); its normalized thermal speed is sqrt(theta).

#include <string>
#include <vector>

#include "util/error.h"
#include "util/special_math.h"

namespace landau {

/// One plasma species in normalized units.
struct Species {
  std::string name;
  double mass = 1.0;        // m / m_e
  double charge = -1.0;     // q / e (electrons: -1)
  double density = 1.0;     // initial n / n0
  double temperature = 1.0; // initial T / T_e

  /// Gaussian width parameter of this species' Maxwellian (see header).
  double theta() const { return (kPi / 4.0) * temperature / mass; }
  /// Normalized thermal speed (units of v0).
  double thermal_speed() const { return std::sqrt(theta()); }
  /// Initial Maxwellian at cylindrical velocity coordinates (r, z).
  double maxwellian(double r, double z, double drift_z = 0.0) const {
    return maxwellian_rz(r, z, density, theta(), drift_z);
  }
  /// Charge weights of the Landau integrals (eqs. 7-8): as a source species
  /// q^2 weights f and q^2/m weights grad f; as the field species q^2/m
  /// scales the K term and q^2/m^2 the D term. Formed only here, so pack's
  /// species sums and the kernels agree bitwise.
  double q2() const { return charge * charge; }
  double q2_over_m() const { return charge * charge / mass; }
  double q2_over_m2() const { return charge * charge / (mass * mass); }
};

/// An ordered set of species; index 0 is conventionally the electrons.
class SpeciesSet {
public:
  SpeciesSet() = default;
  explicit SpeciesSet(std::vector<Species> list) : species_(std::move(list)) {
    LANDAU_ASSERT(!species_.empty(), "need at least one species");
  }

  int size() const { return static_cast<int>(species_.size()); }
  const Species& operator[](int s) const { return species_[static_cast<std::size_t>(s)]; }
  Species& operator[](int s) { return species_[static_cast<std::size_t>(s)]; }
  auto begin() const { return species_.begin(); }
  auto end() const { return species_.end(); }

  /// Normalized collision prefactor nu_ab = (q_a q_b)^2 (ln Lambda ratio = 1;
  /// the paper fixes ln Lambda = 10 for all pairs).
  double nu(int a, int b) const {
    return sqr((*this)[a].charge) * sqr((*this)[b].charge);
  }

  /// Effective ion charge Z_eff = sum n_i q_i^2 / sum n_i q_i over ions.
  double z_eff() const;

  /// Electron + deuterium, both Maxwellian at T_e (the §III-B/IV test plasma).
  static SpeciesSet electron_deuterium();

  /// Electron + ion of charge Z, quasi-neutral (n_i = 1/Z), as in Fig. 4.
  static SpeciesSet electron_ion(double z);

  /// The paper's performance plasma (§V): electrons, deuterium, and eight
  /// tungsten ionization states (charges 40..47 here), quasi-neutral.
  static SpeciesSet tungsten_plasma();

private:
  std::vector<Species> species_;
};

} // namespace landau
