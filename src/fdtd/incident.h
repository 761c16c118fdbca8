#pragma once
/// \file incident.h
/// Analytic incident plane-wave excitation for the scattered-field
/// formulation. The solver stores *scattered* fields; the incident wave
/// (a closed-form vacuum plane wave) enters through
///  * tangential-E forcing on PEC surfaces (E_s = -E_i),
///  * volumetric polarization/conduction corrections in dielectric cells,
///  * the eps0 dE_i,z/dt term of the lumped-cell update, Eq. (8).
/// This matches the split incident/scattered fields of the paper exactly
/// and avoids any auxiliary-grid dispersion mismatch.
///
/// The pulse is a GaussianPulse, whose g and dg are exactly 0 in double
/// precision outside a known support interval. The FDTD solver sorts its
/// per-edge delay tables and visits only the window of edges whose
/// retarded time lies in the support (supportWindow); the Agrawal sources
/// skip terms outside it. Either way the skipped work would only add ±0,
/// so results are bit-identical to visiting every edge or term.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "fdtd/grid.h"

namespace fdtdmm {

/// Gaussian pulse shape g(t) = exp(-((t - t0)/sigma)^2 / 2) with its
/// analytic derivative.
class GaussianPulse {
 public:
  /// Half-width of the support in units of sigma. exp(-x) underflows to +0
  /// in double precision for x > 745.13, which is |t - t0| > 38.6 sigma, so
  /// g and dg are exactly ±0 outside t0 -/+ 40 sigma. The 1.4 sigma margin
  /// absorbs the rounding of retarded times t - delay.
  static constexpr double kSupportSigmas = 40.0;

  /// \throws std::invalid_argument unless sigma > 0 and t0, sigma are
  ///         finite.
  GaussianPulse(double t0, double sigma);

  /// Waveform (dimensionless, peak 1 at t0).
  double g(double t) const {
    const double u = (t - t0_) / sigma_;
    return std::exp(-0.5 * u * u);
  }

  /// Time derivative of g [1/s].
  double dg(double t) const {
    const double u = (t - t0_) / sigma_;
    return -(u / sigma_) * std::exp(-0.5 * u * u);
  }

  /// Support [supportBegin(), supportEnd()]: outside it g and dg are
  /// exactly ±0.
  double supportBegin() const { return t0_ - kSupportSigmas * sigma_; }
  double supportEnd() const { return t0_ + kSupportSigmas * sigma_; }

 private:
  double t0_;
  double sigma_;
};

/// Half-open index range [first, last) into a table.
struct IndexRange {
  std::size_t first = 0;
  std::size_t last = 0;
};

/// The entries of `table`, sorted by ascending `delay`, whose retarded time
/// t - delay may lie in the pulse's support:
/// [lower_bound(t - supportEnd), upper_bound(t - supportBegin)). Every
/// entry outside the range sees g == dg == 0 at t. Costs two binary
/// searches, so edges the pulse has not reached or has left cost nothing.
template <class Entry>
IndexRange supportWindow(const std::vector<Entry>& table, const GaussianPulse& pulse,
                         double t) {
  const auto first = std::lower_bound(
      table.begin(), table.end(), t - pulse.supportEnd(),
      [](const Entry& e, double d) { return e.delay < d; });
  const auto last = std::upper_bound(
      first, table.end(), t - pulse.supportBegin(),
      [](double d, const Entry& e) { return d < e.delay; });
  return {static_cast<std::size_t>(first - table.begin()),
          static_cast<std::size_t>(last - table.begin())};
}

/// Uniform plane wave in vacuum:
///   E(r, t) = p_hat * amplitude * g(t - k_hat . (r - r0) / c0).
/// Incidence is specified by the arrival direction (theta, phi) in standard
/// spherical coordinates — the wave *comes from* that direction, so the
/// propagation vector is k_hat = -r_hat(theta, phi) — and the polarization
/// by a theta/phi mix (the paper's Fig. 7 pulse is theta-polarized,
/// theta = 90 deg, phi = 180 deg, 2 kV/m, 9.2 GHz bandwidth).
class PlaneWave {
 public:
  /// \throws std::invalid_argument if the polarization mix is zero.
  PlaneWave(double theta_rad, double phi_rad, double amplitude,
            GaussianPulse pulse, double pol_theta = 1.0, double pol_phi = 0.0,
            double x0 = 0.0, double y0 = 0.0, double z0 = 0.0);

  /// Incident E-field component at (x, y, z, t).
  double field(Axis comp, double x, double y, double z, double t) const {
    return pol_[static_cast<int>(comp)] * amp_ * pulse_.g(t - delay(x, y, z));
  }

  /// Propagation delay phase: tau(r) = k_hat . (r - r0) / c0, so the
  /// retarded time is t - tau. Exposed so hot loops can precompute tau
  /// per edge and evaluate only g / dg per step.
  double delay(double x, double y, double z) const {
    return (kx_ * (x - x0_) + ky_ * (y - y0_) + kz_ * (z - z0_)) / constants::kC0;
  }

  double polarization(Axis comp) const { return pol_[static_cast<int>(comp)]; }
  double amplitude() const { return amp_; }
  const GaussianPulse& pulse() const { return pulse_; }

 private:
  double kx_, ky_, kz_;  ///< propagation direction (unit)
  double pol_[3];        ///< E polarization (unit)
  double amp_;
  GaussianPulse pulse_;
  double x0_, y0_, z0_;
};

}  // namespace fdtdmm
