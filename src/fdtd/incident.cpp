#include "fdtd/incident.h"

#include <stdexcept>

namespace fdtdmm {

GaussianPulse::GaussianPulse(double t0, double sigma) : t0_(t0), sigma_(sigma) {
  if (!std::isfinite(t0) || !std::isfinite(sigma) || !(sigma > 0.0))
    throw std::invalid_argument("GaussianPulse: need finite t0 and finite sigma > 0");
}

PlaneWave::PlaneWave(double theta_rad, double phi_rad, double amplitude,
                     GaussianPulse pulse, double pol_theta, double pol_phi,
                     double x0, double y0, double z0)
    : amp_(amplitude), pulse_(pulse), x0_(x0), y0_(y0), z0_(z0) {
  const double st = std::sin(theta_rad), ct = std::cos(theta_rad);
  const double sp = std::sin(phi_rad), cp = std::cos(phi_rad);
  // The wave comes *from* (theta, phi): propagation along -r_hat.
  kx_ = -st * cp;
  ky_ = -st * sp;
  kz_ = -ct;
  // Spherical unit vectors at the source direction.
  const double eth[3] = {ct * cp, ct * sp, -st};
  const double eph[3] = {-sp, cp, 0.0};
  double norm2 = 0.0;
  for (int c = 0; c < 3; ++c) {
    pol_[c] = pol_theta * eth[c] + pol_phi * eph[c];
    norm2 += pol_[c] * pol_[c];
  }
  if (norm2 <= 0.0) throw std::invalid_argument("PlaneWave: zero polarization");
  const double inv = 1.0 / std::sqrt(norm2);
  for (double& p : pol_) p *= inv;
}

}  // namespace fdtdmm
