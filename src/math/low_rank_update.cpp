#include "math/low_rank_update.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fdtdmm {

void LowRankUpdate::setPorts(const std::vector<PortUnknowns>& ports) {
  if (ports.size() > kMax)
    throw std::invalid_argument("LowRankUpdate::setPorts: more than kMaxUpdateRank ports");
  const std::size_t n = base_.dim();
  for (const PortUnknowns& p : ports) {
    if ((p.pos != kGroundUnknown && p.pos >= n) || (p.neg != kGroundUnknown && p.neg >= n))
      throw std::invalid_argument("LowRankUpdate::setPorts: unknown index out of range");
  }
  k_ = ports.size();
  std::copy(ports.begin(), ports.end(), ports_.begin());
  Vector unit(n, 0.0);
  for (std::size_t p = 0; p < k_; ++p) {
    if (ports_[p].pos != kGroundUnknown) unit[ports_[p].pos] += 1.0;
    if (ports_[p].neg != kGroundUnknown) unit[ports_[p].neg] -= 1.0;
    base_.solve(unit, z_[p]);
    std::fill(unit.begin(), unit.end(), 0.0);
    z_max_[p] = 0.0;
    for (double v : z_[p]) z_max_[p] = std::max(z_max_[p], std::abs(v));
  }
  for (std::size_t p = 0; p < k_; ++p) {
    for (std::size_t q = 0; q < k_; ++q) zp_[p * kMax + q] = portVoltage(z_[q], ports_[p]);
  }
}

void LowRankUpdate::openCircuit(const Vector& b, Vector& y, double* v_oc) const {
  base_.solve(b, y);
  for (std::size_t p = 0; p < k_; ++p) v_oc[p] = portVoltage(y, ports_[p]);
}

PortSolve LowRankUpdate::solvePorts(const double* g, double* r) const {
  const std::size_t k = k_;
  // S = I + Zp G, with mag holding the magnitude of the terms that formed
  // each entry. Every test below is written so that a NaN declines.
  std::array<double, kMax * kMax> s{}, mag{};
  PortSolve outcome = PortSolve::kSolved;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      double sum = 0.0, abs_sum = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        const double t = zp_[i * kMax + c] * g[c * k + j];
        sum += t;
        abs_sum += std::abs(t);
      }
      if (!(abs_sum * kMinCancellationRatio <= 1.0)) {
        if (!std::isfinite(abs_sum)) return PortSolve::kCancelled;
        outcome = PortSolve::kRecoveryCancels;
      }
      s[i * kMax + j] = (i == j ? 1.0 : 0.0) + sum;
      mag[i * kMax + j] = (i == j ? 1.0 : 0.0) + abs_sum;
    }
  }

  // Elimination with partial pivoting; each update adds |l| times the
  // pivot row's magnitude to the entries it touches.
  for (std::size_t j = 0; j < k; ++j) {
    std::size_t p = j;
    for (std::size_t i = j + 1; i < k; ++i) {
      if (std::abs(s[i * kMax + j]) > std::abs(s[p * kMax + j])) p = i;
    }
    if (p != j) {
      for (std::size_t c = 0; c < k; ++c) {
        std::swap(s[j * kMax + c], s[p * kMax + c]);
        std::swap(mag[j * kMax + c], mag[p * kMax + c]);
      }
      std::swap(r[j], r[p]);
    }
    const double pivot = s[j * kMax + j];
    if (!(std::abs(pivot) > kMinCancellationRatio * mag[j * kMax + j]))
      return PortSolve::kCancelled;
    for (std::size_t i = j + 1; i < k; ++i) {
      const double l = s[i * kMax + j] / pivot;
      for (std::size_t c = j + 1; c < k; ++c) {
        s[i * kMax + c] -= l * s[j * kMax + c];
        mag[i * kMax + c] += std::abs(l) * mag[j * kMax + c];
      }
      r[i] -= l * r[j];
    }
  }
  for (std::size_t j = k; j-- > 0;) {
    double acc = r[j];
    for (std::size_t c = j + 1; c < k; ++c) acc -= s[j * kMax + c] * r[c];
    r[j] = acc / s[j * kMax + j];
  }
  return outcome;
}

void LowRankUpdate::recover(const Vector& y, const double* i, Vector& x) const {
  x.resize(y.size());
  for (std::size_t r = 0; r < y.size(); ++r) {
    double acc = y[r];
    for (std::size_t p = 0; p < k_; ++p) acc -= z_[p][r] * i[p];
    x[r] = acc;
  }
}

double LowRankUpdate::maxResponse(const double* i) const {
  double m = 0.0;
  const std::size_t n = k_ == 0 ? 0 : z_[0].size();
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t p = 0; p < k_; ++p) acc += z_[p][r] * i[p];
    m = std::max(m, std::abs(acc));
  }
  return m;
}

}  // namespace fdtdmm
