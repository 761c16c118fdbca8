#pragma once
/// \file low_rank_update.h
/// Solves a factored base A0 plus a few fixed ports, without factoring the
/// sum: the reduction of the network to its Thevenin view from its ports.
///
/// A port is a pair of unknowns whose difference is the port voltage, and
/// P (n x k) holds one column per port: +1 at its positive unknown, -1 at
/// its negative one. A port device with conductance G (k x k) between the
/// ports makes the matrix A = A0 + P G P^T. With
///
///   y = A0^-1 b,   Z = A0^-1 P,   Zp = P^T Z,
///
/// the port voltages of the solution obey (I + Zp G) v = P^T y, and the
/// solution is x = y - Z (G v). More generally a nonlinear port law i(v)
/// turns A0 x + P i(P^T x) = b into the k port equations
/// v = P^T y - Zp i(v), which the transient engine solves by Newton on the
/// k port voltages alone (circuit/transient.h) before recovering x = y - Z i.
///
/// Z costs k substitutions and is built once, when the ports are set; each
/// solve then costs one base substitution for y, an O(k^3) port system and
/// O(n k) for the recovery. The k x k system is solved by Gaussian
/// elimination with partial pivoting and flagged when it, or the recovery
/// of its solution, would cancel (kMinCancellationRatio); the caller then
/// factors A itself.

#include <array>
#include <cstddef>
#include <vector>

#include "math/banded_lu.h"

namespace fdtdmm {

/// Most ports a reduction holds. A two-terminal device is one port and a
/// MOSFET two, so four covers the RBF driver and receiver ports of a
/// board, or two transistors. More ports come from transistor-level
/// circuits, where the k substitutions for Z and the k-wide port system
/// cost more than one banded refactorization per Newton iteration. The cap
/// also keeps Zp and the port system in fixed storage.
constexpr std::size_t kMaxUpdateRank = 4;

/// Smallest accepted ratio of a pivot of I + Zp G to the magnitude of the
/// terms that formed it (1 and |Zp G|, plus what elimination added). A
/// pivot below it has cancelled: by the determinant lemma, det(A) = det(A0)
/// * det(I + Zp G), so A is near-singular relative to A0. The same bound
/// caps |Zp G| at its inverse: beyond that the base carries less than that
/// share of A at the ports, so y is that much larger than x and
/// x = y - Z i cancels. Either way the reduction would lose more than seven
/// of the sixteen digits. Seven still leave about 1e-9 relative error, the
/// transient engine's Newton tolerance on volt-scale unknowns
/// (TransientOptions::v_tolerance); beyond it the caller refactors instead.
constexpr double kMinCancellationRatio = 1e-7;

/// How solvePorts went.
enum class PortSolve {
  kSolved,            ///< w is accurate, and so is x = y - Z i from it
  kRecoveryCancels,   ///< w is accurate, but |Zp G| is beyond the cap
  kCancelled,         ///< a pivot cancelled: w is unusable
};

/// Stands for the reference node in PortUnknowns.
constexpr std::size_t kGroundUnknown = static_cast<std::size_t>(-1);

/// One port: its voltage is x[pos] - x[neg] (kGroundUnknown for a terminal
/// at ground).
struct PortUnknowns {
  std::size_t pos = kGroundUnknown;
  std::size_t neg = kGroundUnknown;
};

/// The voltage of port p in x.
inline double portVoltage(const Vector& x, const PortUnknowns& p) {
  return (p.pos == kGroundUnknown ? 0.0 : x[p.pos]) - (p.neg == kGroundUnknown ? 0.0 : x[p.neg]);
}

/// The fixed-port reduction of one factored base. Single-threaded, like
/// the BandedLu it wraps; allocation-free after setPorts().
class LowRankUpdate {
 public:
  /// Binds the base factorization. It is held by reference, must be
  /// factored before setPorts() and must not be refactored while this
  /// object is in use (Z is A0^-1 P of that base).
  explicit LowRankUpdate(const BandedLu<double>& base) : base_(base) {}

  /// Fixes the ports and builds Z (one substitution per port), Zp and the
  /// column maxima of |Z|.
  /// \throws std::invalid_argument with more than kMaxUpdateRank ports or
  ///         an unknown index out of range; std::logic_error if the base is
  ///         not factored (from BandedLu).
  void setPorts(const std::vector<PortUnknowns>& ports);

  /// Number of ports k.
  std::size_t rank() const { return k_; }

  /// y = A0^-1 b (one substitution; y resized, may alias b) and the
  /// open-circuit port voltages v_oc = P^T y (k entries).
  void openCircuit(const Vector& b, Vector& y, double* v_oc) const;

  /// Zp(p, q): the voltage at port p per unit current drawn at port q.
  double impedance(std::size_t p, std::size_t q) const { return zp_[p * kMax + q]; }

  /// max_r |Z(r, p)|: bounds how far any unknown moves per unit change of
  /// the current drawn at port p.
  double columnMax(std::size_t p) const { return z_max_[p]; }

  /// Solves (I + Zp G) w = r for w, in place of r (k entries), G the k x k
  /// port conductance (row-major). On kCancelled r is unspecified; on
  /// kRecoveryCancels the elimination itself was sound, so w is a usable
  /// Newton step, but a solution recovered at this G would cancel (see
  /// kMinCancellationRatio).
  PortSolve solvePorts(const double* g, double* r) const;

  /// x = y - Z i for the port currents i (x resized; may alias y).
  void recover(const Vector& y, const double* i, Vector& x) const;

  /// max_r |(Z i)_r|: the largest move of any unknown when the port
  /// currents change by i. O(n k), where the column-max bound would be
  /// loose (several ports).
  double maxResponse(const double* i) const;

 private:
  static constexpr std::size_t kMax = kMaxUpdateRank;

  const BandedLu<double>& base_;
  std::size_t k_ = 0;
  std::array<PortUnknowns, kMax> ports_{};
  std::array<Vector, kMax> z_;           ///< Z, one column per port
  std::array<double, kMax * kMax> zp_{};  ///< Zp, row-major, kMax columns
  std::array<double, kMax> z_max_{};
};

}  // namespace fdtdmm
