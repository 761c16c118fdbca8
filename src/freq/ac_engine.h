#pragma once
/// \file ac_engine.h
/// Frequency-domain (AC small-signal) analysis of a Circuit.
///
/// AcSession is the frequency-domain sibling of SolverSession
/// (circuit/solver_session.h), with the same three-lifetime state split:
///
///   - *symbolic* state — the sparse pattern of the complex MNA system and
///     its RCM ordering. The pattern is a pure function of the circuit
///     structure (every stampAc writes a frequency-independent entry set),
///     so all frequency points of a session — and, via SolverSharing, all
///     corners of one structure class — reuse ONE symbolic analysis. The
///     ordering is resolved by the same checkout as the transient path
///     (resolveSymbolic, circuit/solver_state.h), which also records it in
///     the telemetry sink.
///   - per-frequency numeric state — the complex values G + j*omega*B
///     (plus non-polynomial terms like the ideal line's e^{-j omega Td},
///     which is why the session re-stamps *values* at every frequency
///     instead of scaling a fixed B), factored privately per point by a
///     BandedLu<Complex> (math/banded_lu.h).
///   - the solution workspace x(omega).
///
/// Nonlinear circuits are handled the standard SPICE way: compute the DC
/// operating point with dcOperatingPoint(), pass it as AcOptions::x_dc,
/// and every nonlinear device stamps the Jacobian of its linearization
/// about that point (see the stampAc contract in circuit/elements.h).

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/solver_state.h"
#include "math/banded_lu.h"
#include "math/sparse_matrix.h"
#include "obs/telemetry.h"

namespace fdtdmm {

/// Options of one AC session.
struct AcOptions {
  /// DC operating point to linearize nonlinear devices about. Empty =
  /// all unknowns zero (exact for linear circuits). When non-empty its
  /// size must equal the circuit's unknown count.
  Vector x_dc;

  /// Cross-session symbolic sharing (the structure key classes circuits by
  /// AC matrix pattern). Default: no sharing — the session still performs
  /// exactly one symbolic analysis of its own.
  SolverSharing sharing;

  /// Optional telemetry sink, the TransientOptions convention: when
  /// non-null every solveAt() accumulates its factor/solve wall time and
  /// factorization count (+=, one sink may aggregate a whole frequency
  /// grid), the session's symbolic checkout lands in rcm_orderings and
  /// shared_symbolic_builds/_reuses, and structure records the factored
  /// system's size. Null keeps solveAt clock-free.
  obs::RunTelemetry* telemetry = nullptr;
  /// Numerical-health collection (obs/health.h): with health.collect set
  /// (directly or via sharing.health, which per-option collect overrides)
  /// AND telemetry attached, every solveAt records the factorization's
  /// pivot stats and one complex relative residual ||Ax-b||inf/||b||inf
  /// into telemetry->health. No condition estimate on this path: the Hager
  /// estimator (obs::estimateInverseNorm1) iterates on real vectors, so a
  /// complex system would need a complex variant of it. Grading happens in
  /// the scenario layer after the last solve.
  obs::HealthOptions health;
};

/// One frequency-domain analysis of one Circuit. Construction assigns the
/// unknown layout and validates options; the first solveAt() assembles the
/// CSR pattern pair and resolves its ordering, and every call re-stamps
/// values, factors, and solves.
///
/// solveAt() is repeatable at the same or different frequencies, and
/// element AC excitations (VoltageSource/CurrentSource::setAcValue) may be
/// changed between calls — the S-parameter extraction runs one session
/// with forward and reverse port excitations. The session holds a
/// reference to the circuit; neither the netlist structure nor the
/// transient state may change while it is alive.
class AcSession {
 public:
  /// \throws std::invalid_argument if the circuit has no unknowns or
  ///         x_dc is non-empty with the wrong size.
  AcSession(Circuit& circuit, AcOptions opt);

  /// Solves A(j 2 pi f_hz) x = b and returns the solution phasor vector
  /// (node voltages then branch currents, the transient unknown layout).
  /// The reference is valid until the next solveAt() call.
  /// \throws std::invalid_argument if f_hz < 0; std::runtime_error on a
  ///         numerically singular system; std::logic_error from an
  ///         element without an AC model.
  const ComplexVector& solveAt(double f_hz);

  /// Unknown count (nodes + branches).
  std::size_t unknowns() const { return n_; }

  /// Number of complex factorizations performed (one per solveAt call).
  std::size_t factorizations() const { return factorizations_; }

 private:
  void assemblePattern(double omega);
  void restampValues(double omega);
  /// Records the complex relative residual of the last solve (health
  /// collection; see AcOptions::health).
  void recordResidual(obs::NumericalHealth& h) const;

  Circuit& circuit_;
  AcOptions opt_;
  std::size_t n_ = 0;

  AcStampSystem sys_;
  SparseMatrix sp_re_;  ///< CSR target of sys_.re
  SparseMatrix sp_im_;  ///< CSR target of sys_.im (same pattern)

  /// Ordering of the assembled pattern; null until the first solveAt.
  std::shared_ptr<const SolverSymbolic> symbolic_;

  BandedLu<Complex> lu_;
  ComplexVector x_;
  std::size_t factorizations_ = 0;
};

/// Computes the DC operating point of `circuit` by dense Newton iteration
/// on the full MNA stamp at t = 0 (capacitors open — their companion
/// conductance is zero before begin(); inductors near-shorts; transient
/// sources at their t = 0 value). The circuit must not have run a
/// transient (element companion state must be pristine); the circuit is
/// left untouched for a subsequent AcSession or transient run.
/// \returns the unknown vector (suitable as AcOptions::x_dc).
/// \throws std::runtime_error if Newton fails to converge in `max_iter`
///         iterations or the Jacobian goes singular.
Vector dcOperatingPoint(Circuit& circuit, int max_iter = 50,
                        double tol = 1e-9);

/// Phasor of node n in an AC solution vector (ground = 0).
inline Complex acNodeV(const ComplexVector& x, int n) {
  return n == 0 ? Complex(0.0, 0.0) : x[static_cast<std::size_t>(n - 1)];
}

}  // namespace fdtdmm
