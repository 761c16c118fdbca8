#pragma once
/// \file ac_engine.h
/// Frequency-domain (AC small-signal) analysis of a Circuit.
///
/// AcSession is the frequency-domain sibling of SolverSession
/// (circuit/solver_session.h), with the same three-lifetime state split:
///
///   - *symbolic* state — the compiled CSR pattern of the complex MNA
///     system and its RCM ordering, checked out on the first solveAt() and
///     kept for the session's lifetime. The pattern is a pure function of
///     the circuit structure (every stampAc writes a frequency-independent
///     entry set), so all frequency points of a session — and, via
///     SolverSharing, all corners of one structure class — reuse ONE
///     compile and ONE ordering. The checkout is the transient path's
///     (resolveSymbolic, circuit/solver_state.h): a session that checks
///     its class out adopts the pattern and stamps its values straight
///     into it, compiling and ordering nothing, and the telemetry sink
///     records which case ran.
///   - per-frequency numeric state — the complex values G + j*omega*B
///     (plus non-polynomial terms like the ideal line's e^{-j omega Td},
///     which is why the session re-stamps *values*, in element order, at
///     every new frequency instead of scaling a fixed B), factored
///     privately per point by a BandedLu<Complex> (math/banded_lu.h). At
///     the last factored frequency a call restamps only the right-hand
///     side (Element::stampAcRhs): the factored values stay in place.
///   - the solution workspace x(omega), valid until the next solveAt().
///
/// The storage of the numeric state — the CSR matrix, the LU's band and
/// ordering arrays, b and x — is a per-thread workspace: a session takes
/// the one its thread's last finished session kept and keeps its own in
/// its destructor, so the corners a sweep worker runs one after the other
/// refactor in the same arrays instead of allocating megabytes per
/// corner. Only capacity carries over, never values: every session zeroes
/// and restamps its matrix in element order and factors it itself, so
/// its results are bitwise those of a session on fresh storage. The
/// runner's ThreadPool lives for one sweep, so a kept workspace lives as
/// long as its sweep worker.
///
/// Nonlinear circuits are handled the standard SPICE way: compute the DC
/// operating point with dcOperatingPoint(), pass it as AcOptions::x_dc,
/// and every nonlinear device stamps the Jacobian of its linearization
/// about that point (see the stampAc contract in circuit/elements.h).

#include <complex>
#include <cstddef>
#include <limits>
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

  /// Cross-session symbolic sharing (sessions whose circuits have one
  /// structure class share the AC pattern). Default: no sharing — the
  /// session still performs exactly one symbolic analysis of its own.
  SolverSharing sharing;

  /// Optional telemetry sink, the TransientOptions convention: when
  /// non-null every solveAt() accumulates its assembly (the checkout plus
  /// the value and RHS restamps, into stamp_static), factor and solve wall
  /// time and its factorization count (+=, one sink may aggregate a whole
  /// frequency grid), the session's symbolic checkout lands in
  /// pattern_compiles, rcm_orderings and shared_symbolic_builds/_reuses,
  /// workspace_reuses counts a session that took its thread's kept
  /// workspace, and structure records the factored system's size. Null
  /// keeps solveAt clock-free.
  obs::RunTelemetry* telemetry = nullptr;
  /// Numerical-health collection (obs/health.h): with health.collect set
  /// (directly or via sharing.health; SolverSharing::healthFor) AND
  /// telemetry attached, every factorization records its pivot stats
  /// and every solveAt one complex relative residual ||Ax-b||inf/||b||inf
  /// into telemetry->health. No condition estimate on this path: the Hager
  /// estimator (obs::estimateInverseNorm1) iterates on real vectors, so a
  /// complex system would need a complex variant of it. Grading happens in
  /// the scenario layer after the last solve.
  obs::HealthOptions health;
};

/// One frequency-domain analysis of one Circuit. Construction assigns the
/// unknown layout, validates options and takes the thread's kept workspace
/// (see the file comment); the first solveAt() checks the complex CSR
/// pattern and its ordering out (compiling them only when the session
/// builds its structure class or runs unshared). A call at a new frequency
/// re-stamps the values into that pattern and factors them; a repeat at
/// the last factored frequency (a changed excitation) restamps only the
/// right-hand side and reuses the factorization, bit for bit.
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
  /// Keeps the workspace for the thread's next session.
  ~AcSession();
  AcSession(const AcSession&) = delete;
  AcSession& operator=(const AcSession&) = delete;

  /// Solves A(j 2 pi f_hz) x = b and returns the solution phasor vector
  /// (node voltages then branch currents, the transient unknown layout).
  /// The reference is valid until the next solveAt() call.
  /// \throws std::invalid_argument if f_hz is negative, NaN or infinite;
  ///         std::runtime_error on a numerically singular system;
  ///         std::logic_error from an element without an AC model.
  const ComplexVector& solveAt(double f_hz);

  /// Unknown count (nodes + branches).
  std::size_t unknowns() const { return n_; }

  /// Number of complex factorizations performed: one per solveAt call at
  /// a frequency other than the last factored one.
  std::size_t factorizations() const { return factorizations_; }

 private:
  /// Resolves sp_'s pattern and symbolic_ (resolveSymbolic), leaving sp_
  /// finalized with zero values.
  void checkOut(double omega, obs::RunTelemetry* tel);
  /// Stamps A(omega) into sp_.
  void restampValues(double omega);
  /// Stamps b(omega) into sys_.b.
  void restampRhs(double omega);

  Circuit& circuit_;
  AcOptions opt_;
  std::size_t n_ = 0;

  // sys_.b, sp_, lu_ and x_ are the workspace (see the file comment).
  AcStampSystem sys_;
  CsrMatrix<Complex> sp_;  ///< CSR target of sys_

  /// Class pattern and ordering; null until the first solveAt.
  std::shared_ptr<const SolverSymbolic> symbolic_;

  BandedLu<Complex> lu_;
  /// Angular frequency lu_ holds the factorization of; NaN (matching no
  /// omega) while nothing valid is factored.
  double factored_omega_ = std::numeric_limits<double>::quiet_NaN();
  ComplexVector x_;
  std::size_t factorizations_ = 0;
};

/// Computes the DC operating point of `circuit` by undamped Newton
/// iteration on the full MNA stamp at t = 0 (capacitors open — their
/// companion conductance is zero before begin(); inductors near-shorts;
/// transient sources at their t = 0 value). Each iteration restamps the
/// values into one CSR pattern, refactors it with a BandedLu<double>, which
/// keeps its RCM analysis while the pattern holds, and refines the solve
/// once with an extended-precision residual (the near-short inductors make
/// the system ill-conditioned). The circuit must not have run a
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
