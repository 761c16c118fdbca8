#pragma once
/// \file solver_session.h
/// SolverSession: the transient engine's solver state as an explicit
/// object instead of `runTransient`-local variables. One session = one
/// transient run of one Circuit on the sparse path (CSR assembly +
/// RCM-ordered banded LU, see circuit/transient.h), with its state split
/// along the two lifetimes of circuit/solver_state.h:
///
///   - symbolic state      — the CSR base pattern and its RCM ordering,
///                           computed once per run and used by every
///                           factorization of that pattern;
///   - per-run numeric     — the assembled static base matrix and its
///     state                 BandedLu factorization (factored once, lazily),
///                           Newton solution vectors, the RHS/Jacobian
///                           working system, and the dirtied-matrix
///                           refactorization — never shared.
///
/// runTransient is a thin wrapper that constructs a session and runs it.
/// With TransientOptions::sharing set, the session checks its ordering out
/// of a SolverStateProvider: the first run of a structure class computes
/// it from its own (identical) pattern and publishes it, every later run
/// skips the RCM analysis entirely — its base factorization and its
/// dirtied-matrix refactorizations all use the checked-out ordering.

#include <memory>
#include <vector>

#include "circuit/solver_state.h"
#include "circuit/transient.h"
#include "math/banded_lu.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {

/// One transient run with explicit, separable solver state. Construction
/// validates the options; run() validates the probes, assembles, and
/// integrates. A session is single-use: elements accumulate companion
/// history across the run, so call run() exactly once.
class SolverSession {
 public:
  /// \throws std::invalid_argument on bad options (non-positive dt/t_stop,
  ///         negative settle_time) — the same messages runTransient throws.
  SolverSession(Circuit& circuit, const TransientOptions& opt);

  /// Runs the transient analysis (see runTransient for the error
  /// contract; all its validation and exceptions happen here).
  TransientResult run(const std::vector<NodeProbe>& probes,
                      const std::vector<BranchProbe>& branch_probes = {});

 private:
  void validateProbes(const std::vector<NodeProbe>& probes,
                      const std::vector<BranchProbe>& branch_probes) const;
  /// One-time static assembly into the CSR base, then resolution of the
  /// pattern's RCM ordering (resolveSymbolic: shared checkout,
  /// build-and-publish, or private).
  void assembleStatic(double* t_static, obs::RunTelemetry* tel);
  /// Widens the working pattern after a dynamic stamp hit a structurally
  /// new entry, keeps the base aligned, and re-orders the grown pattern.
  void realignPattern(obs::RunTelemetry* tel);
  /// End-of-run health probes (obs/health.h): one relative residual of the
  /// final solve against the current system, and (optionally) one Hager
  /// condition estimate on whichever factorization is cached — never a
  /// refactorization. `any_solve` gates the residual (x_new_ is garbage if
  /// no Newton iteration ever solved).
  void collectEndOfRunHealth(const obs::HealthOptions& hopt, obs::NumericalHealth& h,
                             bool any_solve);

  Circuit& circuit_;
  TransientOptions opt_;
  std::size_t n_unknowns_ = 0;

  // --- symbolic piece: base pattern + ordering ---
  SparseMatrix base_sp_;  ///< finalized static base (pattern + values)
  /// Ordering of the assembled pattern (checked out, built or private).
  std::shared_ptr<const SolverSymbolic> symbolic_;
  std::vector<std::size_t> grown_order_;  ///< private re-order after growth
  /// The ordering every factorization uses: symbolic_'s while the pattern
  /// is the assembled one, else grown_order_ (if dynamic stamps grow the
  /// pattern, the run re-orders privately, exactly as a sharing-disabled
  /// run would).
  const std::vector<std::size_t>* order_ = nullptr;

  // --- per-run numeric state: never shared ---
  BandedLu<double> base_lu_;  ///< static base, factored once
  Vector x_;
  Vector x_new_;
  StampSystem sys_;
  SparseMatrix work_sp_;      ///< dirtied/value-refreshed working copy
  BandedLu<double> work_lu_;  ///< refactored when a dynamic stamp dirties
  /// Most recent factorization used.
  const BandedLu<double>* last_lu_ = nullptr;
  bool matrix_was_dirtied_ = false;
};

}  // namespace fdtdmm
