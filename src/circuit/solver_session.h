#pragma once
/// \file solver_session.h
/// SolverSession: the transient engine's solver state as an explicit
/// object instead of `runTransient`-local variables. One session = one
/// transient run of one Circuit on the sparse path (CSR assembly +
/// RCM-ordered banded LU, see circuit/transient.h), with its state split
/// along the two lifetimes of circuit/solver_state.h:
///
///   - symbolic state      — the compiled CSR base pattern and its RCM
///                           ordering, checked out once per run (compiled
///                           by the run itself unless its class shares
///                           them) and used by every factorization of that
///                           pattern;
///   - per-run numeric     — the assembled static base matrix and its
///     state                 BandedLu factorization (factored once, lazily),
///                           the low-rank update that solves dirtied
///                           iterations on that factorization (with its
///                           cached Z = A0^-1 E_R), Newton solution vectors,
///                           the RHS/Jacobian working system, and the
///                           fallback refactorization — never shared.
///
/// A Newton iteration whose dynamic stamps dirty the matrix is solved on
/// the base factorization plus a Woodbury correction (math/low_rank_update.h)
/// when its change spans at most kMaxUpdateRank rows and columns, so a
/// circuit whose nonlinear devices are a few two-terminal ports factors
/// once per run. The iteration refactors the working matrix instead only
/// when (a) the change is wider, (b) the base alone is singular (the rest
/// of the run then refactors, without retrying the base), or (c) the
/// correction would cancel.
///
/// runTransient is a thin wrapper that constructs a session and runs it.
/// With TransientOptions::sharing set, the session checks its pattern and
/// ordering out of a SolverStateProvider: the first run of a structure
/// class compiles them from its own (identical) stamps and publishes them,
/// every later run adopts the pattern, stamps its static values straight
/// into it and skips the compile and the RCM analysis entirely — its base
/// factorization and its fallback refactorizations all use the
/// checked-out ordering.

#include <memory>
#include <vector>

#include "circuit/solver_state.h"
#include "circuit/transient.h"
#include "math/banded_lu.h"
#include "math/low_rank_update.h"
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
  /// One-time static assembly: checks the base pattern and its RCM
  /// ordering out (resolveSymbolic: shared checkout, build-and-publish, or
  /// private), then stamps the static values into the adopted pattern.
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
  /// Factors the static base from base_sp_, counted and health-recorded
  /// like every LU. \throws std::runtime_error when the base is singular.
  void factorBase(double* t_factor, obs::NumericalHealth* health, TransientResult& result);
  /// Solves a dirtied iteration into x_new_ on the base factorization plus
  /// a low-rank correction, factoring the base first if needed. Returns
  /// false on the fallbacks (a)-(c) of the file comment; the caller then
  /// refactors the working matrix.
  bool solveLowRank(double* t_factor, double* t_solve, obs::NumericalHealth* health,
                    TransientResult& result);

  Circuit& circuit_;
  TransientOptions opt_;
  std::size_t n_unknowns_ = 0;

  // --- symbolic piece: base pattern + ordering ---
  SparseMatrix base_sp_;  ///< finalized static base (pattern + values)
  /// Pattern and ordering of the static base (checked out, built or
  /// private).
  std::shared_ptr<const SolverSymbolic> symbolic_;
  std::vector<std::size_t> grown_order_;  ///< private re-order after growth
  /// The ordering every factorization uses: symbolic_'s while the pattern
  /// is the assembled one, else grown_order_ (if dynamic stamps grow the
  /// pattern, the run re-orders privately, exactly as a sharing-disabled
  /// run would).
  const std::vector<std::size_t>* order_ = nullptr;

  // --- per-run numeric state: never shared ---
  BandedLu<double> base_lu_;  ///< static base, factored once
  LowRankUpdate low_rank_{base_lu_};  ///< dirtied solves on base_lu_
  bool base_singular_ = false;        ///< base failed to factor: refactor
  Vector x_;
  Vector x_new_;
  StampSystem sys_;
  SparseMatrix work_sp_;      ///< dirtied/value-refreshed working copy
  BandedLu<double> work_lu_;  ///< refactored on the fallbacks (a)-(c)
  /// Most recent factorization used.
  const BandedLu<double>* last_lu_ = nullptr;
  bool matrix_was_dirtied_ = false;
};

}  // namespace fdtdmm
