#pragma once
/// \file solver_session.h
/// SolverSession: the transient engine's solver state as an explicit
/// object instead of `runTransient`-local variables. One session = one
/// transient run of one Circuit on the sparse path (CSR assembly +
/// RCM-ordered banded LU, see circuit/transient.h), with its state split
/// along the three lifetimes of circuit/solver_state.h:
///
///   - symbolic state      — the CSR base pattern and its RCM ordering,
///                           computed once per run and used by every
///                           factorization of that pattern;
///   - numeric base state  — the assembled static base matrix and its
///                           BandedLu factorization;
///   - per-run workspaces  — Newton solution vectors, the RHS/Jacobian
///                           working system, and the dirtied-matrix
///                           refactorization — never shared.
///
/// runTransient is a thin wrapper that constructs a session and runs it.
/// With TransientOptions::sharing set, the session checks the first two
/// pieces out of a SolverStateProvider: the first run of a class builds
/// the state from its own (bit-identical) inputs and publishes it, every
/// later run skips the RCM analysis and/or the base LU factorization
/// entirely — its dirtied-matrix refactorizations reuse the checked-out
/// ordering too. That turns an N-corner RHS-only sweep's N base
/// factorizations into exactly one per numeric-base class — the source
/// paper's build-once-use-everywhere economy applied to the solver itself.

#include <cstdint>
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
  /// Lazily factors (or checks out) the base matrix on the first clean
  /// Newton iteration; returns true when a factorization actually ran
  /// (the caller counts it). Reads work_sp_, which holds untouched base
  /// values at the call site.
  bool ensureBaseFactored(double* t_factor, obs::RunTelemetry* tel);
  /// End-of-run health probes (obs/health.h): one relative residual of the
  /// final solve against the current system, and (optionally) one Hager
  /// condition estimate on whichever factorization is cached — never a
  /// refactorization. `any_solve` gates the residual (x_new_ is garbage if
  /// no Newton iteration ever solved).
  void collectEndOfRunHealth(const obs::HealthOptions& hopt, obs::NumericalHealth& h,
                             bool any_solve);
  /// The base factorization to solve with (shared or private).
  const BandedLu<double>& baseLu() const { return shared_base_ ? *shared_base_ : base_lu_; }

  Circuit& circuit_;
  TransientOptions opt_;
  std::size_t n_unknowns_ = 0;

  // --- symbolic piece: base pattern + ordering ---
  SparseMatrix base_sp_;  ///< finalized static base (pattern + values)
  /// Ordering of the assembled pattern (checked out, built or private).
  std::shared_ptr<const SolverSymbolic> symbolic_;
  std::vector<std::size_t> grown_order_;  ///< private re-order after growth
  /// The ordering every factorization uses: symbolic_'s while the pattern
  /// is the assembled one, else grown_order_.
  const std::vector<std::size_t>* order_ = nullptr;
  /// Pattern version right after assembly. Shared symbolic/numeric state
  /// describes *this* pattern; if dynamic stamps grow it, the run re-orders
  /// privately, exactly as a sharing-disabled run would.
  std::uint64_t assembled_pattern_version_ = 0;

  // --- numeric base piece: static base factorization ---
  BandedLu<double> base_lu_;  ///< private base LU when not shared
  std::shared_ptr<const SolverNumericBase> shared_base_;
  bool base_factored_ = false;

  // --- per-run Newton/RHS workspaces: never shared ---
  Vector x_;
  Vector x_new_;
  StampSystem sys_;
  SparseMatrix work_sp_;       ///< dirtied/value-refreshed working copy
  BandedLu<double> work_lu_;   ///< refactored when a dynamic stamp dirties
  Vector lu_scratch_;          ///< caller workspace for shared solves
  /// Most recent factorization used.
  const BandedLu<double>* last_lu_ = nullptr;
  bool matrix_was_dirtied_ = false;
};

}  // namespace fdtdmm
