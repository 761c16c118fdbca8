#pragma once
/// \file solver_state.h
/// Shareable solver state for cross-run symbolic reuse.
///
/// The solver state of both MNA engines (circuit/solver_session.h and
/// freq/ac_engine.h; one sparse path: CSR assembly + RCM-ordered banded
/// LU) has two lifetimes:
///
///   1. *symbolic* state — the compiled CSR pattern of the system and its
///      fill-reducing RCM ordering. Both are pure functions of the
///      circuit's structure, so every run whose circuit has the same
///      structure compiles the identical pattern and computes the identical
///      ordering. This is the one shareable piece.
///   2. per-run numeric state — the stamped values, the factorization of
///      the static base matrix (AC: of each frequency point), its low-rank
///      update, the Newton/RHS workspaces and any fallback
///      refactorization. Never shared: each run factors its own base once.
///
/// This header defines the immutable shared form of (1) plus the
/// SolverStateProvider interface through which a session checks it out.
/// The provider contract is exactly-once: for a given key, the builder
/// callback runs in exactly one session and every other session (on any
/// thread) receives the published object. The engine layer implements it
/// with a keyed cache (engine/solver_state_cache.h); the circuit layer only
/// sees this interface, so the dependency arrow keeps pointing upward.
///
/// Every session, shared or not, runs the same checkout (resolveSymbolic):
/// it adopts a compiled pattern into its target matrix and stamps its
/// values straight into it, in element order. A session that checks its
/// class out therefore builds no coordinate list, sorts nothing and orders
/// nothing.
///
/// A structure key should only be shared between runs whose patterns are
/// identical. Scenario families derive it from exactly the parameters that
/// shape the static pattern (core/scenario.h, structureKey); an empty key
/// opts out of sharing. Because the pattern and the ordering are built by
/// an ordinary run from its own stamps, and values are summed in element
/// order either way, checking them out never changes results — waveforms
/// and metrics are byte-identical with sharing on or off. A wrong key can
/// cost time and band width but never correctness:
///
///   - on another dimension the checkout cannot fit, so the run compiles
///     and orders its own pattern privately, exactly as a sharing-off run;
///   - on the same dimension the run adopts the wrong pattern. Entries it
///     lacks overflow on the value stamp and are folded into a private
///     pattern (CsrMatrix::mergeOverflow), extra entries stay explicit
///     zeros, and the run keeps the checked-out ordering: any permutation
///     factors the same system.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "math/sparse_matrix.h"
#include "obs/health.h"
#include "obs/telemetry.h"

namespace fdtdmm {

/// Immutable shared symbolic state of one structure class: the compiled
/// CSR pattern of the static base (AC: of the complex system) and its RCM
/// ordering (order[new] = old).
struct SolverSymbolic {
  CsrPattern pattern;                  ///< the class pattern; pattern.n is its dimension
  std::vector<std::size_t> rcm_order;  ///< reverseCuthillMcKee(pattern)
};

/// Exactly-once provider of shared solver state, keyed by the scenario
/// layer's structure keys. Implementations must guarantee that for each
/// key the builder runs exactly once even under concurrent lookups, and
/// that a builder that throws publishes nothing (the next lookup retries).
/// Returned objects are immutable and safe to use from any thread.
class SolverStateProvider {
 public:
  virtual ~SolverStateProvider();

  using SymbolicBuilder = std::function<std::shared_ptr<const SolverSymbolic>()>;

  virtual std::shared_ptr<const SolverSymbolic> symbolic(
      const std::string& key, const SymbolicBuilder& build) = 0;
};

/// Sharing handles a run carries into the solver (TransientOptions).
/// Default-constructed = no sharing.
struct SolverSharing {
  /// Provider the session checks state out of (not owned; must outlive the
  /// run). Null disables sharing entirely.
  SolverStateProvider* provider = nullptr;
  std::string structure_key;  ///< symbolic-state class; "" = don't share
  /// Optional sweep-wide numerical-health switches (obs/health.h): the
  /// runner points every corner at one HealthOptions so collection is
  /// configured in exactly one place (not owned; must outlive the run).
  /// A run's own TransientOptions::health wins when its collect flag is
  /// set. Rides SolverSharing because it is the existing runner-to-solver
  /// configuration channel, although it shares no state itself.
  const obs::HealthOptions* health = nullptr;

  bool shareSymbolic() const { return provider != nullptr && !structure_key.empty(); }
};

/// Stamps a session's structural entries into a building matrix.
template <typename Scalar>
using PatternStamp = std::function<void(CsrMatrix<Scalar>&)>;

/// The symbolic checkout of both MNA engines (SolverSession and the AC
/// engine's AcSession). With symbolic sharing on, the class state is
/// checked out of sharing.provider under sharing.structure_key; when this
/// run is the first of its class, `stamp` runs on a building matrix, which
/// is compiled, ordered and published. Otherwise, or when the checkout's
/// dimension is not `n` (the structure key lied or collided), the run
/// compiles and orders privately, which degrades the sharing but never the
/// result. Never returns null.
///
/// Postcondition, in every case: `target` is finalized on the returned
/// pattern with zero values. The caller then stamps its values into it in
/// element order and folds any overflow (only a wrong key on the same
/// dimension causes one; see the file comment).
///
/// Bookkeeping goes to `tel` when non-null: pattern_compiles and
/// rcm_orderings count a compile and ordering performed here (the class's
/// build or a private one), and shared_symbolic_builds /
/// shared_symbolic_reuses count the checkout.
template <typename Scalar>
std::shared_ptr<const SolverSymbolic> resolveSymbolic(const SolverSharing& sharing,
                                                      std::size_t n,
                                                      const PatternStamp<Scalar>& stamp,
                                                      CsrMatrix<Scalar>& target,
                                                      obs::RunTelemetry* tel);

/// Round-trip-exact double formatting for the numeric parameters of a
/// structure key. Two different values must never collapse to one key:
/// %g's 6 significant digits would merge e.g. 50.0 and 50.0000001 (two
/// skin fits sharing one pattern); %.17g round-trips every double.
inline std::string solverKeyNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace fdtdmm
