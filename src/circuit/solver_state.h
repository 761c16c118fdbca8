#pragma once
/// \file solver_state.h
/// Shareable solver state for cross-run symbolic reuse.
///
/// The transient engine's solver state (circuit/solver_session.h; one
/// sparse path: CSR assembly + RCM-ordered banded LU) has two lifetimes:
///
///   1. *symbolic* state — the CSR pattern's fill-reducing RCM ordering.
///      A pure function of the matrix pattern, so every run whose circuit
///      has the same structure computes the identical ordering. This is
///      the one shareable piece.
///   2. per-run numeric state — the factorization of the static base
///      matrix, the Newton/RHS workspaces and every refactorization.
///      Never shared: each run factors its own base once.
///
/// This header defines the immutable shared form of (1) plus the
/// SolverStateProvider interface through which a session checks it out.
/// The provider contract is exactly-once: for a given key, the builder
/// callback runs in exactly one session and every other session (on any
/// thread) receives the published object. The engine layer implements it
/// with a keyed cache (engine/solver_state_cache.h); the circuit layer only
/// sees this interface, so the dependency arrow keeps pointing upward.
///
/// A structure key should only be shared between runs whose patterns are
/// identical. Scenario families derive it from exactly the parameters that
/// shape the static pattern (core/scenario.h, structureKey); an empty key
/// opts out of sharing. Because the ordering is built by an ordinary run
/// from its own pattern, checking it out never changes results —
/// waveforms and metrics are byte-identical with sharing on or off. A
/// wrong key can cost band width but never correctness: an ordering only
/// permutes the unknowns, and any permutation factors the same system
/// (resolveSymbolic also re-orders privately on a dimension mismatch).

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "math/sparse_matrix.h"
#include "obs/health.h"
#include "obs/telemetry.h"

namespace fdtdmm {

/// Immutable shared symbolic state of one structure class: the RCM
/// ordering of the static base pattern (order[new] = old).
struct SolverSymbolic {
  std::size_t n = 0;                   ///< matrix dimension the order permutes
  std::vector<std::size_t> rcm_order;  ///< reverseCuthillMcKee(base pattern)
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

/// The symbolic checkout of both MNA engines (SolverSession and the AC
/// engine's AcSession): resolves the RCM ordering a run factors its
/// assembled `pattern` with. With symbolic sharing on, the ordering is
/// checked out of sharing.provider under sharing.structure_key — built
/// from `pattern` and published when this run is the first of its class.
/// Otherwise, or when the checkout's dimension does not match `pattern`
/// (the structure key lied or collided), the run orders privately, which
/// degrades the sharing but never the result. Never returns null.
///
/// Bookkeeping goes to `tel` when non-null: rcm_orderings counts an
/// ordering computed here (the class's build or a private one), and
/// shared_symbolic_builds / shared_symbolic_reuses count the checkout.
std::shared_ptr<const SolverSymbolic> resolveSymbolic(const SolverSharing& sharing,
                                                      const SparseMatrix& pattern,
                                                      obs::RunTelemetry* tel);

/// Round-trip-exact double formatting for cache keys (a numeric structure
/// parameter, or the result cache's content keys in
/// engine/result_cache.h). Two different values must never collapse to
/// one key: %g's 6 significant digits would merge e.g. 50.0 and 50.0000001
/// (silently replaying the wrong corner); %.17g round-trips every double.
inline std::string solverKeyNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace fdtdmm
