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
///      the static base matrix (AC: of each frequency point), its port
///      reduction, the Newton/RHS workspaces and any fallback
///      refactorization. Never shared: each run factors its own base once.
///      Its storage may be reused sequentially on one thread — an AC
///      session takes the arrays its thread's previous session kept
///      (freq/ac_engine.h) — but its values never are: every run zeroes
///      and restamps them in element order.
///
/// This header defines the immutable shared form of (1) plus the
/// SolverStateProvider interface through which a session checks it out.
/// The provider contract is exactly-once: for a given structure class, the
/// builder callback runs in exactly one session and every other session
/// (on any thread) receives the published object. The engine layer
/// implements it with a keyed cache (engine/solver_state_cache.h); the
/// circuit layer only sees this interface, so the dependency arrow keeps
/// pointing upward.
///
/// Every session, shared or not, runs the same checkout (resolveSymbolic):
/// it adopts a compiled pattern into its target matrix and stamps its
/// values straight into it, in element order. A session that checks its
/// class out therefore builds no coordinate list, sorts nothing and orders
/// nothing.
///
/// The netlist names its structure class: Circuit::structureClass() is a
/// fingerprint of its node count and of each element's kind and nodes,
/// which is everything the patterns of both engines depend on. The
/// provider keys a state by that fingerprint and the engine whose system
/// it describes. Because the pattern and the ordering are built by an
/// ordinary run from its own stamps, and values are summed in element
/// order either way, checking them out never changes results — waveforms
/// and metrics are byte-identical with sharing on or off. Only a
/// fingerprint collision could hand a run a foreign class, and nothing
/// folds one: a checkout of another dimension throws std::logic_error, and
/// so does a stamp outside the adopted pattern (CsrMatrix::add); a wider
/// pattern would only hold explicit zeros.

#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "math/sparse_matrix.h"
#include "obs/health.h"
#include "obs/telemetry.h"

namespace fdtdmm {

class Circuit;

/// Immutable shared symbolic state of one structure class: the compiled
/// CSR pattern of the static base (AC: of the complex system) and its RCM
/// ordering (order[new] = old).
struct SolverSymbolic {
  CsrPattern pattern;                  ///< the class pattern; pattern.n is its dimension
  std::vector<std::size_t> rcm_order;  ///< reverseCuthillMcKee(pattern)
};

/// The engine whose system a symbolic state describes: one netlist stamps
/// one pattern into the transient (and DC) base and another into the AC
/// system.
enum class SolverEngine { kTransientBase, kAc };

/// What a provider keys its states by: a netlist fingerprint
/// (Circuit::structureClass) and an engine.
struct StructureClass {
  std::uint64_t fingerprint = 0;
  SolverEngine engine = SolverEngine::kTransientBase;

  bool operator<(const StructureClass& o) const {
    return std::tie(fingerprint, engine) < std::tie(o.fingerprint, o.engine);
  }
};

/// Exactly-once provider of shared solver state, keyed by structure class.
/// Implementations must guarantee that for each class the builder runs
/// exactly once even under concurrent lookups, and that a builder that
/// throws publishes nothing (the next lookup retries). Returned objects are
/// immutable and safe to use from any thread.
class SolverStateProvider {
 public:
  virtual ~SolverStateProvider();

  using SymbolicBuilder = std::function<std::shared_ptr<const SolverSymbolic>()>;

  virtual std::shared_ptr<const SolverSymbolic> symbolic(
      const StructureClass& key, const SymbolicBuilder& build) = 0;
};

/// Sharing handles a run carries into the solver (TransientOptions,
/// AcOptions). Default-constructed = no sharing.
struct SolverSharing {
  /// Provider the session checks state out of (not owned; must outlive the
  /// run). Null disables sharing entirely.
  SolverStateProvider* provider = nullptr;
  /// Optional sweep-wide numerical-health switches (obs/health.h): the
  /// runner points every corner at one HealthOptions so collection is
  /// configured in exactly one place (not owned; must outlive the run).
  /// Rides SolverSharing because it is the existing runner-to-solver
  /// configuration channel, although it shares no state itself.
  const obs::HealthOptions* health = nullptr;

  /// The health options a run collects under: its own `run` options when
  /// their collect flag is set, else the sweep-wide block when it collects;
  /// null when neither does.
  const obs::HealthOptions* healthFor(const obs::HealthOptions& run) const {
    if (run.collect) return &run;
    return health != nullptr && health->collect ? health : nullptr;
  }
};

/// Stamps a session's structural entries into a building matrix.
template <typename Scalar>
using PatternStamp = std::function<void(CsrMatrix<Scalar>&)>;

/// The symbolic checkout of both MNA engines (SolverSession and the AC
/// engine's AcSession). With a provider and a circuit that has a structure
/// class, the state is checked out of sharing.provider under {class,
/// engine}; when this run is the first of its class, `stamp` runs on a
/// building matrix, which is compiled, ordered and published. Without
/// either, the run compiles and orders privately. Never returns null.
///
/// Postcondition, in every case: `target` is finalized on the returned
/// pattern with zero values. The caller then stamps its values into it in
/// element order.
///
/// Bookkeeping goes to `tel` when non-null: pattern_compiles and
/// rcm_orderings count a compile and ordering performed here (the class's
/// build or a private one), and shared_symbolic_builds /
/// shared_symbolic_reuses count the checkout.
/// \throws std::logic_error when the checked-out state's dimension is not
///         `n` (a fingerprint collision).
template <typename Scalar>
std::shared_ptr<const SolverSymbolic> resolveSymbolic(const SolverSharing& sharing,
                                                      const Circuit& circuit,
                                                      SolverEngine engine, std::size_t n,
                                                      const PatternStamp<Scalar>& stamp,
                                                      CsrMatrix<Scalar>& target,
                                                      obs::RunTelemetry* tel);

}  // namespace fdtdmm
