#pragma once
/// \file transient.h
/// Fixed-step transient analysis of a Circuit: theta-method companion
/// models for reactive elements and Newton-Raphson on the nonlinear MNA
/// system at every step (the standard SPICE algorithm).
///
/// Static/dynamic stamp contract
/// -----------------------------
/// The engine exploits the Element::stampStatic / stampDynamic split:
///
///  1. After Element::begin(dt), every element's stampStatic is assembled
///     exactly once into a *base matrix* (R/C/L companion conductances,
///     source and line incidence rows). Static stamps may only write to
///     the matrix; a static RHS contribution would be lost when the RHS is
///     rebuilt each iteration, so the engine rejects it (std::logic_error).
///     Behavioral ports reserve their Jacobian positions here as
///     structural zeros, so their dynamic stamps never grow the pattern.
///  2. The base matrix is LU-factored once. Inside the Newton loop only
///     stampDynamic runs: it rebuilds the RHS (sources, companion
///     histories, line reflections) and, for nonlinear devices, adds
///     Jacobian entries on top of the base values.
///  3. A dirty-pattern check (StampSystem::matrix_dirty, set by the matrix
///     stamp helpers) decides whether the cached base factorization is
///     still valid. A purely linear circuit therefore performs exactly ONE
///     LU factorization for the entire run — every Newton iteration is a
///     forward/back substitution — while circuits with nonlinear devices
///     re-factor only on iterations whose dynamic stamps touched the
///     matrix. No allocations happen inside the loop.
///
/// Sparse assembly and factorization
/// ---------------------------------
/// There is one solver path. The static stamps build a compressed-sparse-
/// row *symbolic pattern* once (StampSystem routes element writes into a
/// SparseMatrix target), numeric values are refreshed in place each
/// iteration, and every factorization is a BandedLu<double> — reverse
/// Cuthill-McKee fill-reducing ordering plus banded LU with partial
/// pivoting. The ordering is computed once per run (or checked out of a
/// SolverStateProvider) and reused by every factorization of that
/// pattern. Segmented RLGC board models are chain-structured, so the
/// permuted bandwidth b stays O(1) in the segment count: a factorization
/// costs O(n b^2) and a substitution O(n b). Dynamic stamps that touch
/// entries outside the static pattern (e.g. a MOSFET whose drain/source
/// orientation swaps) are buffered as pattern overflow; the engine then
/// widens the pattern once, re-orders, and continues — pattern growth
/// costs one recompile per new position set, not one per iteration.
///
/// The dense full-restamp loop over Element::stamp is kept only in the
/// test tree, as the reference oracle the sparse path is checked against.

#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/solver_state.h"
#include "obs/telemetry.h"
#include "signal/waveform.h"

namespace fdtdmm {

/// Options for a transient run.
struct TransientOptions {
  double dt = 1e-12;        ///< time step [s]; must be > 0
  double t_stop = 1e-9;     ///< end time [s]; must be > 0
  double settle_time = 0.0; ///< pre-roll with t < 0 to reach steady state
  int max_newton_iterations = 100;
  double v_tolerance = 1e-9;  ///< Newton convergence on max |dx|
  double max_delta_v = 1.0;   ///< per-iteration voltage damping clamp [V]
  /// Optional telemetry sink: when non-null the run *accumulates* its
  /// phase wall times (static stamp, factor, RHS stamp, solve, Newton
  /// loop) and solver counters into it (+=, so one sink can aggregate
  /// several runs — see obs/telemetry.h for the schema). Null keeps the
  /// Newton loop clock-free: every instrumentation point then costs one
  /// branch. Timings never influence results — waveforms are bit-identical
  /// with telemetry on or off.
  obs::RunTelemetry* telemetry = nullptr;
  /// Numerical-health collection (obs/health.h). With health.collect set
  /// AND telemetry attached, the run records factorization pivot stats, a
  /// Hager condition estimate on the cached factors, one post-run relative
  /// residual, and per-step Newton convergence quality into
  /// telemetry->health, then grades it against health.thresholds. Off (the
  /// default) the solver pays one branch per site and — as with telemetry —
  /// results are bit-identical either way. Sweeps enable collection for
  /// every corner via sharing.health instead; this per-run field wins when
  /// its collect flag is set.
  obs::HealthOptions health;
  /// Optional cross-run solver-state sharing (see circuit/solver_state.h).
  /// Default-constructed (null provider) = no sharing. With a provider and
  /// a non-empty structure key, the run checks its RCM ordering out of the
  /// provider instead of computing it; results are bit-identical either
  /// way when the key is honest (equal keys only for identical patterns).
  /// The run always factors its own base matrix.
  SolverSharing sharing;
};

/// A named voltage probe between two nodes.
struct NodeProbe {
  std::string label;
  int n1 = 0;  ///< positive node
  int n2 = 0;  ///< negative node (usually ground)
};

/// A named branch-current probe on a voltage source. The recorded value is
/// the current flowing from the source's n1 terminal through the source to
/// n2. Forcing a device port with a source and probing this current is how
/// the identification pipeline measures port currents.
struct BranchProbe {
  std::string label;
  const VoltageSource* source = nullptr;
};

/// Result of a transient run.
struct TransientResult {
  std::map<std::string, Waveform> probes;  ///< keyed by probe label
  std::size_t steps = 0;                   ///< accepted steps (t >= 0)
  int max_newton_iterations = 0;           ///< worst step
  long long total_newton_iterations = 0;
  /// LU factorizations performed. Exactly 1 when no dynamic stamp touches
  /// the matrix (purely linear circuits); up to total_newton_iterations
  /// (+1 for the base) otherwise.
  long long lu_factorizations = 0;
  bool converged = true;  ///< false if any step hit the iteration cap

  /// Access with existence check. \throws std::out_of_range.
  const Waveform& at(const std::string& label) const { return probes.at(label); }
};

/// Runs a transient analysis.
/// \throws std::invalid_argument on bad options, probe nodes out of range,
///         or duplicate probe labels (across node and branch probes alike —
///         a duplicate would silently shadow another probe's waveform).
/// \throws std::logic_error if an element's stampStatic writes to the RHS.
/// \throws std::runtime_error if the Newton iteration diverges (non-finite
///         values); mere non-convergence is reported via `converged`.
TransientResult runTransient(Circuit& circuit, const TransientOptions& opt,
                             const std::vector<NodeProbe>& probes,
                             const std::vector<BranchProbe>& branch_probes = {});

}  // namespace fdtdmm
