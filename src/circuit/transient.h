#pragma once
/// \file transient.h
/// Fixed-step transient analysis of a Circuit: theta-method companion
/// models for reactive elements and Newton-Raphson on the nonlinear MNA
/// system at every step (the standard SPICE algorithm), run on the ports
/// of the nonlinear devices alone, as the paper's FDTD engine solves each
/// device on its own port equation (Eq. (8) with the device law).
///
/// Stamp contract
/// --------------
/// The engine exploits the Element::stampStatic / stampRhs / port-law
/// split (circuit/elements.h):
///
///  1. After Element::begin(dt), every element's stampStatic is assembled
///     exactly once into a *base matrix* A0 (R/C/L companion conductances,
///     source and line incidence rows), with every port stencil of the
///     nonlinear elements reserved as structural zeros. Static stamps may
///     only write to the matrix; a static RHS contribution would be lost
///     when the RHS is rebuilt each time point, so the engine rejects it
///     (std::logic_error).
///  2. A0 is LU-factored once, and its port reduction Z = A0^-1 P (one
///     substitution per port, math/low_rank_update.h) built once. Every
///     time point then stamps the RHS once (stampRhs: sources, companion
///     histories, series EMFs, line reflections) and substitutes once for
///     the response y. A linear circuit (no ports) is solved by that one
///     substitution: one LU per run, one substitution per time point.
///  3. A nonlinear circuit runs Newton on its k port voltages, the
///     network's Thevenin view from its ports: v = P^T y - Zp i(v), with
///     Zp = P^T Z. Each iteration costs one evaluation of every port law
///     and one k x k solve; the step of each port voltage is limited to
///     TransientOptions::max_delta_v, and an iterate is accepted when its
///     largest unknown update is at most v_tolerance (bounded through the
///     column maxima of |Z|, with no O(n) pass per iteration). The
///     unknowns are recovered once, x = y - Z i, in O(n k). The run
///     refactors the base plus the port linearization instead when it has
///     more than kMaxUpdateRank ports (transistor-level circuits, every
///     iteration), when the base alone is singular (every iteration), or
///     when an iteration's port system would cancel (that iteration; see
///     circuit/solver_session.h). No allocations happen inside the loop.
///
/// Sparse assembly and factorization
/// ---------------------------------
/// There is one solver path. The static stamps build a compressed-sparse-
/// row *symbolic pattern* once (StampSystem::add writes every element
/// stamp into its SparseMatrix target), and every factorization is a
/// BandedLu<double> — reverse Cuthill-McKee fill-reducing ordering plus
/// banded LU with partial pivoting. The ordering is computed once per run
/// (or checked out of a SolverStateProvider) and reused by every
/// factorization of that pattern; since every port stencil is static, the
/// pattern never grows. Segmented RLGC board models are chain-structured,
/// so the permuted bandwidth b stays O(1) in the segment count: a
/// factorization costs O(n b^2) and a substitution O(n b).
///
/// The dense full-restamp loop (every element's static stamp and its
/// linearization, factored densely each Newton iteration) is kept only in
/// the test tree, as the reference oracle the sparse path is checked
/// against.

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
  /// Newton convergence: an iterate is accepted once no unknown moved by
  /// more than this (volts and amperes alike) from the previous iterate,
  /// the previous time point's solution for the first one.
  double v_tolerance = 1e-9;
  /// Largest step of a port voltage of a nonlinear device per Newton
  /// iteration [V]; 0 turns limiting off. An iteration whose step is
  /// limited, and the one after it, are never accepted. Other unknowns
  /// (node voltages off the ports, branch currents) are never limited.
  double max_delta_v = 1.0;
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
  /// its collect flag is set (SolverSharing::healthFor).
  obs::HealthOptions health;
  /// Optional cross-run solver-state sharing (see circuit/solver_state.h).
  /// Default-constructed (null provider) = no sharing. With a provider, a
  /// run whose circuit has a structure class checks its compiled pattern
  /// and RCM ordering out of the provider instead of computing them, and
  /// stamps its static values into that pattern; results are bit-identical
  /// either way. The run always factors its own base matrix.
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
  int max_newton_iterations = 0;           ///< worst step (1 on a linear circuit)
  long long total_newton_iterations = 0;   ///< one per time point on a linear circuit
  /// LU factorizations performed. Exactly 1 for a linear circuit and for a
  /// nonlinear one whose every iteration is a port solve; up to
  /// total_newton_iterations (+1 for the base) when the fallbacks refactor.
  long long lu_factorizations = 0;
  /// Newton iterations of a nonlinear circuit solved through the port
  /// reduction of the base factorization instead of refactoring (0 on a
  /// linear circuit).
  long long low_rank_solves = 0;
  bool converged = true;  ///< false if any step hit the iteration cap

  /// Access with existence check. \throws std::out_of_range.
  const Waveform& at(const std::string& label) const { return probes.at(label); }
};

/// Runs a transient analysis.
/// \throws std::invalid_argument on bad options, probe nodes out of range,
///         or duplicate probe labels (across node and branch probes alike —
///         a duplicate would silently shadow another probe's waveform).
/// \throws std::logic_error if an element's stampStatic writes to the RHS,
///         or an element declares ports without a port law.
/// \throws std::runtime_error if the Newton iteration diverges (non-finite
///         values); mere non-convergence is reported via `converged`.
TransientResult runTransient(Circuit& circuit, const TransientOptions& opt,
                             const std::vector<NodeProbe>& probes,
                             const std::vector<BranchProbe>& branch_probes = {});

}  // namespace fdtdmm
