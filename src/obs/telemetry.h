#pragma once
/// \file telemetry.h
/// Per-run telemetry carried from the solver hot paths up to the sweep
/// engine's telemetry export. Mirrors the documentation style of
/// engine/sweep_result.h: every field here is a key in the telemetry JSON
/// (writeSweepTelemetryJson), so this comment block doubles as the schema.
///
/// ## TransientPhases (JSON object "phases")
/// Wall-clock seconds accumulated inside runTransient, split by phase:
///
///   - stamp_static   one-time static assembly of the MNA base matrix
///                    (the symbolic checkout — pattern compile and RCM
///                    ordering unless checked out — plus the element
///                    stampStatic walk into the adopted pattern); on an AC
///                    corner, the checkout plus every solveAt's restamp:
///                    G + j*omega*B and the RHS at a new frequency, the
///                    RHS alone at the last factored one
///   - factor         LU factorizations: the base, plus the refactors of
///                    iterations the port reduction does not solve (more
///                    than kMaxUpdateRank ports, a singular base, a
///                    cancelling port system)
///   - rhs_stamp      the RHS stamp of each time point (stampRhs)
///   - solve          forward/back substitutions and the port reduction:
///                    Z's substitutions, the k x k port systems and the
///                    recoveries x = y - Z i
///   - newton         the whole solve of every time point (contains
///                    factor + rhs_stamp + solve plus the port-law
///                    evaluations and convergence checking; the remainder
///                    of the run's wall time is probe recording and element
///                    begin/end hooks)
///
/// ## RunTelemetry (one JSON object per corner)
/// Aggregated over every transient the scenario ran (a clean/disturbed
/// EMC pair merges two); an AC corner (freq/ac_engine.h) fills the
/// stamp_static, factor and solve phases, the LU count, the symbolic and
/// compile counters and structure:
///
///   - phases                   TransientPhases above
///   - lu_factorizations        total LU count (== 1 per linear transient
///                              — the paper's one-LU-per-run guarantee —
///                              so a linear single-transient corner reads
///                              exactly 1, with sharing on or off; so does
///                              a corner whose nonlinear devices are a few
///                              ports, such as a crosstalk corner)
///   - low_rank_solves          Newton iterations of a nonlinear circuit
///                              solved through the port reduction of the
///                              base factorization (math/low_rank_update.h)
///                              instead of refactoring; a crosstalk corner
///                              reads newton_iterations, a linear one 0
///   - newton_iterations        total Newton iterations (one per time
///                              point on a linear circuit)
///   - max_newton_iterations    worst single step
///   - steps                    accepted time steps (t >= 0)
///   - transient_runs           how many runTransient calls were merged
///   - shared_symbolic_builds   class patterns and orderings built and
///                              published to a SolverStateProvider
///                              (circuit/solver_state.h)
///   - shared_symbolic_reuses   class patterns and orderings checked out
///                              instead of built: such a session compiled
///                              and ordered nothing
///   - pattern_compiles         CSR pattern compiles the run performed:
///                              one finalize per session that builds its
///                              class or runs unshared; 0 for a session
///                              that checked its class out
///   - rcm_orderings            RCM orderings the run computed itself (one
///                              per transient or AC session; 0 for a
///                              session that checked its class out)
///   - workspace_reuses         AC sessions that took the numeric storage
///                              an earlier session of their thread kept
///                              (freq/ac_engine.h) instead of allocating
///                              it: an AC corner reads 1 unless it was its
///                              worker's first, a transient corner 0
///   - structure                StructureSize below, merged by max
///   - wall_seconds             scenario wall clock (set by the engine
///                              layer; the deliberately-unexported
///                              wall_seconds of sweep_result.h lands here)
///
///   - health                   NumericalHealth (obs/health.h): pivot /
///                              conditioning / residual / Newton-quality
///                              record, exported as the "health" object
///                              when collected (HealthOptions::collect)
///
/// ## StructureSize (JSON object "structure")
/// The size of the sparse system a run factored, so a corner's factor and
/// substitution times can be read against their O(n b^2) / O(n b) scaling:
///
///   - unknowns   MNA unknowns n
///   - nonzeros   CSR entries of the final pattern
///   - kl, ku     lower/upper bandwidth of the RCM-permuted matrix of the
///                factorization the run solved on last (the base, after a
///                substitution or a port solve)
///
/// Merging keeps the field-wise maximum (a multi-transient corner reports
/// its largest system).
///
/// Collection is opt-in per run (TransientOptions::telemetry); a null
/// pointer keeps the solver loops clock-free (one branch per span — see
/// obs/counters.h). The struct is plain data: merging is field-wise
/// addition (maximum for the max_* and structure fields) so
/// multi-transient scenarios aggregate naturally.

#include "obs/health.h"

namespace fdtdmm {
namespace obs {

/// Phase wall-time breakdown of runTransient; see the file comment.
struct TransientPhases {
  double stamp_static_seconds = 0.0;
  double factor_seconds = 0.0;
  double rhs_stamp_seconds = 0.0;
  double solve_seconds = 0.0;
  double newton_seconds = 0.0;

  TransientPhases& operator+=(const TransientPhases& o) {
    stamp_static_seconds += o.stamp_static_seconds;
    factor_seconds += o.factor_seconds;
    rhs_stamp_seconds += o.rhs_stamp_seconds;
    solve_seconds += o.solve_seconds;
    newton_seconds += o.newton_seconds;
    return *this;
  }
};

/// Structural size of a factored system; see the file comment.
struct StructureSize {
  long long unknowns = 0;
  long long nonzeros = 0;
  long long kl = 0;
  long long ku = 0;

  /// Field-wise maximum.
  void mergeMax(const StructureSize& o);
};

/// Per-corner solver telemetry; see the file comment for field meanings.
struct RunTelemetry {
  TransientPhases phases;
  long long lu_factorizations = 0;
  long long low_rank_solves = 0;
  long long newton_iterations = 0;
  int max_newton_iterations = 0;
  long long steps = 0;
  long long transient_runs = 0;
  long long shared_symbolic_builds = 0;
  long long shared_symbolic_reuses = 0;
  long long pattern_compiles = 0;
  long long rcm_orderings = 0;
  long long workspace_reuses = 0;
  StructureSize structure;
  double wall_seconds = 0.0;
  NumericalHealth health;

  /// Field-wise aggregation (wall_seconds adds too: it is "time spent",
  /// not "span of time", for a scenario that runs several transients).
  void merge(const RunTelemetry& o);
};

}  // namespace obs
}  // namespace fdtdmm
