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
///                    (element stampStatic walk + CSR pattern finalize +
///                    the pattern's RCM ordering, unless checked out)
///   - factor         LU factorizations (base + any refactor forced by a
///                    matrix-dirtying dynamic stamp)
///   - rhs_stamp      per-Newton-iteration dynamic stamping: base-matrix
///                    restore, RHS rebuild, nonlinear Jacobian entries
///   - solve          forward/back substitutions
///   - newton         the whole Newton loop (contains factor + rhs_stamp +
///                    solve plus convergence checking; the remainder of
///                    the run's wall time is probe recording and element
///                    begin/end hooks)
///
/// ## RunTelemetry (one JSON object per corner)
/// Aggregated over every transient the scenario ran (a clean/disturbed
/// EMC pair merges two); an AC corner (freq/ac_engine.h) fills the factor
/// and solve phases, the LU count, the symbolic counters and structure:
///
///   - phases                   TransientPhases above
///   - lu_factorizations        total LU count (== 1 per linear transient
///                              — the paper's one-LU-per-run guarantee —
///                              so a linear single-transient corner reads
///                              exactly 1, with sharing on or off)
///   - newton_iterations        total Newton iterations
///   - max_newton_iterations    worst single step
///   - steps                    accepted time steps (t >= 0)
///   - transient_runs           how many runTransient calls were merged
///   - pattern_realignments     sparse-pattern overflow recompiles (a
///                              dynamic stamp hit a structurally-new
///                              entry; see circuit/transient.h)
///   - shared_symbolic_builds   RCM orderings built and published to a
///                              SolverStateProvider (circuit/solver_state.h)
///   - shared_symbolic_reuses   RCM orderings checked out instead of built
///   - rcm_orderings            RCM orderings the run computed itself (one
///                              per transient or AC session and per pattern
///                              growth; 0 for a session that checked its
///                              ordering out)
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
///                run's last factorization
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
  long long newton_iterations = 0;
  int max_newton_iterations = 0;
  long long steps = 0;
  long long transient_runs = 0;
  long long pattern_realignments = 0;
  long long shared_symbolic_builds = 0;
  long long shared_symbolic_reuses = 0;
  long long rcm_orderings = 0;
  StructureSize structure;
  double wall_seconds = 0.0;
  NumericalHealth health;

  /// Field-wise aggregation (wall_seconds adds too: it is "time spent",
  /// not "span of time", for a scenario that runs several transients).
  void merge(const RunTelemetry& o);
};

}  // namespace obs
}  // namespace fdtdmm
