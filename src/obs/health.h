#pragma once
/// \file health.h
/// Numerical-health monitoring: per-run records of how *trustworthy* a
/// solve was, complementing the timing-only telemetry of obs/telemetry.h.
///
/// The sweep platform (engine/sweep_runner.h) happily reports a corner as
/// "ok" the moment runTransient returns — but a Monte Carlo draw can land
/// on a near-singular MNA matrix, Newton can limp to convergence by
/// hitting the iteration cap with a barely-shrinking update, and a badly
/// conditioned system can turn 1e-16 roundoff into 1e-6 answer error
/// without any exception firing. This module gives every run a
/// NumericalHealth record answering four questions:
///
///   1. Was the factorization stable?  min |pivot| and the element-growth
///      factor max|U|/max|A| are tracked (always, they are free next to
///      the factorization) by BandedLu (real and complex) and copied here
///      after every factorization —
///      including factorizations *checked out* of the shared-state cache,
///      whose stats were recorded by the corner that built them.
///   2. How conditioned was the system?  A Hager-style 1-norm condition
///      estimate (estimateInverseNorm1) runs on the already-cached
///      factors: a handful of O(n) / O(n b) substitutions, never a
///      refactorization, and never more than once per run.
///   3. Did the answer actually satisfy the system?  One post-run relative
///      residual ||A x - b||inf / ||b||inf against the final time step's
///      matrix and RHS.
///   4. Did Newton converge honestly?  Per-iteration |dx| trajectories are
///      classified converged / stagnated / diverged; the worst step's
///      trajectory is kept (bounded) for forensics.
///
/// gradeHealth() folds the record against configurable HealthThresholds
/// into ok / warn / critical — the severity that SweepResult aggregates
/// and the live ProgressReporter (obs/progress.h) streams mid-sweep.
///
/// Collection is opt-in (HealthOptions::collect, default off) and rides
/// the existing telemetry channel: the record lives inside RunTelemetry,
/// so it flows scenario -> TaskWaveforms -> SweepRunRecord -> telemetry
/// JSON without new plumbing. The disabled path costs one branch per
/// collection site, and metrics CSV/JSON stay byte-identical either way.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {
namespace obs {

/// Severity grade of a run (or an aggregate of runs). Ordered: larger is
/// worse, so merging takes the max.
enum class HealthSeverity { kOk = 0, kWarn = 1, kCritical = 2 };

/// Stable lower-case name used in telemetry JSON ("ok" / "warn" /
/// "critical").
const char* healthSeverityName(HealthSeverity s);

/// Grading thresholds. Defaults are deliberately loose: they flag systems
/// that are genuinely suspect in double precision, not merely imperfect.
struct HealthThresholds {
  double residual_warn = 1e-8;       ///< relative residual above this: warn
  double residual_critical = 1e-4;   ///< ... above this: critical
  double condition_warn = 1e10;      ///< 1-norm condition estimate: warn
  double condition_critical = 1e13;  ///< ... critical (~3 digits left)
  double growth_warn = 1e8;          ///< pivot growth max|U|/max|A|: warn
  double growth_critical = 1e12;
};

/// Per-run collection switches, carried by TransientOptions / AcOptions
/// (and pointed at by SolverSharing so a sweep configures every corner).
struct HealthOptions {
  /// Master switch. When false nothing is recorded and the solver paths
  /// pay exactly one branch per site. Collection also requires telemetry
  /// to be enabled (the record lives inside RunTelemetry).
  bool collect = false;
  /// Run the Hager condition estimator at end of run (a few extra
  /// substitutions on the cached factors). Meaningful only with collect.
  bool condition_estimate = true;
  HealthThresholds thresholds;
};

/// One step's Newton convergence classification.
enum class NewtonOutcome { kConverged, kStagnated, kDiverged };

/// The per-run health record; lives in RunTelemetry::health. Plain data,
/// merged field-wise (counts add, extrema take min/max) so
/// multi-transient scenarios aggregate exactly like the rest of the
/// telemetry.
struct NumericalHealth {
  /// True once any collection happened (distinguishes "healthy" from
  /// "never looked"). Merging ORs it.
  bool collected = false;

  /// Grade assigned by gradeHealth(); merging takes the worse grade.
  HealthSeverity severity = HealthSeverity::kOk;

  // -- factorization stability -------------------------------------------
  long long factorizations = 0;   ///< factorizations with stats recorded
  double min_abs_pivot = 0.0;     ///< smallest pivot across all of them
  double max_pivot_growth = 0.0;  ///< largest max|U|/max|A|

  // -- conditioning ------------------------------------------------------
  long long condition_estimates = 0;    ///< estimator invocations (<=1/run)
  double max_condition_estimate = 0.0;  ///< largest kappa_1 estimate

  // -- post-solve residual -----------------------------------------------
  long long residual_checks = 0;        ///< residual evaluations (<=1/run)
  double max_relative_residual = 0.0;   ///< largest ||Ax-b||inf/||b||inf

  // -- Newton convergence ------------------------------------------------
  long long newton_steps_converged = 0;
  long long newton_steps_stagnated = 0;  ///< cap hit, update not growing
  long long newton_steps_diverged = 0;   ///< cap hit, update growing
  /// |dx| per iteration of the worst step seen (most iterations; ties
  /// broken by larger final |dx|). Capped at kMaxTrajectory entries.
  std::vector<double> worst_newton_trajectory;

  static constexpr std::size_t kMaxTrajectory = 32;

  /// Records one factorization's pivot stats (call with minAbsPivot() /
  /// pivotGrowth() of any of the four LU classes).
  void recordFactorization(double min_pivot, double growth);

  /// Records one post-solve relative residual (see relativeResidual).
  void recordResidual(double relative_residual);

  /// Records one Newton step's trajectory (|dx| per iteration) and its
  /// outcome; keeps the trajectory if it is the worst so far.
  void recordNewtonStep(const std::vector<double>& trajectory, NewtonOutcome outcome);

  /// Field-wise aggregation (see struct comment).
  void merge(const NumericalHealth& o);
};

/// Folds the record against thresholds into a severity and stores it in
/// h.severity (monotone: never downgrades an already-worse grade).
/// Stagnated Newton steps grade warn; diverged grade critical.
void gradeHealth(NumericalHealth& h, const HealthThresholds& t);

/// Hager's 1-norm estimator of ||A^-1||_1 using only solves against an
/// existing factorization: `solve` must compute A x = b, `solveT`
/// A^T x = b (e.g. BandedLu::solve / solveTranspose). At most 5
/// forward+transpose solve pairs; the estimate is a provable lower bound
/// on ||A^-1||_1 and in practice within a small factor of it. Multiply by
/// onesNormDense/onesNormSparse of A to estimate kappa_1(A).
using SolveFn = std::function<void(const Vector& b, Vector& x)>;
double estimateInverseNorm1(std::size_t n, const SolveFn& solve, const SolveFn& solveT);

/// ||A||_1 (max column abs-sum) of a dense matrix.
double matrixNorm1(const Matrix& a);

/// ||A||_1 of a finalized CSR matrix.
double matrixNorm1(const SparseMatrix& a);

/// Relative residual ||A x - b||inf / ||b||inf of a solve against the
/// finalized CSR matrix it solved (a zero b divides by 1), for the real
/// transient and the complex AC systems alike. Row r accumulates -b[r],
/// then a_rk * x_k in CSR order. \throws std::invalid_argument if A is not
/// finalized or x, b do not have A's dimension.
template <typename Scalar>
double relativeResidual(const CsrMatrix<Scalar>& a, const std::vector<Scalar>& x,
                        const std::vector<Scalar>& b);

}  // namespace obs
}  // namespace fdtdmm
