// Tests for numerical-health monitoring (obs/health.h): the pinned
// grading table over singular-ish / near-singular / well-conditioned MNA
// fixtures, the Hager condition estimate against a dense exact inverse
// 1-norm (within 10x on systems up to 64 unknowns — the acceptance bound),
// record/merge semantics, and end-to-end collection on all three LU paths
// (dense LuFactorization, banded BandedLu, complex AC).
#include "obs/health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "circuit/rlgc_line.h"
#include "circuit/transient.h"
#include "dense_oracle.h"
#include "freq/ac_engine.h"
#include "math/banded_lu.h"
#include "math/linear_solve.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {
namespace obs {
namespace {

TEST(Health, SeverityNames) {
  EXPECT_STREQ(healthSeverityName(HealthSeverity::kOk), "ok");
  EXPECT_STREQ(healthSeverityName(HealthSeverity::kWarn), "warn");
  EXPECT_STREQ(healthSeverityName(HealthSeverity::kCritical), "critical");
}

// A record shaped like a healthy run, to be perturbed per table row.
NumericalHealth healthyRecord() {
  NumericalHealth h;
  h.collected = true;
  h.factorizations = 1;
  h.min_abs_pivot = 0.1;
  h.max_pivot_growth = 1.5;
  h.condition_estimates = 1;
  h.max_condition_estimate = 1e3;
  h.residual_checks = 1;
  h.max_relative_residual = 1e-14;
  h.newton_steps_converged = 10;
  return h;
}

// The pinned grading table: each row perturbs one signal of the healthy
// record and states the severity the default thresholds must assign. The
// three tiers mirror the fixture families the sweeps actually produce —
// well-conditioned (everything small), near-singular (condition/residual
// in the warn band), and singular-ish (critical band).
TEST(Health, GradingTableIsPinned) {
  struct Row {
    const char* what;
    void (*perturb)(NumericalHealth&);
    HealthSeverity expected;
  };
  const Row rows[] = {
      {"well-conditioned", [](NumericalHealth&) {}, HealthSeverity::kOk},
      {"residual at warn edge",
       [](NumericalHealth& h) { h.max_relative_residual = 1e-8; },
       HealthSeverity::kWarn},
      {"residual mid warn band",
       [](NumericalHealth& h) { h.max_relative_residual = 1e-6; },
       HealthSeverity::kWarn},
      {"residual critical",
       [](NumericalHealth& h) { h.max_relative_residual = 1e-3; },
       HealthSeverity::kCritical},
      {"near-singular condition",
       [](NumericalHealth& h) { h.max_condition_estimate = 1e11; },
       HealthSeverity::kWarn},
      {"singular-ish condition",
       [](NumericalHealth& h) { h.max_condition_estimate = 1e14; },
       HealthSeverity::kCritical},
      {"pivot growth warn",
       [](NumericalHealth& h) { h.max_pivot_growth = 1e9; },
       HealthSeverity::kWarn},
      {"pivot growth critical",
       [](NumericalHealth& h) { h.max_pivot_growth = 1e13; },
       HealthSeverity::kCritical},
      {"stagnated Newton step",
       [](NumericalHealth& h) { h.newton_steps_stagnated = 1; },
       HealthSeverity::kWarn},
      {"diverged Newton step",
       [](NumericalHealth& h) { h.newton_steps_diverged = 1; },
       HealthSeverity::kCritical},
      {"just below warn thresholds",
       [](NumericalHealth& h) {
         h.max_relative_residual = 9e-9;
         h.max_condition_estimate = 9e9;
         h.max_pivot_growth = 9e7;
       },
       HealthSeverity::kOk},
  };
  for (const Row& row : rows) {
    NumericalHealth h = healthyRecord();
    row.perturb(h);
    gradeHealth(h, HealthThresholds{});
    EXPECT_EQ(h.severity, row.expected) << row.what;
  }
}

TEST(Health, GradingIsMonotoneAndSkipsUncollected) {
  NumericalHealth h = healthyRecord();
  h.max_relative_residual = 1.0;
  gradeHealth(h, HealthThresholds{});
  EXPECT_EQ(h.severity, HealthSeverity::kCritical);
  // Re-grading with perfect numbers never downgrades.
  h.max_relative_residual = 1e-15;
  gradeHealth(h, HealthThresholds{});
  EXPECT_EQ(h.severity, HealthSeverity::kCritical);

  NumericalHealth untouched;  // collected == false
  untouched.max_relative_residual = 1.0;
  gradeHealth(untouched, HealthThresholds{});
  EXPECT_EQ(untouched.severity, HealthSeverity::kOk);  // "never looked"
}

TEST(Health, CustomThresholdsShiftTheBands) {
  HealthThresholds strict;
  strict.residual_warn = 1e-12;
  strict.residual_critical = 1e-10;
  NumericalHealth h = healthyRecord();  // residual 1e-14: still ok
  gradeHealth(h, strict);
  EXPECT_EQ(h.severity, HealthSeverity::kOk);
  h = healthyRecord();
  h.max_relative_residual = 1e-11;
  gradeHealth(h, strict);
  EXPECT_EQ(h.severity, HealthSeverity::kWarn);
}

TEST(Health, RecordFactorizationTracksExtrema) {
  NumericalHealth h;
  EXPECT_FALSE(h.collected);
  h.recordFactorization(1e-3, 2.0);
  h.recordFactorization(1e-6, 5.0);
  h.recordFactorization(1e-4, 1.0);
  EXPECT_TRUE(h.collected);
  EXPECT_EQ(h.factorizations, 3);
  EXPECT_DOUBLE_EQ(h.min_abs_pivot, 1e-6);
  EXPECT_DOUBLE_EQ(h.max_pivot_growth, 5.0);
}

TEST(Health, RecordNewtonStepKeepsWorstTrajectory) {
  NumericalHealth h;
  h.recordNewtonStep({1e-1, 1e-4, 1e-9}, NewtonOutcome::kConverged);
  h.recordNewtonStep({1e-1, 1e-2, 1e-2, 1e-2, 1e-2}, NewtonOutcome::kStagnated);
  h.recordNewtonStep({1e-3, 1e-8}, NewtonOutcome::kConverged);
  EXPECT_EQ(h.newton_steps_converged, 2);
  EXPECT_EQ(h.newton_steps_stagnated, 1);
  ASSERT_EQ(h.worst_newton_trajectory.size(), 5u);  // most iterations wins
  // Same length, larger final |dx| wins the tie.
  h.recordNewtonStep({1e-1, 1e-2, 1e-2, 1e-2, 5e-2}, NewtonOutcome::kStagnated);
  EXPECT_DOUBLE_EQ(h.worst_newton_trajectory.back(), 5e-2);
  // The stored trajectory is bounded for forensics, not unbounded growth.
  std::vector<double> long_traj(100, 1.0);
  h.recordNewtonStep(long_traj, NewtonOutcome::kDiverged);
  EXPECT_EQ(h.worst_newton_trajectory.size(), NumericalHealth::kMaxTrajectory);
}

TEST(Health, MergeAggregatesFieldWise) {
  NumericalHealth a = healthyRecord();
  a.severity = HealthSeverity::kWarn;
  NumericalHealth b = healthyRecord();
  b.severity = HealthSeverity::kCritical;
  b.min_abs_pivot = 1e-9;
  b.max_pivot_growth = 7.0;
  b.max_relative_residual = 1e-5;
  b.newton_steps_converged = 3;
  a.merge(b);
  EXPECT_EQ(a.severity, HealthSeverity::kCritical);
  EXPECT_EQ(a.factorizations, 2);
  EXPECT_DOUBLE_EQ(a.min_abs_pivot, 1e-9);
  EXPECT_DOUBLE_EQ(a.max_pivot_growth, 7.0);
  EXPECT_EQ(a.condition_estimates, 2);
  EXPECT_EQ(a.residual_checks, 2);
  EXPECT_DOUBLE_EQ(a.max_relative_residual, 1e-5);
  EXPECT_EQ(a.newton_steps_converged, 13);

  // Merging an uncollected record is a no-op; merging INTO one adopts.
  NumericalHealth untouched;
  a.merge(untouched);
  EXPECT_EQ(a.factorizations, 2);
  untouched.merge(a);
  EXPECT_TRUE(untouched.collected);
  EXPECT_EQ(untouched.factorizations, 2);
}

// --- the Hager estimator vs the exact inverse norm ------------------------

// ||A^-1||_1 computed exactly (to solve roundoff): solve A x = e_j for
// every basis vector and take the largest column abs-sum. O(n^2) solves —
// fine at n <= 64, which is exactly why the acceptance bound is stated on
// small systems.
double exactInverseNorm1(const Matrix& a) {
  LuFactorization lu(a);
  const std::size_t n = a.rows();
  Vector e(n, 0.0), x;
  double norm = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    e.assign(n, 0.0);
    e[j] = 1.0;
    lu.solve(e, x);
    double col = 0.0;
    for (double v : x) col += std::abs(v);
    norm = std::max(norm, col);
  }
  return norm;
}

void expectEstimateWithin10x(const Matrix& a, const char* what) {
  LuFactorization lu(a);
  const SolveFn solve = [&lu](const Vector& b, Vector& x) { lu.solve(b, x); };
  const SolveFn solve_t = [&lu](const Vector& b, Vector& x) {
    lu.solveTranspose(b, x);
  };
  const double est = estimateInverseNorm1(a.rows(), solve, solve_t);
  const double exact = exactInverseNorm1(a);
  // Hager's estimate is a lower bound on ||A^-1||_1; the acceptance
  // criterion bounds how far below it may sit.
  EXPECT_LE(est, exact * (1.0 + 1e-6)) << what;
  EXPECT_GE(est, exact / 10.0) << what;
}

Matrix randomDiagonallyDominant(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = u(rng);
      off += std::abs(a(i, j));
    }
    a(i, i) = off + 1.0 + u(rng) * 0.1;
  }
  return a;
}

// An MNA-shaped stiffness gradient: a resistor chain whose conductances
// span `decades` orders of magnitude — the way a sweep corner actually
// goes near-singular (a huge G next to a tiny one), not a textbook
// Hilbert matrix.
Matrix gradedConductanceChain(std::size_t n, double decades) {
  Matrix a(n, n);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double g =
        std::pow(10.0, decades * static_cast<double>(k) / static_cast<double>(n - 1));
    a(k, k) += g;
    a(k + 1, k + 1) += g;
    a(k, k + 1) -= g;
    a(k + 1, k) -= g;
  }
  a(0, 0) += 1.0;  // ground leak so the chain is nonsingular
  return a;
}

TEST(Health, ConditionEstimateWithin10xOfExactDense) {
  for (std::size_t n : {4u, 8u, 24u, 64u}) {
    expectEstimateWithin10x(randomDiagonallyDominant(n, 100 + static_cast<std::uint32_t>(n)),
                            "diag-dominant");
  }
  expectEstimateWithin10x(gradedConductanceChain(32, 6.0), "graded 1e6");
  expectEstimateWithin10x(gradedConductanceChain(64, 9.0), "graded 1e9");
  // A genuinely near-singular fixture: the estimate must still land
  // within 10x AND large enough to grade warn/critical.
  const Matrix near_singular = gradedConductanceChain(48, 12.0);
  expectEstimateWithin10x(near_singular, "graded 1e12");
  LuFactorization lu(near_singular);
  const double est = estimateInverseNorm1(
      near_singular.rows(),
      [&lu](const Vector& b, Vector& x) { lu.solve(b, x); },
      [&lu](const Vector& b, Vector& x) { lu.solveTranspose(b, x); });
  EXPECT_GT(est * matrixNorm1(near_singular), 1e10);
}

TEST(Health, ConditionEstimateOnSparseFactorsMatchesDense) {
  // Same graded chain assembled as CSR and factored with the banded
  // sparse LU: the estimator only sees solve callbacks, so dense and
  // sparse paths must agree on the same matrix.
  const std::size_t n = 48;
  const Matrix dense = gradedConductanceChain(n, 8.0);
  SparseMatrix sparse(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (dense(i, j) != 0.0) sparse.add(i, j, dense(i, j));
  sparse.finalize();
  EXPECT_DOUBLE_EQ(matrixNorm1(sparse), matrixNorm1(dense));

  BandedLu<double> slu;
  slu.factor(sparse);
  const double est = estimateInverseNorm1(
      n, [&slu](const Vector& b, Vector& x) { slu.solve(b, x); },
      [&slu](const Vector& b, Vector& x) { slu.solveTranspose(b, x); });
  const double exact = exactInverseNorm1(dense);
  EXPECT_LE(est, exact * (1.0 + 1e-6));
  EXPECT_GE(est, exact / 10.0);
}

TEST(Health, EstimatorRejectsEmptySystem) {
  const SolveFn noop = [](const Vector&, Vector&) {};
  EXPECT_THROW(estimateInverseNorm1(0, noop, noop), std::invalid_argument);
}

// --- end-to-end collection on the solver paths ----------------------------

Circuit nonlinearFixture(int& out) {
  Circuit c;
  const int a = c.addNode();
  out = c.addNode();
  c.addVoltageSource(a, Circuit::kGround, [](double) { return 1.8; });
  c.addResistor(a, out, 50.0);
  c.addDiode(out, Circuit::kGround);
  c.addCapacitor(out, Circuit::kGround, 1e-12);
  return c;
}

Circuit ladderFixture(int& out) {
  Circuit c;
  const int src = c.addNode();
  const int in = c.addNode();
  out = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [](double t) { return t >= 0.0 ? 1.8 : 0.0; });
  c.addResistor(src, in, 60.0);
  RlgcParams p;
  p.r = 4.0;
  p.segments = 12;
  buildRlgcLine(c, in, Circuit::kGround, out, Circuit::kGround, p);
  c.addResistor(out, Circuit::kGround, 500.0);
  return c;
}

void expectHealthyTransientRecord(const NumericalHealth& h, const char* what) {
  EXPECT_TRUE(h.collected) << what;
  EXPECT_GT(h.factorizations, 0) << what;
  EXPECT_GT(h.min_abs_pivot, 0.0) << what;
  EXPECT_GT(h.max_pivot_growth, 0.0) << what;
  EXPECT_EQ(h.residual_checks, 1) << what;  // one post-run residual
  EXPECT_LT(h.max_relative_residual, 1e-8) << what;
  EXPECT_EQ(h.condition_estimates, 1) << what;
  EXPECT_GE(h.max_condition_estimate, 1.0) << what;
  EXPECT_GT(h.newton_steps_converged, 0) << what;
  EXPECT_EQ(h.newton_steps_diverged, 0) << what;
  EXPECT_EQ(h.severity, HealthSeverity::kOk) << what;
}

TEST(Health, TransientCollectsOnLinearAndNonlinearRuns) {
  // The diode run refactors on every iteration (the condition estimate
  // falls back to the last work factorization); the linear ladder solves
  // every iteration against its one base factorization.
  for (const bool nonlinear : {true, false}) {
    const char* what = nonlinear ? "nonlinear" : "ladder";
    int out = 0;
    Circuit c = nonlinear ? nonlinearFixture(out) : ladderFixture(out);
    RunTelemetry tel;
    TransientOptions opt;
    opt.dt = 2e-12;
    opt.t_stop = 100e-12;
    opt.telemetry = &tel;
    opt.health.collect = true;
    runTransient(c, opt, {{"v", out, 0}});
    expectHealthyTransientRecord(tel.health, what);
    EXPECT_FALSE(tel.health.worst_newton_trajectory.empty()) << what;
  }
}

TEST(Health, ConditionEstimateCanBeSkipped) {
  int out = 0;
  Circuit c = nonlinearFixture(out);
  RunTelemetry tel;
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.t_stop = 50e-12;
  opt.telemetry = &tel;
  opt.health.collect = true;
  opt.health.condition_estimate = false;
  runTransient(c, opt, {{"v", out, 0}});
  EXPECT_TRUE(tel.health.collected);
  EXPECT_EQ(tel.health.condition_estimates, 0);
  EXPECT_EQ(tel.health.residual_checks, 1);  // residual still runs
}

TEST(Health, CollectionIsOffByDefaultAndNeedsTelemetry) {
  int out = 0;
  {
    Circuit c = nonlinearFixture(out);
    RunTelemetry tel;
    TransientOptions opt;
    opt.dt = 2e-12;
    opt.t_stop = 50e-12;
    opt.telemetry = &tel;  // telemetry on, health off (default)
    runTransient(c, opt, {{"v", out, 0}});
    EXPECT_FALSE(tel.health.collected);
    EXPECT_EQ(tel.health.factorizations, 0);
  }
  {
    Circuit c = nonlinearFixture(out);
    TransientOptions opt;
    opt.dt = 2e-12;
    opt.t_stop = 50e-12;
    opt.health.collect = true;  // no telemetry sink: nowhere to record
    const TransientResult r = runTransient(c, opt, {{"v", out, 0}});
    EXPECT_FALSE(r.probes.empty());  // still runs fine
  }
}

TEST(Health, AcPathCollectsPivotsAndResidual) {
  Circuit circuit;
  const int s = circuit.addNode();
  const int out = circuit.addNode();
  VoltageSource* src =
      circuit.addVoltageSource(s, Circuit::kGround, [](double) { return 0.0; });
  src->setAcValue(Complex(1.0, 0.0));
  circuit.addResistor(s, out, 1e3);
  circuit.addCapacitor(out, Circuit::kGround, 1e-12);

  RunTelemetry tel;
  AcOptions opt;
  opt.telemetry = &tel;
  opt.health.collect = true;
  AcSession session(circuit, opt);
  const ComplexVector x = session.solveAt(2e8);
  EXPECT_TRUE(tel.health.collected);
  EXPECT_GT(tel.health.factorizations, 0);
  EXPECT_GT(tel.health.min_abs_pivot, 0.0);
  EXPECT_GE(tel.health.residual_checks, 1);
  EXPECT_LT(tel.health.max_relative_residual, 1e-10);
  // The health probes watched a correct solve: the dense reference agrees.
  EXPECT_LT(oracle::relativeGap(x, oracle::acDenseReference(circuit, 2e8)), 1e-12);
}

}  // namespace
}  // namespace obs
}  // namespace fdtdmm
