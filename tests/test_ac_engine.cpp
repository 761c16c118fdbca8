// Integration tests of the frequency-domain engine (freq/ac_engine.h,
// freq/ac_family.h) against closed-form circuit theory, the dense AC
// reference of tests/dense_oracle.h, the transient engine (DFT
// cross-validation), and the sweep engine's symbolic-sharing invariant.
#include "freq/ac_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "circuit/rlgc_line.h"
#include "circuit/transient.h"
#include "core/scenario.h"
#include "dense_oracle.h"
#include "engine/sweep_runner.h"
#include "freq/ac_family.h"
#include "freq/rational_fit.h"

namespace fdtdmm {
namespace {

constexpr double kPi = 3.14159265358979323846;

TimeFn dark() {
  return [](double) { return 0.0; };
}

// Single-pole RC low-pass driven by an ideal 1 V source: H = 1/(1 + jwRC),
// exact for the lumped circuit — the AC engine must hit it to roundoff,
// and so must the dense reference.
TEST(AcEngine, RcLowPassMatchesClosedForm) {
  const double r = 1e3, c = 1e-12, f = 2e8;
  Circuit circuit;
  const int s = circuit.addNode();
  const int out = circuit.addNode();
  VoltageSource* src = circuit.addVoltageSource(s, Circuit::kGround, dark());
  src->setAcValue(Complex(1.0, 0.0));
  circuit.addResistor(s, out, r);
  circuit.addCapacitor(out, Circuit::kGround, c);

  AcSession session(circuit, AcOptions{});
  const ComplexVector x = session.solveAt(f);
  const Complex h_ref = 1.0 / Complex(1.0, 2.0 * kPi * f * r * c);
  EXPECT_LT(std::abs(acNodeV(x, out) - h_ref), 1e-12);
  const ComplexVector x_ref = oracle::acDenseReference(circuit, f);
  EXPECT_LT(std::abs(acNodeV(x_ref, out) - h_ref), 1e-12);
  EXPECT_LT(oracle::relativeGap(x, x_ref), 1e-12);
}

// A non-finite frequency is an input error, not a NaN phasor: `f < 0` is
// false for NaN, and the banded LU's exact-zero pivot test never fires on
// NaN entries, so without the finiteness check an RC low-pass at f = NaN,
// or an ideal line's e^{-j w Td} at f = +inf, returns NaN phasors and no
// error.
TEST(AcEngine, RejectsNonFiniteFrequency) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double r = 1e3, c = 1e-12, f = 2e8;
  Circuit rc;
  const int s = rc.addNode();
  const int out = rc.addNode();
  rc.addVoltageSource(s, Circuit::kGround, dark())->setAcValue(Complex(1.0, 0.0));
  rc.addResistor(s, out, r);
  rc.addCapacitor(out, Circuit::kGround, c);
  AcSession rc_session(rc, AcOptions{});
  EXPECT_THROW(rc_session.solveAt(kNan), std::invalid_argument);
  EXPECT_THROW(rc_session.solveAt(kInf), std::invalid_argument);
  EXPECT_THROW(rc_session.solveAt(-1.0), std::invalid_argument);
  EXPECT_EQ(rc_session.factorizations(), 0u);
  const Complex h_ref = 1.0 / Complex(1.0, 2.0 * kPi * f * r * c);
  EXPECT_LT(std::abs(acNodeV(rc_session.solveAt(f), out) - h_ref), 1e-12);

  Circuit line;
  const int src = line.addNode();
  const int near = line.addNode();
  const int far = line.addNode();
  line.addVoltageSource(src, Circuit::kGround, dark())->setAcValue(Complex(1.0, 0.0));
  line.addResistor(src, near, 50.0);
  line.addIdealLine(near, Circuit::kGround, far, Circuit::kGround, 50.0, 1e-9);
  line.addResistor(far, Circuit::kGround, 50.0);
  AcSession line_session(line, AcOptions{});
  EXPECT_THROW(line_session.solveAt(kInf), std::invalid_argument);
  EXPECT_THROW(line_session.solveAt(kNan), std::invalid_argument);
  EXPECT_TRUE(std::isfinite(std::abs(acNodeV(line_session.solveAt(1e9), far))));
}

// The banded complex path against the dense reference on a lossy ladder
// with the skin-effect branch chain (the "ac" family's largest pattern):
// source and load ports, series R and L branches, shunt G and C.
TEST(AcEngine, LossySkinLadderMatchesDenseReference) {
  Circuit circuit;
  const int s = circuit.addNode();
  const int near = circuit.addNode();
  const int far = circuit.addNode();
  VoltageSource* src = circuit.addVoltageSource(s, Circuit::kGround, dark());
  src->setAcValue(Complex(1.0, 0.0));
  circuit.addResistor(s, near, 50.0);
  RlgcParams line;
  line.r = 5.0;
  line.g = 1e-3;
  line.segments = 32;
  buildRlgcLineSegments(circuit, near, Circuit::kGround, far, Circuit::kGround, line,
                        std::vector<SeriesRlBranch>{{40.0, 2e-8}, {400.0, 4e-9}});
  circuit.addResistor(far, Circuit::kGround, 75.0);
  circuit.addCapacitor(far, Circuit::kGround, 1e-12);

  AcSession session(circuit, AcOptions{});
  for (double f : {1e6, 3.16e8, 5e9}) {
    const ComplexVector x = session.solveAt(f);
    EXPECT_LT(oracle::relativeGap(x, oracle::acDenseReference(circuit, f)), 1e-9)
        << "f=" << f;
  }
}

// Counts the AC matrix stamps of its session; stamps nothing itself.
class StampAcCounter final : public Element {
 public:
  explicit StampAcCounter(int* calls) : calls_(calls) {}
  void stampAc(AcStampSystem&, double, const Vector&) const override { ++*calls_; }
  std::string name() const override { return "stampAc counter"; }

 private:
  int* calls_;
};

// The S-parameter extraction's shape: forward then reverse excitation at
// one frequency on one session. The second solve reuses the first one's
// factorization and matrix values (the matrix is unchanged): it restamps
// only the RHS, so no element stamps a matrix value for it. Both solutions
// are bitwise those of a fresh session per excitation; a new frequency
// restamps the matrix and refactors.
TEST(AcEngine, ExcitationsAtOneFrequencyShareOneFactorization) {
  VoltageSource* src1 = nullptr;
  VoltageSource* src2 = nullptr;
  const auto build = [&](Circuit& circuit) {
    const int s1 = circuit.addNode();
    const int p1 = circuit.addNode();
    const int p2 = circuit.addNode();
    const int s2 = circuit.addNode();
    src1 = circuit.addVoltageSource(s1, Circuit::kGround, dark());
    src2 = circuit.addVoltageSource(s2, Circuit::kGround, dark());
    circuit.addResistor(s1, p1, 50.0);
    circuit.addResistor(s2, p2, 50.0);
    RlgcParams line;
    line.r = 5.0;
    line.segments = 16;
    buildRlgcLine(circuit, p1, Circuit::kGround, p2, Circuit::kGround, line);
  };
  const double f = 3e8;
  const auto excite = [&](bool forward) {
    src1->setAcValue(Complex(forward ? 1.0 : 0.0, 0.0));
    src2->setAcValue(Complex(forward ? 0.0 : 1.0, 0.0));
  };
  const auto fresh = [&](bool forward) {
    Circuit circuit;
    build(circuit);
    excite(forward);
    AcSession session(circuit, AcOptions{});
    return session.solveAt(f);
  };
  const ComplexVector fresh_forward = fresh(true);
  const ComplexVector fresh_reverse = fresh(false);

  Circuit circuit;
  build(circuit);
  int stamps = 0;
  circuit.addElement(std::make_unique<StampAcCounter>(&stamps));
  obs::RunTelemetry tel;
  AcOptions opt;
  opt.telemetry = &tel;
  AcSession session(circuit, opt);
  excite(true);
  const ComplexVector forward = session.solveAt(f);
  const int forward_stamps = stamps;  // the pattern compile and one value stamp
  EXPECT_EQ(forward_stamps, 2);
  excite(false);
  const ComplexVector reverse = session.solveAt(f);
  EXPECT_EQ(stamps, forward_stamps);
  EXPECT_EQ(session.factorizations(), 1u);
  EXPECT_EQ(tel.lu_factorizations, 1);
  EXPECT_EQ(forward, fresh_forward);
  EXPECT_EQ(reverse, fresh_reverse);

  session.solveAt(2.0 * f);
  EXPECT_EQ(stamps, forward_stamps + 1);
  EXPECT_EQ(session.factorizations(), 2u);
  EXPECT_EQ(tel.lu_factorizations, 2);
  const ComplexVector& again = session.solveAt(2.0 * f);
  EXPECT_EQ(stamps, forward_stamps + 1);
  EXPECT_EQ(session.factorizations(), 2u);
  EXPECT_LT(oracle::relativeGap(again, oracle::acDenseReference(circuit, 2.0 * f)), 1e-9);
}

// H and the S-parameters of one frequency point via the "ac" family.
struct AcPoint {
  Complex h, s11, s21, s12, s22;
};

AcPoint acPoint(const AcScenario& cfg) {
  const TaskWaveforms w = runAcScenario(cfg);
  auto v = [&](std::size_t k) { return w.victims[k].samples()[0]; };
  AcPoint p;
  p.h = Complex(v(0), v(1));
  p.s11 = Complex(v(2), v(3));
  p.s21 = Complex(v(4), v(5));
  p.s12 = Complex(v(6), v(7));
  p.s22 = Complex(v(8), v(9));
  return p;
}

// The acceptance fixture: matched lossless ladder vs the exact line,
// H = 0.5 e^{-j w Td}. Magnitude within 2%, phase within 3 degrees across
// the band (well inside the 32-segment ladder's validity bandwidth).
TEST(AcEngine, MatchedLosslessLadderMatchesClosedForm) {
  AcScenario cfg;  // 50-ohm 10 cm lossless line, 32 segments
  const double td =
      cfg.line.length * std::sqrt(cfg.line.l * cfg.line.c);  // 0.5 ns
  for (double f : {1e6, 1e7, 1e8, 3e8, 1e9}) {
    cfg.frequency = f;
    const AcPoint p = acPoint(cfg);
    EXPECT_NEAR(std::abs(p.h), 0.5, 0.02 * 0.5) << "f=" << f;
    // Phase against -w Td, wrap-safe: rotate the expected phase away and
    // measure the residual angle.
    const double w = 2.0 * kPi * f;
    const double phase_err =
        std::abs(std::arg(p.h * std::exp(Complex(0.0, w * td))));
    EXPECT_LT(phase_err, 3.0 * kPi / 180.0) << "f=" << f;
  }
}

TEST(AcEngine, MatchedLineSParameters) {
  AcScenario cfg;
  cfg.frequency = 2.5e8;
  const AcPoint p = acPoint(cfg);
  // Matched and lossless: no reflection, |S21| = 1, reciprocal.
  EXPECT_LT(std::abs(p.s11), 0.02);
  EXPECT_LT(std::abs(p.s22), 0.02);
  EXPECT_NEAR(std::abs(p.s21), 1.0, 0.02);
  EXPECT_LT(std::abs(p.s21 - p.s12), 1e-9);
  // S21 = 2 H for the 1 V matched-source fixture.
  EXPECT_LT(std::abs(p.s21 - 2.0 * p.h), 1e-12);
}

// One solver: no "solver" parameter to bind, and the label keeps the
// "ac/sparse" prefix that exported rows and references are keyed by.
TEST(AcFamily, HasNoSolverParameterAndKeepsItsLabel) {
  auto s = ScenarioRegistry::global().create("ac");
  EXPECT_EQ(s->findParam("solver"), nullptr);
  EXPECT_THROW(s->set("solver", std::string("sparse")), std::invalid_argument);
  EXPECT_EQ(s->label(), "ac/sparse f=1e+08 z0=50 len=0.1 seg=32");
}

// Satellite check: the DFT of a sinusoidal steady-state transient must
// reproduce |H(jf)| — the time- and frequency-domain engines describe the
// same circuit.
TEST(AcEngine, TransientDftMatchesAcTransferOnRcFixture) {
  const double r = 1e3, c = 1e-12, f = 1e8;  // tau = 1 ns, T = 10 ns

  Circuit circuit;
  const int s = circuit.addNode();
  const int out = circuit.addNode();
  VoltageSource* src = circuit.addVoltageSource(
      s, Circuit::kGround, [f](double t) { return std::sin(2.0 * kPi * f * t); });
  src->setAcValue(Complex(1.0, 0.0));
  circuit.addResistor(s, out, r);
  circuit.addCapacitor(out, Circuit::kGround, c);

  double h_ac;
  {
    AcSession session(circuit, AcOptions{});
    h_ac = std::abs(acNodeV(session.solveAt(f), out));
  }

  TransientOptions opt;
  opt.dt = 1e-11;  // 1000 samples per period
  opt.t_stop = 45e-9;  // 15 tau settling + 3 full periods
  const auto res = runTransient(circuit, opt, {{"v", out, 0}});
  ASSERT_TRUE(res.converged);
  const Waveform& v = res.at("v");

  // Single-bin DFT over an integer number of periods of the settled tail.
  const double t_start = 15e-9, window = 30e-9;
  const std::size_t m = 3000;
  Complex acc(0.0, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const double t = t_start + window * static_cast<double>(k) / m;
    acc += v.value(t) * std::exp(Complex(0.0, -2.0 * kPi * f * t));
  }
  const double h_dft = 2.0 * std::abs(acc) / static_cast<double>(m);

  EXPECT_NEAR(h_dft, h_ac, 0.01 * h_ac);
}

// The tentpole invariant: a linear AC frequency sweep through the sweep
// engine performs exactly ONE complex symbolic analysis per structure
// class — frequency only changes matrix values, never the pattern.
TEST(AcEngine, FrequencySweepSharesOneSymbolicAnalysis) {
  SweepSpec spec;
  spec.scenario = "ac";
  spec.axis("frequency", {1e6, 1e7, 5e7, 1e8, 5e8, 1e9});

  SweepRunnerOptions opt;
  opt.workers = 2;
  SweepRunner runner(opt);
  const SweepResult result = runner.run(spec);

  EXPECT_EQ(result.okCount(), result.runs.size());
  EXPECT_EQ(result.solver_cache.symbolic_misses, 1);
  EXPECT_EQ(result.solver_cache.symbolic_hits, 5);
}

// Every AC corner reports its symbolic checkout and structural size in
// its telemetry, like a transient corner: one build or one reuse per
// corner, one RCM ordering for the whole sweep, and the banded system's
// size.
TEST(AcEngine, SweepTelemetryRecordsCheckoutAndStructure) {
  SweepSpec spec;
  spec.scenario = "ac";
  spec.axis("frequency", {1e6, 1e7, 1e8, 1e9});

  SweepRunnerOptions opt;
  opt.workers = 2;
  SweepRunner runner(opt);
  const SweepResult result = runner.run(spec);

  ASSERT_EQ(result.okCount(), result.runs.size());
  long long builds = 0, reuses = 0, orderings = 0;
  for (const SweepRunRecord& run : result.runs) {
    const obs::RunTelemetry& t = run.telemetry;
    builds += t.shared_symbolic_builds;
    reuses += t.shared_symbolic_reuses;
    orderings += t.rcm_orderings;
    EXPECT_EQ(t.shared_symbolic_builds + t.shared_symbolic_reuses, 1) << run.label;
    EXPECT_GT(t.structure.unknowns, 0) << run.label;
    EXPECT_GT(t.structure.nonzeros, t.structure.unknowns) << run.label;
    EXPECT_GT(t.structure.kl, 0) << run.label;
    EXPECT_GT(t.structure.ku, 0) << run.label;
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(reuses, 3);
  EXPECT_EQ(orderings, 1);
}

TEST(AcEngine, DcOperatingPointLinearFixtures) {
  // Divider: capacitors DC-open, inductors DC-short.
  Circuit circuit;
  const int s = circuit.addNode();
  const int mid = circuit.addNode();
  const int tail = circuit.addNode();
  circuit.addVoltageSource(s, Circuit::kGround, [](double) { return 10.0; });
  circuit.addResistor(s, mid, 1e3);
  circuit.addResistor(mid, Circuit::kGround, 1e3);
  circuit.addCapacitor(mid, Circuit::kGround, 1e-12);  // open: no DC load
  circuit.addResistor(mid, tail, 1e3);
  circuit.addInductor(tail, Circuit::kGround, 1e-9);  // short: pulls tail to 0

  const Vector x = dcOperatingPoint(circuit);
  // With the inductor shorting `tail`, mid sees 1k || 1k to ground: 10 V
  // across (1k + 500) -> v_mid = 10/3.
  EXPECT_NEAR(x[static_cast<std::size_t>(mid - 1)], 10.0 / 3.0, 1e-6);
  EXPECT_NEAR(x[static_cast<std::size_t>(tail - 1)], 0.0, 1e-6);
}

// dcOperatingPoint at the ac_skin_sweep size: the 1200-segment skin
// ladder of the "ac" family (line_r = 5 ohm/m, k_skin = 2e-4, 14405
// unknowns) between 50-ohm terminations, driven by 1 V DC. Capacitors are
// open and the inductors near-shorts, so the ports sit on the resistive
// divider of the line's 0.5 ohm. Summing the ~1e10 S dt = 1 s inductor
// companions into the diagonals rounds away up to eps * theta/L per node,
// a spurious shunt that grows with the square of the segment count: the
// stamped system itself sits 8.9e-9 (100 segments), 3.4e-8 (200) and
// 1.47e-6 (1200) relative off the divider — the first two checked against
// an 80-bit dense solve of the same stamps, and 3.4e-8 is also what the
// dense DC Newton read at 200 segments. The tolerance is 2e-6. A dense
// iterate at this size needs two n x n matrices (3.3 GB); the banded path
// takes about 15 ms in a Release build.
TEST(AcEngine, DcOperatingPointOfSkinLadderMatchesDivider) {
  Circuit circuit;
  const int p1 = circuit.addNode();
  const int p2 = circuit.addNode();
  const int s1 = circuit.addNode();
  const int s2 = circuit.addNode();
  circuit.addVoltageSource(s1, Circuit::kGround, [](double) { return 1.0; });
  circuit.addResistor(s1, p1, 50.0);
  circuit.addVoltageSource(s2, Circuit::kGround, [](double) { return 0.0; });
  circuit.addResistor(s2, p2, 50.0);
  RlgcParams line;
  line.r = 5.0;
  line.segments = 1200;
  const SkinEffectFit fit = fitSkinEffect(line.r, 2e-4, 1e6, 1e10, 4);
  line.l -= skinFitInductance(fit);
  std::vector<SeriesRlBranch> branches;
  for (const SkinBranch& b : fit.branches)
    if (b.r > 0.0 && b.l > 0.0) branches.push_back({b.r, b.l});
  buildRlgcLineSegments(circuit, p1, Circuit::kGround, p2, Circuit::kGround, line, branches);

  const Vector x = dcOperatingPoint(circuit);
  ASSERT_EQ(x.size(), 14405u);
  const double r_line = line.r * line.length;
  const double far = 50.0 / (100.0 + r_line);
  const double near = (50.0 + r_line) / (100.0 + r_line);
  EXPECT_NEAR(x[static_cast<std::size_t>(p2 - 1)], far, 2e-6 * far);
  EXPECT_NEAR(x[static_cast<std::size_t>(p1 - 1)], near, 2e-6 * near);
}

TEST(AcEngine, NonlinearSmallSignalRunsAboutDcPoint) {
  // Diode biased through a resistor: the AC solve linearizes about the DC
  // point (finite conductance), so the small-signal response is finite and
  // smaller than the excitation.
  Circuit circuit;
  const int s = circuit.addNode();
  const int out = circuit.addNode();
  VoltageSource* src = circuit.addVoltageSource(s, Circuit::kGround,
                                                [](double) { return 1.0; });
  src->setAcValue(Complex(1.0, 0.0));
  circuit.addResistor(s, out, 100.0);
  circuit.addDiode(out, Circuit::kGround);

  AcOptions opt;
  opt.x_dc = dcOperatingPoint(circuit);
  AcSession session(circuit, opt);
  const Complex v = acNodeV(session.solveAt(1e6), out);
  EXPECT_TRUE(std::isfinite(std::abs(v)));
  EXPECT_GT(std::abs(v), 0.0);
  EXPECT_LT(std::abs(v), 1.0);
}

}  // namespace
}  // namespace fdtdmm
