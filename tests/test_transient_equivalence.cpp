// Transient-solver equivalence suite: the sparse SolverSession (CSR
// assembly, cached base factorization, RCM-ordered banded LU) must
// reproduce the dense full-restamp reference of tests/dense_oracle.h on the
// paper's Fig. 4/5 t-line scenarios, RLGC ladders, coupled-line crosstalk
// substrates and nonlinear driver+receiver circuits. The two paths
// eliminate in different orders, so agreement is to kSparseTol rather than
// bitwise; runs within the sparse path are bitwise reproducible. Linear
// circuits must perform exactly ONE factorization per run and one solve
// per time point, and circuits whose nonlinear devices are a few ports
// must factor once too: their Newton iterations are port solves on the
// base factorization. Fixtures built to defeat that reduction (a singular
// base, a near-singular one, transistors, a conductance that hops between
// ports mid-run) must still match the oracle, and the port path must stay
// within 1e-9 V of the refactoring path (oracle::runBandedReference).
//
// Seeded random netlists against the same oracle live in
// test_random_netlists.cpp.
#include "circuit/transient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "circuit/rlgc_line.h"
#include "dense_oracle.h"
#include "devices/cmos_driver.h"
#include "rbf/driver_model.h"
#include "signal/bit_pattern.h"
#include "signal/linear_ports.h"
#include "tiny_models.h"

namespace fdtdmm {
namespace {

using oracle::kSparseTol;
using oracle::maxAbsDiff;

// Which engine a fixture runs on. Each run builds its own circuit
// instance: elements carry per-run state (companion histories, line delay
// buffers), so circuits are single-use.
enum class Engine { kSparse, kDenseOracle, kBandedReference };

TransientResult runOn(Engine engine, Circuit& c, const TransientOptions& opt,
                      const std::vector<NodeProbe>& probes) {
  if (engine == Engine::kSparse) return runTransient(c, opt, probes);
  if (engine == Engine::kDenseOracle) return oracle::runDenseReference(c, opt, probes);
  return oracle::runBandedReference(c, opt, probes);
}

// ------------------------------------------------------------------ linear

// Fig. 4 topology with a Thevenin drive instead of the CMOS driver: ideal
// line (Zc = 131 ohm, Td = 0.4 ns) into the 1 pF || 500 ohm far-end load.
// Purely linear, so the sparse path must factor exactly once.
TransientResult runLinearTline(Engine engine) {
  const BitPattern pattern("010", 2e-9);
  Circuit c;
  const int src = c.addNode();
  const int near = c.addNode();
  const int far = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [pattern](double t) { return 1.8 * pattern.levelAt(t); });
  c.addResistor(src, near, 60.0);
  c.addIdealLine(near, Circuit::kGround, far, Circuit::kGround, 131.0, 0.4e-9);
  c.addResistor(far, Circuit::kGround, 500.0);
  c.addCapacitor(far, Circuit::kGround, 1e-12);
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.t_stop = 5e-9;
  opt.settle_time = 1e-9;
  return runOn(engine, c, opt, {{"near", near, 0}, {"far", far, 0}});
}

TransientResult runRlgcLadder(Engine engine) {
  Circuit c;
  const int src = c.addNode();
  const int in = c.addNode();
  const int out = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
  c.addResistor(src, in, 50.0);
  RlgcParams p;
  p.r = 2.0;
  p.g = 1e-4;
  p.segments = 16;
  buildRlgcLine(c, in, Circuit::kGround, out, Circuit::kGround, p);
  c.addResistor(out, Circuit::kGround, 120.0);
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.t_stop = 2e-9;
  return runOn(engine, c, opt, {{"in", in, 0}, {"out", out, 0}});
}

// Coupled-line crosstalk substrate (the "crosstalk" family's netlist):
// Thevenin-driven aggressor, capacitively coupled victim, resistive
// terminations. Purely linear unless `clamp_diodes` adds the victim-side
// clamps, two diode ports.
TransientResult runCrosstalkCoupled(Engine engine, bool clamp_diodes) {
  const BitPattern pattern("0110", 1e-9);
  Circuit c;
  const int src = c.addNode();
  const int agg_near = c.addNode();
  const int agg_far = c.addNode();
  const int vic_near = c.addNode();
  const int vic_far = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [pattern](double t) { return 1.8 * pattern.levelAt(t); });
  c.addResistor(src, agg_near, 50.0);
  CoupledRlgcParams cp;
  cp.line.r = 2.0;
  cp.line.g = 1e-4;
  cp.line.segments = 12;
  cp.cm = 0.25 * cp.line.c;
  buildCoupledRlgcLines(c, agg_near, agg_far, vic_near, vic_far, cp);
  c.addResistor(agg_far, Circuit::kGround, 75.0);
  c.addResistor(vic_near, Circuit::kGround, 50.0);
  c.addResistor(vic_far, Circuit::kGround, 50.0);
  if (clamp_diodes) {
    c.addDiode(Circuit::kGround, vic_far);  // clamp below ground
    c.addDiode(vic_far, src);               // clamp above the rail node
  }
  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 4e-9;
  return runOn(engine, c, opt,
               {{"agg_far", agg_far, 0}, {"vic_near", vic_near, 0},
                {"vic_far", vic_far, 0}});
}

// --------------------------------------------------------------- nonlinear

// Fig. 4 proper: transistor-level CMOS driver, ideal line, linear RC load.
TransientResult runFig4(Engine engine) {
  const BitPattern pattern("010", 2e-9);
  Circuit c;
  auto drv = buildCmosDriver(c, CmosDriverParams{}, [pattern](double t) {
    return static_cast<double>(pattern.levelAt(t));
  });
  const int far = c.addNode();
  c.addIdealLine(drv.pad, Circuit::kGround, far, Circuit::kGround, 131.0, 0.4e-9);
  c.addResistor(far, Circuit::kGround, 500.0);
  c.addCapacitor(far, Circuit::kGround, 1e-12);
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.t_stop = 5e-9;
  opt.settle_time = 3e-9;
  return runOn(engine, c, opt, {{"near", drv.pad, 0}, {"far", far, 0}});
}

// Fig. 5: same line, far end terminated by the transistor-level receiver.
TransientResult runFig5(Engine engine) {
  const BitPattern pattern("010", 2e-9);
  Circuit c;
  auto drv = buildCmosDriver(c, CmosDriverParams{}, [pattern](double t) {
    return static_cast<double>(pattern.levelAt(t));
  });
  const int far = c.addNode();
  c.addIdealLine(drv.pad, Circuit::kGround, far, Circuit::kGround, 131.0, 0.4e-9);
  auto rcv = buildCmosReceiver(c, CmosReceiverParams{});
  c.addResistor(far, rcv.pad, 1e-3);
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.t_stop = 5e-9;
  opt.settle_time = 3e-9;
  return runOn(engine, c, opt, {{"near", drv.pad, 0}, {"far", far, 0}});
}

// Nonlinear driver+receiver-style circuit mixing every nonlinear element
// kind with linear companions, so static stamps and port linearizations
// overlap on shared matrix entries. The MOSFETs swap drain/source
// orientation as vds changes sign; their two ports, (gate, source) and
// (drain, source), cover both orientations, so the pattern never grows.
// Two MOSFETs and two diodes make six ports, more than kMaxUpdateRank:
// every iteration refactors.
TransientResult runMixedNonlinear(Engine engine, obs::RunTelemetry* tel = nullptr) {
  Circuit c;
  const int vdd = c.addNode();
  const int gate = c.addNode();
  const int out = c.addNode();
  c.addVoltageSource(vdd, Circuit::kGround, [](double) { return 1.8; });
  c.addVoltageSource(gate, Circuit::kGround, [](double t) {
    return 0.9 + 0.9 * std::sin(2.0 * M_PI * 5e8 * t);
  });
  MosfetParams nmos;
  c.addMosfet(out, gate, Circuit::kGround, nmos);
  MosfetParams pmos;
  pmos.type = MosfetParams::Type::kPmos;
  c.addMosfet(out, gate, vdd, pmos);
  c.addDiode(Circuit::kGround, out);  // clamp below ground
  c.addDiode(out, vdd);               // clamp above the rail
  c.addResistor(out, Circuit::kGround, 10e3);
  c.addCapacitor(out, Circuit::kGround, 0.5e-12);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 4e-9;
  opt.telemetry = tel;
  return runOn(engine, c, opt, {{"out", out, 0}});
}

// A behavioral port (Thevenin drive through BehavioralPort, so every
// Newton iteration evaluates its law) on the near end of a lossless
// ladder: the driven node has no static diagonal of its own — only the
// first inductor's incidence entry — so the port's conductance lands in
// the static pattern only because the static assembly reserves the port
// stencil.
TransientResult runPortDrivenLadder(Engine engine, obs::RunTelemetry* tel = nullptr) {
  const BitPattern pattern("0110", 0.5e-9);
  Circuit c;
  const int near = c.addNode();
  const int far = c.addNode();
  c.addBehavioralPort(near, Circuit::kGround,
                      std::make_shared<TheveninPort>(
                          [pattern](double t) { return 1.8 * pattern.levelAt(t); }, 45.0));
  RlgcParams p;
  p.segments = 10;
  buildRlgcLine(c, near, Circuit::kGround, far, Circuit::kGround, p);
  c.addResistor(far, Circuit::kGround, 60.0);
  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 2e-9;
  opt.telemetry = tel;
  return runOn(engine, c, opt, {{"near", near, 0}, {"far", far, 0}});
}

// The "crosstalk" family's netlist (core/crosstalk_scenario.cpp) with the
// tiny hand-built RBF driver on the aggressor: the driver port to ground
// is the only nonlinear element, so Newton runs on one port voltage.
TransientResult runRbfDrivenCrosstalk(Engine engine) {
  const BitPattern pattern("0110", 1e-9);
  Circuit c;
  const int agg_near = c.addNode();
  const int agg_far = c.addNode();
  const int vic_near = c.addNode();
  const int vic_far = c.addNode();
  c.addBehavioralPort(agg_near, Circuit::kGround,
                      std::make_shared<RbfDriverPort>(testmodels::tinyDriver(), pattern));
  CoupledRlgcParams cp;
  cp.line.segments = 12;
  cp.cm = 0.2 * cp.line.c;
  cp.lm = 0.1 * cp.line.l;
  buildCoupledRlgcLines(c, agg_near, agg_far, vic_near, vic_far, cp);
  c.addResistor(agg_far, Circuit::kGround, 75.0);
  c.addCapacitor(agg_far, Circuit::kGround, 1e-12);
  c.addResistor(vic_near, Circuit::kGround, 50.0);
  c.addResistor(vic_far, Circuit::kGround, 50.0);
  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 4e-9;
  opt.settle_time = 1e-9;
  return runOn(engine, c, opt,
               {{"agg_near", agg_near, 0}, {"agg_far", agg_far, 0},
                {"vic_near", vic_near, 0}, {"vic_far", vic_far, 0}});
}

// A node reached only through diodes: its row of the static matrix is
// empty, so the base alone is singular and every iteration must refactor.
TransientResult runDiodeOnlyNode(Engine engine) {
  Circuit c;
  const int src = c.addNode();
  const int a = c.addNode();
  const int x = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [](double t) { return 2.0 * std::sin(2.0 * M_PI * 1e9 * t); });
  c.addResistor(src, a, 100.0);
  c.addDiode(a, x);
  c.addDiode(x, Circuit::kGround);
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.t_stop = 2e-9;
  return runOn(engine, c, opt, {{"a", a, 0}, {"x", x, 0}});
}

// A node held only by three diodes and a 1e15 ohm resistor: the base is
// regular but near-singular (a 1e-15 S diagonal), so the port impedance
// times a conducting diode's conductance grows by up to 1e15.
TransientResult runNearSingularBase(Engine engine) {
  Circuit c;
  const int src = c.addNode();
  const int a = c.addNode();
  const int b = c.addNode();
  const int x = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [](double t) { return 2.0 * std::sin(2.0 * M_PI * 1e9 * t); });
  c.addResistor(src, a, 50.0);
  c.addResistor(b, Circuit::kGround, 1e3);
  c.addDiode(a, x);
  c.addDiode(x, b);
  c.addDiode(Circuit::kGround, x);
  c.addResistor(x, Circuit::kGround, 1e15);
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.t_stop = 3e-9;
  return runOn(engine, c, opt, {{"a", a, 0}, {"b", b, 0}, {"x", x, 0}});
}

// A linear shunt conductance that hops between two nodes every `period`,
// as a two-port law on (a, ground) and (b, ground): port a conducts in even
// periods and port b in odd ones, so the conductance the port system sees
// moves between its ports mid-run (a pure function of t, so the oracle
// sees the same circuit).
class HoppingShunt final : public Element {
 public:
  HoppingShunt(int a, int b, double g, double period) : g_(g), period_(period) {
    ports_ = {{a, Circuit::kGround}, {b, Circuit::kGround}};
  }
  void evalPorts(const double* v, double t_new, double* i, double* g) override {
    const bool odd = static_cast<long long>(std::floor(t_new / period_)) % 2 != 0;
    g[0] = odd ? 0.0 : g_;
    g[1] = 0.0;
    g[2] = 0.0;
    g[3] = odd ? g_ : 0.0;
    i[0] = g[0] * v[0];
    i[1] = g[3] * v[1];
  }
  std::string name() const override { return "HOP"; }

 private:
  double g_, period_;
};

TransientResult runHoppingShunt(Engine engine, obs::RunTelemetry* tel = nullptr) {
  Circuit c;
  const int src = c.addNode();
  const int near = c.addNode();
  const int far = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [](double t) { return std::clamp(t / 0.2e-9, 0.0, 1.0); });
  c.addResistor(src, near, 50.0);
  RlgcParams p;
  p.segments = 8;
  const std::vector<int> nodes =
      buildRlgcLineSegments(c, near, Circuit::kGround, far, Circuit::kGround, p);
  c.addResistor(far, Circuit::kGround, 60.0);
  c.addElement(std::make_unique<HoppingShunt>(nodes[2], far, 0.02, 0.3e-9));
  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 2e-9;
  opt.telemetry = tel;
  return runOn(engine, c, opt, {{"near", near, 0}, {"mid", nodes[2], 0}, {"far", far, 0}});
}

// ------------------------------------------------------------------ tests

void expectAgrees(const TransientResult& sp, const TransientResult& ref) {
  EXPECT_TRUE(sp.converged);
  EXPECT_TRUE(ref.converged);
  EXPECT_EQ(sp.steps, ref.steps);
  for (const auto& [label, wave] : ref.probes)
    EXPECT_LE(maxAbsDiff(sp.at(label), wave), kSparseTol) << label;
}

TEST(TransientEquivalence, LinearTlineSingleFactorization) {
  const auto sp = runLinearTline(Engine::kSparse);
  const auto ref = runLinearTline(Engine::kDenseOracle);
  expectAgrees(sp, ref);
  // No port law: one factorization, and one substitution per time point.
  EXPECT_EQ(sp.lu_factorizations, 1);
  EXPECT_EQ(sp.max_newton_iterations, 1);
  // The oracle factors at every Newton iteration.
  EXPECT_EQ(ref.lu_factorizations, ref.total_newton_iterations);
}

TEST(TransientEquivalence, RlgcLadderSingleFactorization) {
  const auto sp = runRlgcLadder(Engine::kSparse);
  const auto ref = runRlgcLadder(Engine::kDenseOracle);
  expectAgrees(sp, ref);
  EXPECT_EQ(sp.lu_factorizations, 1);
  EXPECT_EQ(sp.max_newton_iterations, 1);
}

TEST(TransientEquivalence, CrosstalkCoupledLinesSingleFactorization) {
  const auto sp = runCrosstalkCoupled(Engine::kSparse, false);
  const auto ref = runCrosstalkCoupled(Engine::kDenseOracle, false);
  expectAgrees(sp, ref);
  EXPECT_EQ(sp.lu_factorizations, 1);
  EXPECT_EQ(sp.max_newton_iterations, 1);
}

TEST(TransientEquivalence, CrosstalkWithClampDiodes) {
  expectAgrees(runCrosstalkCoupled(Engine::kSparse, true),
               runCrosstalkCoupled(Engine::kDenseOracle, true));
}

TEST(TransientEquivalence, Fig4TlineRcLoad) {
  expectAgrees(runFig4(Engine::kSparse), runFig4(Engine::kDenseOracle));
}

TEST(TransientEquivalence, Fig5TlineReceiver) {
  expectAgrees(runFig5(Engine::kSparse), runFig5(Engine::kDenseOracle));
}

TEST(TransientEquivalence, MixedDiodeMosfetCircuit) {
  obs::RunTelemetry tel;
  const auto sp = runMixedNonlinear(Engine::kSparse, &tel);
  expectAgrees(sp, runMixedNonlinear(Engine::kDenseOracle));
  // Six ports: every iteration refactors, on the run's one ordering (both
  // drain/source orientations lie inside the reserved port stencils).
  EXPECT_EQ(sp.lu_factorizations, sp.total_newton_iterations);
  EXPECT_EQ(sp.low_rank_solves, 0);
  EXPECT_EQ(tel.rcm_orderings, 1);
}

TEST(TransientEquivalence, BehavioralPortStaysInsideStaticPattern) {
  obs::RunTelemetry tel;
  const auto sp = runPortDrivenLadder(Engine::kSparse, &tel);
  expectAgrees(sp, runPortDrivenLadder(Engine::kDenseOracle));
  // The run factors its base once, on one ordering, and solves every
  // iteration through its one port.
  EXPECT_EQ(sp.lu_factorizations, 1);
  EXPECT_EQ(tel.low_rank_solves, sp.total_newton_iterations);
  EXPECT_EQ(tel.rcm_orderings, 1);
  // 12 nodes (near, far, one per segment) + 10 inductor branches.
  EXPECT_EQ(tel.structure.unknowns, 22);
  EXPECT_GT(tel.structure.nonzeros, tel.structure.unknowns);
  // A ladder stays banded under RCM, independent of its length.
  EXPECT_GT(tel.structure.kl + tel.structure.ku, 0);
  EXPECT_LE(tel.structure.kl + tel.structure.ku, 8);
}

// The port path's accuracy gate: within 1e-9 V of the refactoring path
// (oracle::runBandedReference), on one factorization per run, in as many
// Newton iterations (no fixture here limits a step). The dense oracle,
// which sums each matrix entry in another order, is 3.9e-9 V off the
// lossless port-driven ladder on either banded path, so it cannot hold
// this gate.
TEST(TransientEquivalence, LowRankSolvesMeetTheNanovoltGate) {
  constexpr double kGate = 1e-9;
  const auto check = [&](const TransientResult& sp, const TransientResult& ref,
                         const char* what) {
    EXPECT_TRUE(sp.converged) << what;
    EXPECT_EQ(sp.lu_factorizations, 1) << what;
    EXPECT_EQ(sp.low_rank_solves, sp.total_newton_iterations) << what;
    EXPECT_EQ(sp.total_newton_iterations, ref.total_newton_iterations) << what;
    for (const auto& [label, wave] : ref.probes)
      EXPECT_LE(maxAbsDiff(sp.at(label), wave), kGate) << what << " " << label;
  };
  check(runPortDrivenLadder(Engine::kSparse), runPortDrivenLadder(Engine::kBandedReference),
        "port-driven ladder");
  check(runRbfDrivenCrosstalk(Engine::kSparse),
        runRbfDrivenCrosstalk(Engine::kBandedReference), "rbf-driven crosstalk");
  check(runCrosstalkCoupled(Engine::kSparse, true),
        runCrosstalkCoupled(Engine::kBandedReference, true), "crosstalk with clamp diodes");
}

TEST(TransientEquivalence, SingularBaseFallsBackToRefactoring) {
  const auto sp = runDiodeOnlyNode(Engine::kSparse);
  expectAgrees(sp, runDiodeOnlyNode(Engine::kDenseOracle));
  // The base never factors, so no iteration can be a port solve.
  EXPECT_EQ(sp.low_rank_solves, 0);
  EXPECT_EQ(sp.lu_factorizations, sp.total_newton_iterations);
}

TEST(TransientEquivalence, NearSingularBaseStaysWithinTolerance) {
  const auto sp = runNearSingularBase(Engine::kSparse);
  expectAgrees(sp, runNearSingularBase(Engine::kDenseOracle));
  // Off diodes leave the port system moderate; conducting ones make it
  // cancel, and those iterations refactor.
  EXPECT_GT(sp.low_rank_solves, 0);
  EXPECT_GT(sp.lu_factorizations, 1);
  EXPECT_EQ(sp.low_rank_solves + sp.lu_factorizations - 1, sp.total_newton_iterations);
}

TEST(TransientEquivalence, HoppingConductanceMatchesOracle) {
  obs::RunTelemetry tel;
  const auto sp = runHoppingShunt(Engine::kSparse, &tel);
  expectAgrees(sp, runHoppingShunt(Engine::kDenseOracle));
  EXPECT_EQ(sp.lu_factorizations, 1);
  EXPECT_EQ(sp.low_rank_solves, sp.total_newton_iterations);
  EXPECT_EQ(tel.rcm_orderings, 1);
}

TEST(TransientEquivalence, SparseRunsAreBitwiseReproducible) {
  // Tolerance-gated against the oracle, but bitwise within the sparse path.
  const auto a = runCrosstalkCoupled(Engine::kSparse, true);
  const auto b = runCrosstalkCoupled(Engine::kSparse, true);
  for (const auto& [label, wave] : a.probes) EXPECT_EQ(maxAbsDiff(wave, b.at(label)), 0.0) << label;
  EXPECT_EQ(a.lu_factorizations, b.lu_factorizations);
  const auto c = runMixedNonlinear(Engine::kSparse);
  const auto d = runMixedNonlinear(Engine::kSparse);
  EXPECT_EQ(maxAbsDiff(c.at("out"), d.at("out")), 0.0);
}

}  // namespace
}  // namespace fdtdmm
