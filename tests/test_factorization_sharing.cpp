// Tests for cross-corner solver-state sharing: a linear RHS-only sweep
// factors once per corner on one shared RCM ordering, a checked-out
// ordering serves every factorization of a run, the netlist names its
// structure class (one class per distinct netlist in mixed sweeps of every
// MNA family, none for a custom element), a foreign class fails loudly
// instead of folding, a corner that checks its class out compiles no
// pattern, the byte-identical-exports contract between a sharing runner
// and tasks run alone, a repeated sweep recomputing every corner, and the
// valid-name lists in the *FromName error messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuit/rlgc_line.h"
#include "circuit/transient.h"
#include "core/scenario.h"
#include "core/tline_family.h"
#include "engine/sweep_runner.h"
#include "freq/ac_engine.h"
#include "math/low_rank_update.h"
#include "signal/bit_pattern.h"
#include "signal/linear_ports.h"
#include "sweep_reference.h"
#include "tiny_models.h"

namespace fdtdmm {
namespace {

// 6 corners, all linear (quiescent victim trace, no macromodels), whose
// amplitude x theta axes reach only the RHS: exactly one structure class.
SweepSpec rhsOnlyEmcSpec() {
  SweepSpec spec;
  spec.scenario = "emc";
  spec.set("drive", std::string("none"));
  spec.set("t_stop", 3e-9);
  spec.set("segments", 8.0);
  spec.set("pulse_t0", 1e-9);
  spec.axis("amplitude", {500.0, 1000.0, 2000.0});
  spec.axis("theta", {20.0, 60.0});
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct Exports {
  std::string csv;
  std::string json;
};

Exports exportMetrics(const SweepResult& result) {
  const std::string csv_path = "test_sharing.csv";
  const std::string json_path = "test_sharing.json";
  writeSweepCsv(result, csv_path);
  writeSweepJson(result, json_path);
  Exports e{slurp(csv_path), slurp(json_path)};
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
  return e;
}

long long totalLu(const SweepResult& result) {
  long long lu = 0;
  for (const SweepRunRecord& r : result.runs) lu += r.telemetry.lu_factorizations;
  return lu;
}

// Every linear corner factors its own base exactly once, and the whole
// structure class orders its pattern once, for any worker count.
TEST(FactorizationSharing, LinearSweepFactorsOncePerCornerOnOneOrdering) {
  const SweepSpec spec = rhsOnlyEmcSpec();
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    ASSERT_EQ(result.okCount(), result.runs.size());
    ASSERT_EQ(result.runs.size(), 6u);

    // One class: amplitude/theta are RHS-only (6 corners, 1 analysis).
    EXPECT_EQ(totalLu(result), 6) << workers;
    EXPECT_EQ(runner.solverCache().structureClassCount(), 1u) << workers;
    EXPECT_EQ(result.solver_cache.symbolic_misses, 1) << workers;
    EXPECT_EQ(result.solver_cache.symbolic_hits, 5) << workers;

    for (const SweepRunRecord& r : result.runs) {
      EXPECT_EQ(r.telemetry.lu_factorizations, 1) << r.label;
      // Each corner computed the class ordering or checked it out.
      EXPECT_EQ(r.telemetry.rcm_orderings + r.telemetry.shared_symbolic_reuses, 1)
          << r.label;
    }
  }
}

// A lossless ladder driven by a behavioral port: the port restamps its
// conductance every Newton iteration. `clamps` adds a clamp diode to ground
// on each of the first `clamps` segment nodes; their Jacobian entries are
// diagonals the ladder's shunt capacitors already put in the pattern.
Circuit portDrivenLadder(int& far, int clamps = 0) {
  const BitPattern pattern("0110", 0.5e-9);
  Circuit c;
  const int near = c.addNode();
  far = c.addNode();
  c.addBehavioralPort(near, Circuit::kGround,
                      std::make_shared<TheveninPort>(
                          [pattern](double t) { return 1.8 * pattern.levelAt(t); }, 45.0));
  RlgcParams p;
  p.segments = 10;
  const std::vector<int> nodes =
      buildRlgcLineSegments(c, near, Circuit::kGround, far, Circuit::kGround, p);
  for (int k = 0; k < clamps; ++k) c.addDiode(nodes[static_cast<std::size_t>(k)], Circuit::kGround);
  c.addResistor(far, Circuit::kGround, 60.0);
  return c;
}

// A run that checks a shared RCM ordering out computes none of its own:
// its base and every refactorization use the shared ordering (every port
// stencil is part of the static pattern). The port-driven ladder factors
// only its base and solves every iteration through its one port. With
// five clamp diodes it has six ports, more than kMaxUpdateRank, so every
// iteration refactors — still without an RCM analysis on the reuse run.
TEST(FactorizationSharing, SharedSymbolicReuseRunsNoRcmOfItsOwn) {
  static_assert(5 + 1 > kMaxUpdateRank, "the clamped ladder must be too wide");
  for (const int clamps : {0, 5}) {
    SolverStateCache cache;
    std::map<std::string, Waveform> first;
    for (int run = 0; run < 2; ++run) {
      int far = 0;
      Circuit c = portDrivenLadder(far, clamps);
      obs::RunTelemetry tel;
      TransientOptions opt;
      opt.dt = 5e-12;
      opt.t_stop = 2e-9;
      opt.telemetry = &tel;
      opt.sharing.provider = &cache;
      const TransientResult res = runTransient(c, opt, {{"far", far, 0}});
      if (clamps == 0) {
        EXPECT_EQ(res.lu_factorizations, 1) << run;
        EXPECT_EQ(res.low_rank_solves, res.total_newton_iterations) << run;
      } else {
        EXPECT_GT(res.lu_factorizations, 1) << run;
        EXPECT_EQ(res.lu_factorizations, res.total_newton_iterations) << run;
      }
      if (run == 0) {
        EXPECT_EQ(tel.shared_symbolic_builds, 1);
        EXPECT_EQ(tel.rcm_orderings, 1);
        first = res.probes;
      } else {
        EXPECT_EQ(tel.shared_symbolic_reuses, 1);
        EXPECT_EQ(tel.rcm_orderings, 0) << clamps;
        // Same pattern, same ordering: bit-identical waveforms.
        const Waveform& a = first.at("far");
        const Waveform& b = res.at("far");
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]) << k;
      }
    }
    EXPECT_EQ(cache.stats().symbolic_misses, 1);
    EXPECT_EQ(cache.stats().symbolic_hits, 1);
  }
}

// A linear ladder: a ramped source (1 V in AC) behind 50 ohm drives
// `segments` RLGC sections into a 60 ohm load. `bridge` adds one capacitor
// between two non-adjacent segment nodes: the same unknown count, a
// different pattern.
Circuit sourceDrivenLadder(std::size_t segments, bool bridge, int& far) {
  Circuit c;
  const int src = c.addNode();
  const int near = c.addNode();
  far = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [](double t) { return std::clamp(t / 0.2e-9, 0.0, 1.0); })
      ->setAcValue(Complex(1.0, 0.0));
  c.addResistor(src, near, 50.0);
  RlgcParams p;
  p.segments = segments;
  const std::vector<int> nodes =
      buildRlgcLineSegments(c, near, Circuit::kGround, far, Circuit::kGround, p);
  if (bridge) c.addCapacitor(nodes[1], nodes[6], 1e-12);
  c.addResistor(far, Circuit::kGround, 60.0);
  return c;
}

TransientOptions ladderOptions(SolverStateProvider* provider) {
  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 2e-9;
  opt.sharing.provider = provider;
  return opt;
}

// The netlist is the class: rebuilding a circuit repeats its fingerprint,
// values stay out of it, and every structural difference — one more
// element, another node, the same nodes under another element kind —
// moves it.
TEST(FactorizationSharing, TheNetlistNamesItsStructureClass) {
  int far = 0;
  const auto ladder = [&far](std::size_t segments, bool bridge) {
    return sourceDrivenLadder(segments, bridge, far).structureClass();
  };
  ASSERT_TRUE(ladder(10, false).has_value());
  EXPECT_EQ(ladder(10, false), ladder(10, false));
  EXPECT_NE(ladder(10, true), ladder(10, false));
  EXPECT_NE(ladder(12, false), ladder(10, false));

  const auto pair = [](double r, bool capacitor, bool extra_node) {
    Circuit c;
    const int a = c.addNode();
    if (extra_node) c.addNode();
    if (capacitor) {
      c.addCapacitor(a, Circuit::kGround, r * 1e-12);
    } else {
      c.addResistor(a, Circuit::kGround, r);
    }
    return c.structureClass();
  };
  EXPECT_EQ(pair(50.0, false, false), pair(75.0, false, false));
  EXPECT_NE(pair(50.0, true, false), pair(50.0, false, false));
  EXPECT_NE(pair(50.0, false, true), pair(50.0, false, false));
}

// A conductance between two nodes, added through Circuit::addElement: the
// fingerprint cannot see its stamps.
class CustomConductance final : public Element {
 public:
  CustomConductance(int n1, int n2, double g) : n1_(n1), n2_(n2), g_(g) {}
  void stampStatic(StampSystem& sys, double) override { stampConductance(sys, n1_, n2_, g_); }
  void stampAc(AcStampSystem& sys, double, const Vector&) const override {
    stampConductance(sys, n1_, n2_, Complex(g_, 0.0));
  }
  std::string name() const override { return "G"; }

 private:
  int n1_, n2_;
  double g_;
};

// A circuit with a custom element has no structure class: under a provider
// each of its sessions, transient and AC, compiles and orders privately,
// publishes nothing, and matches an unshared run bit for bit.
TEST(FactorizationSharing, CustomElementCompilesPrivatelyUnderAProvider) {
  int far = 0;
  const auto build = [&far] {
    Circuit c = sourceDrivenLadder(10, false, far);
    c.addElement(std::make_unique<CustomConductance>(far, Circuit::kGround, 1e-3));
    return c;
  };
  EXPECT_FALSE(build().structureClass().has_value());

  SolverStateCache cache;
  for (int run = 0; run < 2; ++run) {
    Circuit shared = build();
    obs::RunTelemetry tel;
    TransientOptions topt = ladderOptions(&cache);
    topt.telemetry = &tel;
    const TransientResult res = runTransient(shared, topt, {{"far", far, 0}});
    Circuit alone = build();
    const TransientResult ref = runTransient(alone, ladderOptions(nullptr), {{"far", far, 0}});
    EXPECT_EQ(res.at("far").samples(), ref.at("far").samples()) << run;

    Circuit ac_shared = build();
    Circuit ac_alone = build();
    AcOptions aopt;
    aopt.sharing.provider = &cache;
    aopt.telemetry = &tel;
    const ComplexVector x = AcSession(ac_shared, aopt).solveAt(1e8);
    EXPECT_EQ(x, AcSession(ac_alone, AcOptions{}).solveAt(1e8)) << run;

    EXPECT_EQ(tel.pattern_compiles, 2) << run;
    EXPECT_EQ(tel.rcm_orderings, 2) << run;
    EXPECT_EQ(tel.shared_symbolic_builds, 0) << run;
    EXPECT_EQ(tel.shared_symbolic_reuses, 0) << run;
  }
  EXPECT_EQ(cache.structureClassCount(), 0u);
  EXPECT_EQ(cache.stats().symbolic_misses + cache.stats().symbolic_hits, 0);
}

// A provider that answers every lookup with one fixed state: what a
// fingerprint collision would hand a run.
class FixedProvider final : public SolverStateProvider {
 public:
  explicit FixedProvider(std::shared_ptr<const SolverSymbolic> state)
      : state_(std::move(state)) {}
  std::shared_ptr<const SolverSymbolic> symbolic(const StructureClass&,
                                                 const SymbolicBuilder&) override {
    return state_;
  }

 private:
  std::shared_ptr<const SolverSymbolic> state_;
};

// Nothing folds a foreign class: handed the state of another netlist, a
// session of either engine throws std::logic_error — at the checkout when
// the dimension differs, at the first stamp outside the adopted pattern
// when it does not.
TEST(FactorizationSharing, ForeignClassFailsLoudly) {
  int far = 0;
  Circuit plain = sourceDrivenLadder(10, false, far);
  SolverStateCache cache;
  runTransient(plain, ladderOptions(&cache), {{"far", far, 0}});
  AcOptions publish;
  publish.sharing.provider = &cache;
  AcSession(plain, publish).solveAt(1e8);
  ASSERT_EQ(cache.structureClassCount(), 2u);
  const auto published = [&](SolverEngine engine) {
    return cache.symbolic({*plain.structureClass(), engine},
                          []() -> std::shared_ptr<const SolverSymbolic> {
                            throw std::logic_error("published above");
                          });
  };

  for (const SolverEngine engine : {SolverEngine::kTransientBase, SolverEngine::kAc}) {
    FixedProvider foreign(published(engine));
    for (const bool other_dimension : {true, false}) {
      Circuit c = other_dimension ? sourceDrivenLadder(12, false, far)
                                  : sourceDrivenLadder(10, true, far);
      if (engine == SolverEngine::kTransientBase) {
        EXPECT_THROW(runTransient(c, ladderOptions(&foreign), {{"far", far, 0}}),
                     std::logic_error)
            << other_dimension;
      } else {
        AcOptions opt;
        opt.sharing.provider = &foreign;
        AcSession session(c, opt);
        EXPECT_THROW(session.solveAt(1e8), std::logic_error) << other_dimension;
      }
    }
  }
}

// A corner that checks its structure class out compiles no pattern: it
// adopts the class pattern and stamps its values into it. Value-only
// sweeps of every MNA family: each class compiles once.
TEST(FactorizationSharing, ReuseCornersCompileNoPattern) {
  SweepSpec crosstalk;
  crosstalk.scenario = "crosstalk";
  crosstalk.set("pattern", std::string("010"));
  crosstalk.set("bit_time", 1e-9);
  crosstalk.set("t_stop", 3e-9);
  crosstalk.set("segments", 8.0);
  crosstalk.axis("coupling", {0.05, 0.2});
  crosstalk.driver = "tinydrv";
  crosstalk.receiver = "tinyrcv";

  SweepSpec tline;
  tline.scenario = "tline";
  tline.set("engine", std::string("spice-rbf"));
  tline.set("t_stop", 2e-9);
  tline.axis("zc", {80.0, 100.0, 120.0});
  tline.driver = "tinydrv";
  tline.receiver = "tinyrcv";

  SweepSpec ac;
  ac.scenario = "ac";
  ac.set("segments", 16.0);
  ac.axis("frequency", {1e6, 1e7, 1e8});

  for (const SweepSpec& spec : {rhsOnlyEmcSpec(), crosstalk, tline, ac}) {
    SweepRunnerOptions opt;
    opt.workers = 2;
    opt.model_cache = testmodels::tinyCache();
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    ASSERT_EQ(result.okCount(), result.runs.size()) << spec.scenario;
    long long compiles = 0, reuse_corners = 0;
    for (const SweepRunRecord& r : result.runs) {
      const obs::RunTelemetry& t = r.telemetry;
      compiles += t.pattern_compiles;
      EXPECT_EQ(t.pattern_compiles, t.shared_symbolic_builds) << r.label;
      if (t.shared_symbolic_builds == 0) {
        EXPECT_GT(t.shared_symbolic_reuses, 0) << r.label;
        EXPECT_EQ(t.pattern_compiles, 0) << r.label;
        ++reuse_corners;
      }
    }
    EXPECT_EQ(compiles, static_cast<long long>(runner.solverCache().structureClassCount()))
        << spec.scenario;
    EXPECT_GT(reuse_corners, 0) << spec.scenario;
  }
}

// Sharing must never perturb a metric byte: the runner's exports, at any
// worker count, equal those of running every task alone with a default
// SolverSharing — linear (emc), nonlinear (crosstalk) and frequency-domain
// (ac) families alike.
TEST(FactorizationSharing, MetricsByteIdenticalSharingOnOrOff) {
  auto stripHeader = [](const std::string& json) {
    const std::size_t runs = json.find("\"runs\"");
    EXPECT_NE(runs, std::string::npos);
    return json.substr(runs);
  };

  SweepSpec crosstalk;
  crosstalk.scenario = "crosstalk";
  crosstalk.set("pattern", std::string("010"));
  crosstalk.set("bit_time", 1e-9);
  crosstalk.set("t_stop", 3e-9);
  crosstalk.set("segments", 8.0);
  crosstalk.axis("coupling", {0.05, 0.2});

  // A lossy skin-effect ladder: series-R nodes and R||L skin branches in
  // every segment, the shape of the ac_skin_sweep workload.
  SweepSpec ac;
  ac.scenario = "ac";
  ac.set("segments", 24.0);
  ac.set("line_r", 5.0);
  ac.set("k_skin", 2e-4);
  ac.axis("frequency", {1e6, 3e7, 2e8, 1e9});

  for (const SweepSpec& spec : {rhsOnlyEmcSpec(), crosstalk, ac}) {
    ModelCache models;
    const Exports off = exportMetrics(testmodels::sharingFreeSweep(spec.expand(), models));
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SweepRunnerOptions opt;
      opt.workers = workers;
      SweepRunner runner(opt);
      const SweepResult result = runner.run(spec);
      EXPECT_EQ(result.okCount(), result.runs.size());
      EXPECT_GT(result.solver_cache.symbolic_hits, 0) << spec.scenario;
      const Exports on = exportMetrics(result);
      EXPECT_EQ(on.csv, off.csv) << spec.scenario << " workers=" << workers;
      EXPECT_EQ(stripHeader(on.json), stripHeader(off.json))
          << spec.scenario << " workers=" << workers;
    }
  }
}

// A second run of the same runner recomputes every corner: no layer
// replays a finished record. Its one structure class comes out of the
// runner's solver-state cache, and the exported bytes repeat.
TEST(FactorizationSharing, RepeatedSweepRecomputesEveryCorner) {
  const SweepSpec spec = rhsOnlyEmcSpec();
  SweepRunnerOptions opt;
  opt.workers = 2;
  SweepRunner runner(opt);

  const SweepResult first = runner.run(spec);
  ASSERT_EQ(first.okCount(), first.runs.size());
  EXPECT_EQ(first.solver_cache.symbolic_misses, 1);

  const SweepResult second = runner.run(spec);
  ASSERT_EQ(second.okCount(), second.runs.size());
  EXPECT_EQ(second.solver_cache.symbolic_misses, 0);
  EXPECT_EQ(second.solver_cache.symbolic_hits, 6);
  for (const SweepRunRecord& r : second.runs) {
    EXPECT_GT(r.telemetry.steps, 0) << r.label;
    EXPECT_EQ(r.telemetry.lu_factorizations, 1) << r.label;
    EXPECT_EQ(r.telemetry.shared_symbolic_reuses, 1) << r.label;
    EXPECT_EQ(r.telemetry.pattern_compiles, 0) << r.label;
  }

  const Exports a = exportMetrics(first);
  const Exports b = exportMetrics(second);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.json, b.json);
}

// A mixed sweep — value axes crossed with axes that change the netlist —
// builds exactly one structure class per distinct netlist at 1 and 4
// workers, every compile is its class's shared build, and the exports
// equal those of running each task alone with a default SolverSharing.
void expectOneClassPerNetlist(const SweepSpec& spec, std::size_t netlists) {
  const std::shared_ptr<ModelCache> models = testmodels::tinyCache();
  const Exports alone = exportMetrics(testmodels::sharingFreeSweep(spec.expand(), *models));
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    opt.model_cache = models;
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    ASSERT_EQ(result.okCount(), result.runs.size()) << spec.scenario;
    EXPECT_EQ(runner.solverCache().structureClassCount(), netlists)
        << spec.scenario << " workers=" << workers;
    for (const SweepRunRecord& r : result.runs)
      EXPECT_EQ(r.telemetry.pattern_compiles, r.telemetry.shared_symbolic_builds)
          << r.label << " workers=" << workers;
    const Exports shared = exportMetrics(result);
    EXPECT_EQ(shared.csv, alone.csv) << spec.scenario << " workers=" << workers;
    const std::size_t runs = shared.json.find("\"runs\"");
    ASSERT_NE(runs, std::string::npos);
    EXPECT_EQ(shared.json.substr(runs), alone.json.substr(alone.json.find("\"runs\"")))
        << spec.scenario << " workers=" << workers;
  }
}

// coupling = 0 stamps no mutual capacitors and line_r > 0 splits each
// series R around its inductor: four netlists.
TEST(FactorizationSharing, CrosstalkMixedSweepBuildsOneClassPerNetlist) {
  SweepSpec spec;
  spec.scenario = "crosstalk";
  spec.set("pattern", std::string("010"));
  spec.set("bit_time", 1e-9);
  spec.set("t_stop", 3e-9);
  spec.set("segments", 8.0);
  spec.axis("coupling", {0.0, 0.2});
  spec.axis("line_r", {0.0, 5.0});
  spec.driver = "tinydrv";
  expectOneClassPerNetlist(spec, 4);
}

// amplitude > 0 adds the Agrawal terminal sources and c_far > 0 a far-end
// capacitor: four netlists.
TEST(FactorizationSharing, EmcMixedSweepBuildsOneClassPerNetlist) {
  SweepSpec spec;
  spec.scenario = "emc";
  spec.set("drive", std::string("none"));
  spec.set("t_stop", 3e-9);
  spec.set("segments", 8.0);
  spec.set("pulse_t0", 1e-9);
  spec.axis("amplitude", {0.0, 1000.0});
  spec.axis("c_far", {0.0, 1e-12});
  expectOneClassPerNetlist(spec, 4);
}

// k_skin > 0 chains the skin branches into every segment; the frequency
// changes only values: two netlists.
TEST(FactorizationSharing, AcMixedSweepBuildsOneClassPerNetlist) {
  SweepSpec spec;
  spec.scenario = "ac";
  spec.set("segments", 16.0);
  spec.set("line_r", 5.0);
  spec.axis("k_skin", {0.0, 2e-4});
  spec.axis("frequency", {1e7, 1e9});
  expectOneClassPerNetlist(spec, 2);
}

template <typename Fn>
std::string thrownMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

// Unknown-name errors must list the valid names (satellite: a typo'd CLI
// flag should teach, not stonewall).
TEST(FactorizationSharing, UnknownNameErrorsListValidNames) {
  const std::string engine = thrownMessage([] { tlineEngineFromName("bogus"); });
  EXPECT_NE(engine.find("bogus"), std::string::npos) << engine;
  for (const char* name : {"spice-rbf", "fdtd1d", "fdtd3d"})
    EXPECT_NE(engine.find(name), std::string::npos) << engine;

  const std::string load = thrownMessage([] { farEndLoadFromName("bogus"); });
  EXPECT_NE(load.find("bogus"), std::string::npos) << load;
  for (const char* name : {"rc", "receiver"})
    EXPECT_NE(load.find(name), std::string::npos) << load;
}

}  // namespace
}  // namespace fdtdmm
