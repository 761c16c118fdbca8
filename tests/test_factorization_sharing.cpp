// Tests for cross-corner solver-state sharing: a linear RHS-only sweep
// factors once per corner on one shared RCM ordering, a checked-out
// ordering serves every factorization of a run, a wrong structure key
// never changes a result (transient or AC), a corner that checks its class
// out compiles no pattern, the byte-identical-exports contract between a
// sharing runner and tasks run alone, a repeated sweep recomputing every
// corner, the honesty of the family structure keys, and the valid-name
// lists in the *FromName error messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuit/rlgc_line.h"
#include "circuit/transient.h"
#include "core/scenario.h"
#include "core/tline_family.h"
#include "dense_oracle.h"
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
      opt.sharing.structure_key = "port-driven-ladder";
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

TransientOptions ladderOptions(SolverStateCache* cache, obs::RunTelemetry* tel) {
  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 2e-9;
  opt.telemetry = tel;
  if (cache != nullptr) {
    opt.sharing.provider = cache;
    opt.sharing.structure_key = "one-key-for-every-ladder";
  }
  return opt;
}

// A wrong structure key on a different unknown count: the checked-out
// ordering does not fit, so the run orders privately and matches the
// sharing-off run bit for bit.
TEST(FactorizationSharing, WrongKeyOnOtherDimensionOrdersPrivately) {
  SolverStateCache cache;
  obs::RunTelemetry first, second;
  int far = 0;
  Circuit a = sourceDrivenLadder(10, false, far);
  runTransient(a, ladderOptions(&cache, &first), {{"far", far, 0}});
  EXPECT_EQ(first.shared_symbolic_builds, 1);

  Circuit b = sourceDrivenLadder(12, false, far);
  const TransientResult shared =
      runTransient(b, ladderOptions(&cache, &second), {{"far", far, 0}});
  EXPECT_NE(second.structure.unknowns, first.structure.unknowns);
  EXPECT_EQ(second.rcm_orderings, 1);
  EXPECT_EQ(second.shared_symbolic_reuses, 0);

  Circuit c = sourceDrivenLadder(12, false, far);
  const TransientResult alone =
      runTransient(c, ladderOptions(nullptr, nullptr), {{"far", far, 0}});
  const Waveform& x = shared.at("far");
  const Waveform& y = alone.at("far");
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t k = 0; k < x.size(); ++k) EXPECT_EQ(x[k], y[k]) << k;
}

// A wrong structure key on the same unknown count: the run checks out an
// ordering computed for another pattern. That is still a permutation, so
// the result still agrees with the dense oracle.
TEST(FactorizationSharing, WrongKeyOnSameDimensionStillMatchesTheOracle) {
  SolverStateCache cache;
  obs::RunTelemetry first, second;
  int far = 0;
  Circuit a = sourceDrivenLadder(10, false, far);
  runTransient(a, ladderOptions(&cache, &first), {{"far", far, 0}});

  Circuit b = sourceDrivenLadder(10, true, far);
  const TransientResult res =
      runTransient(b, ladderOptions(&cache, &second), {{"far", far, 0}});
  EXPECT_EQ(second.structure.unknowns, first.structure.unknowns);
  EXPECT_GT(second.structure.nonzeros, first.structure.nonzeros);
  EXPECT_EQ(second.shared_symbolic_reuses, 1);
  EXPECT_EQ(second.rcm_orderings, 0);
  EXPECT_EQ(res.lu_factorizations, 1);

  Circuit ref_circuit = sourceDrivenLadder(10, true, far);
  const TransientResult ref = oracle::runDenseReference(
      ref_circuit, ladderOptions(nullptr, nullptr), {{"far", far, 0}});
  EXPECT_LE(oracle::maxAbsDiff(res.at("far"), ref.at("far")), oracle::kSparseTol);
}

// The AC engine's wrong key on the same unknown count: the session adopts
// the other ladder's pattern, the bridge's entries overflow on the first
// value stamp and fold into a private pattern once, and the checked-out
// ordering factors the folded system — still the dense oracle's solution.
// (Both are frequencies where a private session meets 1e-9 too: on this
// lossless ladder it sits 1.5e-9 to 2.1e-9 from the oracle at 1e6, 1e7
// and 7e8 Hz, and the wrong-key session exactly as far.)
TEST(FactorizationSharing, AcWrongKeyOnSameDimensionFoldsTheOverflow) {
  SolverStateCache cache;
  AcOptions opt;
  opt.sharing.provider = &cache;
  opt.sharing.structure_key = "one-key-for-every-ladder";
  obs::RunTelemetry first, second;
  int far = 0;
  Circuit a = sourceDrivenLadder(10, false, far);
  opt.telemetry = &first;
  AcSession(a, opt).solveAt(1e8);
  EXPECT_EQ(first.shared_symbolic_builds, 1);
  EXPECT_EQ(first.pattern_compiles, 1);

  Circuit b = sourceDrivenLadder(10, true, far);
  opt.telemetry = &second;
  AcSession session(b, opt);
  for (const double f : {1e8, 3e8}) {
    const ComplexVector& x = session.solveAt(f);
    EXPECT_LT(oracle::relativeGap(x, oracle::acDenseReference(b, f)), 1e-9) << f;
  }
  EXPECT_EQ(second.structure.unknowns, first.structure.unknowns);
  EXPECT_GT(second.structure.nonzeros, first.structure.nonzeros);
  EXPECT_EQ(second.shared_symbolic_reuses, 1);
  EXPECT_EQ(second.rcm_orderings, 0);
  EXPECT_EQ(second.pattern_compiles, 1);  // the one fold, not one per call
  EXPECT_EQ(second.lu_factorizations, 2);
}

// Under honest keys a corner that checks its structure class out compiles
// no pattern: it adopts the class pattern and stamps its values into it.
// Value-only sweeps of every MNA family: each class compiles once.
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

// line_r > 0 adds two ladder nodes per segment (the R/2 split around each
// inductor), so a sweep over line_r {0, 5, 5} is two structure classes:
// no corner compiles a private pattern, and the second r = 5 corner checks
// its class out.
TEST(FactorizationSharing, LineResistanceSplitsTheStructureClass) {
  SweepSpec emc;
  emc.scenario = "emc";
  emc.set("drive", std::string("none"));
  emc.set("t_stop", 3e-9);
  emc.set("segments", 16.0);
  emc.set("pulse_t0", 1e-9);
  emc.axis("line_r", {0.0, 5.0, 5.0});

  SweepSpec crosstalk;
  crosstalk.scenario = "crosstalk";
  crosstalk.set("pattern", std::string("010"));
  crosstalk.set("bit_time", 1e-9);
  crosstalk.set("t_stop", 3e-9);
  crosstalk.set("segments", 8.0);
  crosstalk.axis("line_r", {0.0, 5.0, 5.0});
  crosstalk.driver = "tinydrv";
  crosstalk.receiver = "tinyrcv";

  for (const SweepSpec& spec : {emc, crosstalk}) {
    SweepRunnerOptions opt;
    opt.workers = 1;  // corners 1 and 2 run in index order
    opt.model_cache = testmodels::tinyCache();
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    ASSERT_EQ(result.okCount(), 3u) << spec.scenario;
    EXPECT_EQ(result.solver_cache.symbolic_misses, 2) << spec.scenario;
    EXPECT_EQ(runner.solverCache().structureClassCount(), 2u) << spec.scenario;
    for (const SweepRunRecord& r : result.runs)
      EXPECT_EQ(r.telemetry.pattern_compiles, r.telemetry.shared_symbolic_builds)
          << r.label;
    const obs::RunTelemetry& lossless = result.runs[0].telemetry;
    const obs::RunTelemetry& reuse = result.runs[2].telemetry;
    EXPECT_LT(lossless.structure.unknowns, reuse.structure.unknowns) << spec.scenario;
    EXPECT_EQ(reuse.shared_symbolic_reuses, 1) << spec.scenario;
    EXPECT_EQ(reuse.pattern_compiles, 0) << spec.scenario;
  }
}

// Key honesty: RHS-only parameters and element values must stay out of
// the structure key; parameters that change the pattern must change it.
TEST(FactorizationSharing, EmcKeyTracksStructureOnly) {
  auto scenario = ScenarioRegistry::global().create("emc");
  const std::string structure = scenario->structureKey();
  ASSERT_FALSE(structure.empty());

  // RHS-only knobs: field excitation and geometry never touch the key.
  scenario->set("amplitude", 750.0);
  scenario->set("theta", 45.0);
  scenario->set("phi", 30.0);
  scenario->set("pulse_t0", 2e-9);
  scenario->set("route_deg", 15.0);
  EXPECT_EQ(scenario->structureKey(), structure);

  // Static-stamp values: same pattern, same key.
  scenario->set("line_c", 1.1e-10);
  scenario->set("dt", 1.3e-11);
  EXPECT_EQ(scenario->structureKey(), structure);

  // Structural knobs: different pattern.
  scenario->set("segments", 16.0);
  EXPECT_NE(scenario->structureKey(), structure);

  // amplitude=0 drops the field sources entirely — a structural change.
  auto quiet = ScenarioRegistry::global().create("emc");
  quiet->set("amplitude", 0.0);
  EXPECT_NE(quiet->structureKey(), structure);

  // line_r > 0 splits each series R around its inductor: structural.
  // line_g's shunt resistors land on the capacitors' entries: not.
  auto lossy = ScenarioRegistry::global().create("emc");
  lossy->set("line_g", 1e-3);
  EXPECT_EQ(lossy->structureKey(), structure);
  lossy->set("line_r", 5.0);
  EXPECT_NE(lossy->structureKey(), structure);
}

TEST(FactorizationSharing, TlineKeysOnlyForTheMnaEngine) {
  auto scenario = ScenarioRegistry::global().create("tline");
  scenario->set("engine", std::string("spice-rbf"));
  const std::string structure = scenario->structureKey();
  EXPECT_FALSE(structure.empty());
  scenario->set("zc", 120.0);  // reaches the lumped model's values only
  EXPECT_EQ(scenario->structureKey(), structure);

  // The FDTD engines never run the MNA solver: no key, no sharing.
  for (const char* engine : {"fdtd1d", "fdtd3d"}) {
    scenario->set("engine", std::string(engine));
    EXPECT_EQ(scenario->structureKey(), "") << engine;
  }
}

TEST(FactorizationSharing, CrosstalkKeyTracksCouplingPresence) {
  auto scenario = ScenarioRegistry::global().create("crosstalk");
  const std::string structure = scenario->structureKey();
  ASSERT_FALSE(structure.empty());
  // Coupling stamps mutual elements: same structure while both nonzero.
  scenario->set("coupling", 0.25);
  EXPECT_EQ(scenario->structureKey(), structure);
  // Victim terminations are resistor values in an unchanged pattern.
  scenario->set("victim_r_far", 75.0);
  EXPECT_EQ(scenario->structureKey(), structure);
  // coupling=0 skips the mutual stamps entirely — structural.
  scenario->set("coupling", 0.0);
  EXPECT_NE(scenario->structureKey(), structure);

  // line_r > 0 splits each series R around its inductor: structural.
  // line_g's shunt resistors land on the capacitors' entries: not.
  auto lossy = ScenarioRegistry::global().create("crosstalk");
  lossy->set("line_g", 1e-3);
  EXPECT_EQ(lossy->structureKey(), structure);
  lossy->set("line_r", 5.0);
  EXPECT_NE(lossy->structureKey(), structure);
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
