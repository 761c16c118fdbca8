// Tests for cross-corner solver-state sharing: the central invariant (a
// linear RHS-only sweep performs one base LU factorization per
// numeric-base class, not per corner), a checked-out RCM ordering serving
// every factorization of a run, the byte-identical-exports contract
// between sharing on and off, result-cache replay of repeated corners, the
// honesty of the family sharing keys, and the valid-name lists in the
// *FromName error messages.
#include <gtest/gtest.h>

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
#include "engine/sweep_runner.h"
#include "signal/bit_pattern.h"
#include "signal/linear_ports.h"

namespace fdtdmm {
namespace {

// 6 corners, all linear (quiescent victim trace, no macromodels), whose
// amplitude x theta axes reach only the RHS: exactly one numeric-base
// class.
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

// THE invariant: total factorizations == numeric-base classes, for any
// worker count, on a linear RHS-only sweep.
TEST(FactorizationSharing, LinearSweepFactorsOncePerNumericClass) {
  const SweepSpec spec = rhsOnlyEmcSpec();
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    ASSERT_EQ(result.okCount(), result.runs.size());
    ASSERT_EQ(result.runs.size(), 6u);

    // One class: amplitude/theta are RHS-only.
    EXPECT_EQ(runner.solverCache()->numericClassCount(), 1u) << workers;
    EXPECT_EQ(totalLu(result), 1) << workers;
    EXPECT_EQ(result.solver_cache.numeric_misses, 1) << workers;
    EXPECT_EQ(result.solver_cache.numeric_hits, 5) << workers;
    // The corners also share one RCM ordering (6 corners, 1 analysis).
    EXPECT_EQ(runner.solverCache()->structureClassCount(), 1u) << workers;
    EXPECT_EQ(result.solver_cache.symbolic_misses, 1) << workers;
    EXPECT_EQ(result.solver_cache.symbolic_hits, 5) << workers;

    for (const SweepRunRecord& r : result.runs) {
      // Each corner either built its class base (1 LU) or checked it out,
      // and likewise computed the class ordering or checked it out.
      EXPECT_EQ(r.telemetry.lu_factorizations + r.telemetry.shared_base_reuses, 1)
          << r.label;
      EXPECT_EQ(r.telemetry.rcm_orderings + r.telemetry.shared_symbolic_reuses, 1)
          << r.label;
    }
  }
}

// A lossless ladder driven by a behavioral port: the port restamps its
// conductance every Newton iteration, so every iteration refactors.
Circuit portDrivenLadder(int& far) {
  const BitPattern pattern("0110", 0.5e-9);
  Circuit c;
  const int near = c.addNode();
  far = c.addNode();
  c.addBehavioralPort(near, Circuit::kGround,
                      std::make_shared<TheveninPort>(
                          [pattern](double t) { return 1.8 * pattern.levelAt(t); }, 45.0));
  RlgcParams p;
  p.segments = 10;
  buildRlgcLine(c, near, Circuit::kGround, far, Circuit::kGround, p);
  c.addResistor(far, Circuit::kGround, 60.0);
  return c;
}

// A run that checks a shared RCM ordering out computes none of its own:
// its base AND its per-iteration refactorizations all use the shared
// ordering (the port's Jacobian positions are part of the static pattern,
// so nothing forces a re-ordering).
TEST(FactorizationSharing, SharedSymbolicReuseRunsNoRcmOfItsOwn) {
  SolverStateCache cache;
  std::map<std::string, Waveform> first;
  for (int run = 0; run < 2; ++run) {
    int far = 0;
    Circuit c = portDrivenLadder(far);
    obs::RunTelemetry tel;
    TransientOptions opt;
    opt.dt = 5e-12;
    opt.t_stop = 2e-9;
    opt.telemetry = &tel;
    opt.sharing.provider = &cache;
    opt.sharing.structure_key = "port-driven-ladder";
    const TransientResult res = runTransient(c, opt, {{"far", far, 0}});
    EXPECT_GT(res.lu_factorizations, 1) << run;
    EXPECT_EQ(tel.pattern_realignments, 0) << run;
    if (run == 0) {
      EXPECT_EQ(tel.shared_symbolic_builds, 1);
      EXPECT_EQ(tel.rcm_orderings, 1);
      first = res.probes;
    } else {
      EXPECT_EQ(tel.shared_symbolic_reuses, 1);
      EXPECT_EQ(tel.rcm_orderings, 0);
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

// Sharing must never perturb a metric byte — on or off, any worker count,
// linear (emc) and nonlinear (crosstalk) families alike.
TEST(FactorizationSharing, MetricsByteIdenticalSharingOnOrOff) {
  auto runExports = [](const SweepSpec& spec, std::size_t workers, bool share) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    opt.share_solver_state = share;
    opt.reuse_results = share;  // exercise both caches together
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    EXPECT_EQ(result.okCount(), result.runs.size());
    if (!share) {
      // Sharing off: every corner factors privately, caches stay cold.
      EXPECT_EQ(result.solver_cache.numeric_hits, 0);
      EXPECT_EQ(result.solver_cache.numeric_misses, 0);
      EXPECT_EQ(result.result_cache.inserts, 0);
    }
    return exportMetrics(result);
  };
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

  for (const SweepSpec& spec : {rhsOnlyEmcSpec(), crosstalk}) {
    const Exports off = runExports(spec, 1, false);
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const Exports on = runExports(spec, workers, true);
      EXPECT_EQ(on.csv, off.csv) << spec.scenario << " workers=" << workers;
      EXPECT_EQ(stripHeader(on.json), stripHeader(off.json))
          << spec.scenario << " workers=" << workers;
    }
  }
}

// Re-running the same sweep through the same runner replays every corner
// from the result cache: zero transients, zero factorizations, identical
// exported bytes.
TEST(FactorizationSharing, RepeatedSweepReplaysFromResultCache) {
  const SweepSpec spec = rhsOnlyEmcSpec();
  SweepRunnerOptions opt;
  opt.workers = 2;
  SweepRunner runner(opt);

  const SweepResult first = runner.run(spec);
  ASSERT_EQ(first.okCount(), first.runs.size());
  EXPECT_EQ(first.result_cache.hits, 0);
  EXPECT_EQ(first.result_cache.inserts, 6);

  const SweepResult second = runner.run(spec);
  ASSERT_EQ(second.okCount(), second.runs.size());
  EXPECT_EQ(second.result_cache.hits, 6);
  EXPECT_EQ(second.result_cache.inserts, 0);
  // No corner ran: no factorizations, no solver-cache traffic.
  EXPECT_EQ(totalLu(second), 0);
  EXPECT_EQ(second.solver_cache.numeric_misses, 0);
  EXPECT_EQ(second.solver_cache.numeric_hits, 0);
  for (const SweepRunRecord& r : second.runs) EXPECT_EQ(r.telemetry.steps, 0);

  const Exports a = exportMetrics(first);
  const Exports b = exportMetrics(second);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.json, b.json);

  // keep_waveforms bypasses the cache (cached records carry no waves).
  SweepRunnerOptions wopt;
  wopt.workers = 1;
  wopt.keep_waveforms = true;
  wopt.result_cache = runner.resultCache();
  SweepRunner wrunner(wopt);
  const SweepResult waved = wrunner.run(spec);
  ASSERT_EQ(waved.okCount(), waved.runs.size());
  EXPECT_EQ(waved.result_cache.hits, 0);
  for (const SweepRunRecord& r : waved.runs) EXPECT_GT(r.waves.v_far.size(), 0u);
}

// Key honesty: RHS-only parameters must stay out of both keys; parameters
// that reach a static stamp or the solver setup must change the numeric
// key; structural parameters must change the structure key; and the
// numeric key must refine the structure key.
TEST(FactorizationSharing, EmcKeysTrackStructureAndStaticBase) {
  auto scenario = ScenarioRegistry::global().create("emc");
  const std::string structure = scenario->structureKey();
  const std::string numeric = scenario->numericBaseKey();
  ASSERT_FALSE(structure.empty());
  ASSERT_FALSE(numeric.empty());
  // Refinement: equal numeric keys must imply equal structure keys.
  EXPECT_EQ(numeric.compare(0, structure.size(), structure), 0);

  // RHS-only knobs: field excitation and geometry never touch the keys.
  scenario->set("amplitude", 750.0);
  scenario->set("theta", 45.0);
  scenario->set("phi", 30.0);
  scenario->set("pulse_t0", 2e-9);
  scenario->set("route_deg", 15.0);
  EXPECT_EQ(scenario->structureKey(), structure);
  EXPECT_EQ(scenario->numericBaseKey(), numeric);

  // Static-stamp knobs: same structure, different base matrix.
  scenario->set("line_c", 1.1e-10);
  EXPECT_EQ(scenario->structureKey(), structure);
  EXPECT_NE(scenario->numericBaseKey(), numeric);
  scenario->set("dt", 1.3e-11);
  const std::string numeric2 = scenario->numericBaseKey();
  EXPECT_NE(numeric2, numeric);

  // Structural knobs: different pattern, different everything.
  scenario->set("segments", 16.0);
  EXPECT_NE(scenario->structureKey(), structure);
  EXPECT_NE(scenario->numericBaseKey(), numeric2);

  // amplitude=0 drops the field sources entirely — a structural change.
  auto quiet = ScenarioRegistry::global().create("emc");
  quiet->set("amplitude", 0.0);
  EXPECT_NE(quiet->structureKey(), structure);
}

TEST(FactorizationSharing, TlineKeysOnlyForTheMnaEngine) {
  auto scenario = ScenarioRegistry::global().create("tline");
  scenario->set("engine", std::string("spice-rbf"));
  const std::string structure = scenario->structureKey();
  const std::string numeric = scenario->numericBaseKey();
  EXPECT_FALSE(structure.empty());
  EXPECT_EQ(numeric.compare(0, structure.size(), structure), 0);
  scenario->set("zc", 120.0);  // reaches the lumped model: numeric-only
  EXPECT_EQ(scenario->structureKey(), structure);
  EXPECT_NE(scenario->numericBaseKey(), numeric);

  // The FDTD engines never run the MNA solver: no keys, no sharing.
  for (const char* engine : {"fdtd1d", "fdtd3d"}) {
    scenario->set("engine", std::string(engine));
    EXPECT_EQ(scenario->structureKey(), "") << engine;
    EXPECT_EQ(scenario->numericBaseKey(), "") << engine;
  }
}

TEST(FactorizationSharing, CrosstalkKeysFoldCouplingIntoTheBase) {
  auto scenario = ScenarioRegistry::global().create("crosstalk");
  const std::string structure = scenario->structureKey();
  const std::string numeric = scenario->numericBaseKey();
  ASSERT_FALSE(structure.empty());
  EXPECT_EQ(numeric.compare(0, structure.size(), structure), 0);
  // Coupling stamps mutual elements: same structure (both nonzero),
  // different static base.
  scenario->set("coupling", 0.25);
  EXPECT_EQ(scenario->structureKey(), structure);
  EXPECT_NE(scenario->numericBaseKey(), numeric);
  // Victim terminations are resistors in the static matrix.
  scenario->set("victim_r_far", 75.0);
  EXPECT_NE(scenario->numericBaseKey(), numeric);
  // coupling=0 skips the mutual stamps entirely — structural.
  scenario->set("coupling", 0.0);
  EXPECT_NE(scenario->structureKey(), structure);
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
