// Tests for the open scenario API: registry lookup/registration error
// paths, descriptor-driven parameter validation, generic axis error paths
// (fail at expand time, not mid-sweep), and the openness proof — a
// synthetic family defined entirely in this file, registered through
// ScenarioRegistry::global(), swept and exported with zero engine changes.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "engine/sweep_runner.h"

namespace fdtdmm {
namespace {

/// Bare "tline" spec on family defaults (the generic spelling of the old
/// tlineSpec() shim).
SweepSpec tlineSpec() {
  SweepSpec spec;
  spec.scenario = "tline";
  return spec;
}

/// The conditional RC-load corner axis, spelled generically.
ParamAxis rcLoadAxis(double r, double c) {
  ParamAxis axis;
  axis.name = "rc_load";
  axis.only_when_param = "load";
  axis.only_when_value = std::string("rc");
  axis.points.push_back({{{"load_r", r}, {"load_c", c}}});
  return axis;
}

// --- A synthetic scenario family: fabricates waveforms analytically (an
// exponential charge toward an "amplitude" level), so it exercises the
// whole registry -> spec -> runner -> metrics -> export path in
// microseconds and without any macromodel.
struct SynthConfig {
  std::string pattern = "01";
  double bit_time = 1e-9;
  double amplitude = 1.0;
  double tau = 0.2e-9;
};

class SynthFamily final : public Scenario {
 public:
  const std::string& family() const override {
    static const std::string name = "test-synth";
    return name;
  }
  const std::vector<ParamDescriptor>& descriptors() const override {
    return table().descriptors();
  }
  void set(const std::string& param, const ParamValue& value) override {
    table().set(*this, param, value);
  }
  ParamValue get(const std::string& param) const override {
    return table().get(*this, param);
  }
  void validate() const override {}
  std::string label() const override {
    return "synth a=" + formatParamValue(ParamValue{cfg_.amplitude});
  }
  std::string pattern() const override { return cfg_.pattern; }
  double bitTime() const override { return cfg_.bit_time; }
  double tStop() const override { return 4.0 * cfg_.bit_time; }
  bool needsDriver() const override { return false; }
  bool needsReceiver() const override { return false; }
  std::unique_ptr<Scenario> clone() const override {
    return std::make_unique<SynthFamily>(*this);
  }
  TaskWaveforms run(std::shared_ptr<const RbfDriverModel>,
                    std::shared_ptr<const RbfReceiverModel>,
                    const SolverSharing&) const override {
    TaskWaveforms out;
    const double a = cfg_.amplitude, tau = cfg_.tau;
    out.v_far = sampleFunction(
        [a, tau](double t) { return a * (1.0 - std::exp(-t / tau)); }, 0.0,
        tStop(), 10e-12);
    out.v_near = out.v_far;
    return out;
  }

 private:
  static const ParamTable<SynthFamily>& table() {
    using T = SynthFamily;
    static const ParamTable<T> t(
        "test-synth",
        {
            {stringParam("pattern", {}, "bit pattern"),
             [](const T& s) { return ParamValue{s.cfg_.pattern}; },
             [](T& s, const ParamValue& v) { s.cfg_.pattern = std::get<std::string>(v); }},
            {positiveParam("bit_time", "bit time [s]"),
             [](const T& s) { return ParamValue{s.cfg_.bit_time}; },
             [](T& s, const ParamValue& v) { s.cfg_.bit_time = std::get<double>(v); }},
            {positiveParam("amplitude", "settled level [V]"),
             [](const T& s) { return ParamValue{s.cfg_.amplitude}; },
             [](T& s, const ParamValue& v) { s.cfg_.amplitude = std::get<double>(v); }},
            {positiveParam("tau", "charge time constant [s]"),
             [](const T& s) { return ParamValue{s.cfg_.tau}; },
             [](T& s, const ParamValue& v) { s.cfg_.tau = std::get<double>(v); }},
        });
    return t;
  }

  SynthConfig cfg_;
};

bool ensureSynthRegistered() {
  static const bool once = [] {
    ScenarioRegistry::global().add(
        "test-synth", [] { return std::make_unique<SynthFamily>(); });
    return true;
  }();
  return once;
}

TEST(ScenarioRegistry, BuiltinsAreRegistered) {
  auto& reg = ScenarioRegistry::global();
  EXPECT_TRUE(reg.has("tline"));
  EXPECT_TRUE(reg.has("pcb"));
  EXPECT_TRUE(reg.has("crosstalk"));
  for (const std::string name : {"tline", "pcb", "crosstalk"}) {
    auto s = reg.create(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->family(), name);
    EXPECT_FALSE(s->descriptors().empty());
    EXPECT_NO_THROW(s->validate());  // defaults are runnable
    EXPECT_FALSE(s->label().empty());
    EXPECT_GT(s->bitTime(), 0.0);
    EXPECT_GT(s->tStop(), 0.0);
  }
}

TEST(ScenarioRegistry, UnknownNameAndBadRegistrationThrow) {
  auto& reg = ScenarioRegistry::global();
  EXPECT_FALSE(reg.has("no-such-family"));
  EXPECT_THROW(reg.create("no-such-family"), std::invalid_argument);
  // Duplicate registration is an error, not a silent replacement.
  EXPECT_THROW(reg.add("tline", [] { return std::make_unique<SynthFamily>(); }),
               std::invalid_argument);
  EXPECT_THROW(reg.add("", [] { return std::make_unique<SynthFamily>(); }),
               std::invalid_argument);
  EXPECT_THROW(reg.add("null-factory", nullptr), std::invalid_argument);
  // An unknown scenario name fails sweep expansion too.
  SweepSpec spec;
  spec.scenario = "no-such-family";
  EXPECT_THROW(spec.expand(), std::invalid_argument);
  EXPECT_THROW(spec.count(), std::invalid_argument);
}

TEST(ScenarioParams, SetGetAndValidationErrors) {
  auto s = ScenarioRegistry::global().create("tline");
  s->set("zc", 75.0);
  EXPECT_EQ(std::get<double>(s->get("zc")), 75.0);
  s->set("load", std::string("receiver"));
  EXPECT_TRUE(s->needsReceiver());
  s->set("engine", std::string("spice-rbf"));
  EXPECT_EQ(std::get<std::string>(s->get("engine")), "spice-rbf");

  EXPECT_THROW(s->set("no_such_param", 1.0), std::invalid_argument);
  EXPECT_THROW(s->get("no_such_param"), std::invalid_argument);
  EXPECT_THROW(s->set("zc", -1.0), std::invalid_argument);            // range
  EXPECT_THROW(s->set("zc", std::string("hi")), std::invalid_argument);  // kind
  EXPECT_THROW(s->set("load", std::string("open")), std::invalid_argument);  // choice
  EXPECT_THROW(s->set("pattern", std::string("")), std::invalid_argument);
  EXPECT_THROW(s->set("mesh_nx", 1.5), std::invalid_argument);  // integrality
  EXPECT_EQ(std::get<double>(s->get("zc")), 75.0);  // failed sets left it alone

  const ParamDescriptor* zc = s->findParam("zc");
  ASSERT_NE(zc, nullptr);
  EXPECT_EQ(zc->kind, ParamKind::kDouble);
  EXPECT_EQ(s->findParam("no_such_param"), nullptr);
}

TEST(SweepAxes, ErrorPathsFailAtExpandTimeNotMidSweep) {
  // Unknown axis parameter.
  SweepSpec unknown = tlineSpec();
  unknown.axis("warp_factor", {9.0});
  EXPECT_THROW(unknown.count(), std::invalid_argument);
  EXPECT_THROW(unknown.expand(), std::invalid_argument);

  // Out-of-range axis value: caught by the descriptor check up front even
  // though a run with zc=131 (the first point) would have succeeded.
  SweepSpec range = tlineSpec();
  range.axis("zc", {131.0, -5.0});
  EXPECT_THROW(range.count(), std::invalid_argument);
  EXPECT_THROW(range.expand(), std::invalid_argument);

  // Kind mismatch on an axis value.
  SweepSpec kind = tlineSpec();
  kind.axisStrings("zc", {"fast"});
  EXPECT_THROW(kind.expand(), std::invalid_argument);

  // A conditional axis whose condition is bound by a *later* axis would
  // resolve against stale values; rejected up front.
  SweepSpec order = tlineSpec();
  order.axis(rcLoadAxis(500.0, 1e-12));
  order.axisStrings("load", {"rc", "receiver"});
  EXPECT_THROW(order.expand(), std::invalid_argument);

  // A conditional axis on an unknown parameter.
  SweepSpec cond = tlineSpec();
  ParamAxis bad;
  bad.name = "bad";
  bad.only_when_param = "no_such_param";
  bad.only_when_value = std::string("x");
  bad.points.push_back({{{"zc", 100.0}}});
  cond.axis(std::move(bad));
  EXPECT_THROW(cond.expand(), std::invalid_argument);

  // An axis point with no bindings is meaningless.
  SweepSpec hollow = tlineSpec();
  ParamAxis empty_point;
  empty_point.name = "hollow";
  empty_point.points.push_back({});
  hollow.axis(std::move(empty_point));
  EXPECT_THROW(hollow.expand(), std::invalid_argument);

  // Base overrides are validated too.
  SweepSpec bad_base = tlineSpec();
  bad_base.set("bit_time", -1.0);
  EXPECT_THROW(bad_base.expand(), std::invalid_argument);

  // The same parameter bound by two axes would just have the inner axis
  // overwrite the outer, multiplying the grid with duplicate tasks.
  SweepSpec twice = tlineSpec();
  twice.axis("zc", {90.0, 110.0});
  twice.axis("zc", {100.0, 131.0});
  EXPECT_THROW(twice.expand(), std::invalid_argument);
  SweepSpec rc_twice = tlineSpec();
  rc_twice.axis(rcLoadAxis(500.0, 1e-12));
  rc_twice.axis(rcLoadAxis(100.0, 5e-12));
  EXPECT_THROW(rc_twice.count(), std::invalid_argument);
}

TEST(SweepAxes, LabelsStayDistinguishableForLabelOmittedParameters) {
  // t_stop is not part of the tline label; without disambiguation both
  // corners would export byte-identical labels.
  SweepSpec spec = tlineSpec();
  spec.axis("t_stop", {1e-9, 2e-9});
  spec.axis("zc", {100.0, 131.0});
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 4u);
  std::set<std::string> labels;
  for (const auto& task : tasks) labels.insert(task.label);
  EXPECT_EQ(labels.size(), tasks.size());
  EXPECT_NE(tasks[0].label.find("t_stop=1e-09"), std::string::npos);
  EXPECT_NE(tasks[2].label.find("t_stop=2e-09"), std::string::npos);

  // A sweep whose labels are already unique keeps the family label as-is
  // (no suffix) — the migration goldens depend on this.
  SweepSpec plain = tlineSpec();
  plain.axis("zc", {100.0, 131.0});
  for (const auto& task : plain.expand())
    EXPECT_EQ(task.label.find(" | "), std::string::npos);
}

TEST(ScenarioRegistry, SyntheticFamilySweepsEndToEndWithoutEngineChanges) {
  ensureSynthRegistered();

  SweepSpec spec;
  spec.scenario = "test-synth";
  spec.set("bit_time", 0.5e-9);
  spec.axis("amplitude", {0.5, 1.0, 2.0});
  spec.axis("tau", {0.1e-9, 0.2e-9});
  EXPECT_EQ(spec.count(), 6u);

  SweepRunnerOptions opt;
  opt.workers = 2;
  SweepRunner runner(opt);
  const auto result = runner.run(spec);
  ASSERT_EQ(result.runs.size(), 6u);
  EXPECT_EQ(result.okCount(), 6u);
  // Innermost axis (tau) varies fastest; metrics reflect the parameters.
  EXPECT_NEAR(result.runs[0].metrics.v_far_max, 0.5, 1e-6);
  EXPECT_NEAR(result.runs[2].metrics.v_far_max, 1.0, 1e-6);
  EXPECT_NEAR(result.runs[4].metrics.v_far_max, 2.0, 1e-6);
  for (const auto& run : result.runs) EXPECT_EQ(run.metrics.v_far_min, 0.0);
}

}  // namespace
}  // namespace fdtdmm
