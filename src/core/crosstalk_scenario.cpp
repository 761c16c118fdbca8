#include "core/crosstalk_scenario.h"

#include <chrono>
#include <stdexcept>

#include "circuit/transient.h"
#include "rbf/driver_model.h"
#include "signal/bit_pattern.h"

namespace fdtdmm {

namespace {

double asNum(const ParamValue& v) { return std::get<double>(v); }

}  // namespace

void validateCrosstalkScenario(const CrosstalkScenario& cfg) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("CrosstalkScenario: " + what);
  };
  if (cfg.pattern.empty()) fail("empty bit pattern");
  if (!(cfg.bit_time > 0.0)) fail("bit_time must be > 0");
  if (!(cfg.t_stop > 0.0)) fail("t_stop must be > 0");
  if (!(cfg.dt > 0.0)) fail("dt must be > 0");
  if (!(cfg.line.l > 0.0) || !(cfg.line.c > 0.0) || !(cfg.line.length > 0.0))
    fail("line l, c, length must be > 0");
  if (cfg.line.r < 0.0 || cfg.line.g < 0.0) fail("line r, g must be >= 0");
  if (cfg.line.segments == 0) fail("line needs >= 1 segment");
  if (!(cfg.coupling >= 0.0) || !(cfg.coupling <= 1.0))
    fail("coupling must be in [0, 1]");
  if (!(cfg.coupling_l >= 0.0) || cfg.coupling_l >= 1.0)
    fail("coupling_l must be in [0, 1)");
  if (!(cfg.victim_r_near > 0.0) || !(cfg.victim_r_far > 0.0))
    fail("victim terminations must be > 0");
  if (!(cfg.agg_load_r > 0.0)) fail("agg_load_r must be > 0");
  if (!(cfg.agg_load_c > 0.0)) fail("agg_load_c must be > 0");
}

TaskWaveforms runCrosstalkScenario(const CrosstalkScenario& cfg,
                                   std::shared_ptr<const RbfDriverModel> driver,
                                   const SolverSharing& sharing) {
  validateCrosstalkScenario(cfg);
  if (!driver)
    throw std::invalid_argument("runCrosstalkScenario: null driver model");
  const auto start = std::chrono::steady_clock::now();
  const BitPattern pattern(cfg.pattern, cfg.bit_time);

  Circuit circuit;
  const int agg_near = circuit.addNode();
  const int agg_far = circuit.addNode();
  const int vic_near = circuit.addNode();
  const int vic_far = circuit.addNode();

  circuit.addBehavioralPort(agg_near, Circuit::kGround,
                            std::make_shared<RbfDriverPort>(driver, pattern));

  CoupledRlgcParams cp;
  cp.line = cfg.line;
  cp.cm = cfg.coupling * cfg.line.c;
  cp.lm = cfg.coupling_l * cfg.line.l;
  buildCoupledRlgcLines(circuit, agg_near, agg_far, vic_near, vic_far, cp);

  circuit.addResistor(agg_far, Circuit::kGround, cfg.agg_load_r);
  circuit.addCapacitor(agg_far, Circuit::kGround, cfg.agg_load_c);
  circuit.addResistor(vic_near, Circuit::kGround, cfg.victim_r_near);
  circuit.addResistor(vic_far, Circuit::kGround, cfg.victim_r_far);

  TaskWaveforms out;
  TransientOptions topt;
  topt.dt = cfg.dt;
  topt.t_stop = cfg.t_stop;
  topt.settle_time = 1e-9;
  topt.telemetry = &out.telemetry;
  topt.sharing = sharing;
  auto res = runTransient(circuit, topt,
                          {{"agg_near", agg_near, Circuit::kGround},
                           {"agg_far", agg_far, Circuit::kGround},
                           {"vic_near", vic_near, Circuit::kGround},
                           {"vic_far", vic_far, Circuit::kGround}});

  out.v_near = std::move(res.probes.at("agg_near"));
  out.v_far = std::move(res.probes.at("vic_far"));
  out.victims.push_back(std::move(res.probes.at("vic_near")));
  out.victims.push_back(std::move(res.probes.at("agg_far")));
  out.max_newton_iterations = res.max_newton_iterations;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

const ParamTable<CrosstalkFamily>& CrosstalkFamily::table() {
  using T = CrosstalkFamily;
  static const ParamTable<T> t(
      "crosstalk",
      {
          {stringParam("pattern", {}, "transmitted bit pattern"),
           [](const T& s) { return ParamValue{s.cfg_.pattern}; },
           [](T& s, const ParamValue& v) { s.cfg_.pattern = std::get<std::string>(v); }},
          {positiveParam("bit_time", "bit time [s]"),
           [](const T& s) { return ParamValue{s.cfg_.bit_time}; },
           [](T& s, const ParamValue& v) { s.cfg_.bit_time = asNum(v); }},
          {positiveParam("t_stop", "simulated window [s]"),
           [](const T& s) { return ParamValue{s.cfg_.t_stop}; },
           [](T& s, const ParamValue& v) { s.cfg_.t_stop = asNum(v); }},
          {positiveParam("dt", "MNA time step [s]"),
           [](const T& s) { return ParamValue{s.cfg_.dt}; },
           [](T& s, const ParamValue& v) { s.cfg_.dt = asNum(v); }},
          {nonNegativeParam("line_r", "series resistance [ohm/m]"),
           [](const T& s) { return ParamValue{s.cfg_.line.r}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.r = asNum(v); }},
          {positiveParam("line_l", "series inductance [H/m]"),
           [](const T& s) { return ParamValue{s.cfg_.line.l}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.l = asNum(v); }},
          {nonNegativeParam("line_g", "shunt conductance [S/m]"),
           [](const T& s) { return ParamValue{s.cfg_.line.g}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.g = asNum(v); }},
          {positiveParam("line_c", "shunt capacitance to ground [F/m]"),
           [](const T& s) { return ParamValue{s.cfg_.line.c}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.c = asNum(v); }},
          {positiveParam("line_length", "physical length [m]"),
           [](const T& s) { return ParamValue{s.cfg_.line.length}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.length = asNum(v); }},
          {intParam("segments", 1.0, "LC ladder sections per line"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.line.segments)}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.segments = static_cast<std::size_t>(asNum(v)); }},
          {[] {
             ParamDescriptor d = nonNegativeParam(
                 "coupling", "mutual capacitance fraction cm / line_c");
             d.max_value = 1.0;
             return d;
           }(),
           [](const T& s) { return ParamValue{s.cfg_.coupling}; },
           [](T& s, const ParamValue& v) { s.cfg_.coupling = asNum(v); }},
          {[] {
             ParamDescriptor d = nonNegativeParam(
                 "coupling_l", "mutual inductance fraction lm / line_l");
             // lm = line_l would be a degenerate k = 1 inductor pair, so the
             // descriptor range matches the validator: [0, 1).
             d.max_value = 1.0;
             d.max_exclusive = true;
             return d;
           }(),
           [](const T& s) { return ParamValue{s.cfg_.coupling_l}; },
           [](T& s, const ParamValue& v) { s.cfg_.coupling_l = asNum(v); }},
          {positiveParam("victim_r_near", "victim near-end termination [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.victim_r_near}; },
           [](T& s, const ParamValue& v) { s.cfg_.victim_r_near = asNum(v); }},
          {positiveParam("victim_r_far", "victim far-end termination [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.victim_r_far}; },
           [](T& s, const ParamValue& v) { s.cfg_.victim_r_far = asNum(v); }},
          {positiveParam("agg_load_r", "aggressor far-end shunt R [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.agg_load_r}; },
           [](T& s, const ParamValue& v) { s.cfg_.agg_load_r = asNum(v); }},
          {positiveParam("agg_load_c", "aggressor far-end shunt C [F]"),
           [](const T& s) { return ParamValue{s.cfg_.agg_load_c}; },
           [](T& s, const ParamValue& v) { s.cfg_.agg_load_c = asNum(v); }},
      });
  return t;
}

const std::string& CrosstalkFamily::family() const {
  static const std::string name = "crosstalk";
  return name;
}

const std::vector<ParamDescriptor>& CrosstalkFamily::descriptors() const {
  return table().descriptors();
}

void CrosstalkFamily::set(const std::string& param, const ParamValue& value) {
  table().set(*this, param, value);
}

ParamValue CrosstalkFamily::get(const std::string& param) const {
  return table().get(*this, param);
}

void CrosstalkFamily::validate() const { validateCrosstalkScenario(cfg_); }

std::string CrosstalkFamily::label() const {
  return "crosstalk pattern=" + cfg_.pattern + " bt=" + formatDouble(cfg_.bit_time) +
         " k=" + formatDouble(cfg_.coupling) + " kl=" + formatDouble(cfg_.coupling_l) +
         " rvn=" + formatDouble(cfg_.victim_r_near) +
         " rvf=" + formatDouble(cfg_.victim_r_far);
}

std::unique_ptr<Scenario> CrosstalkFamily::clone() const {
  return std::make_unique<CrosstalkFamily>(*this);
}

TaskWaveforms CrosstalkFamily::run(std::shared_ptr<const RbfDriverModel> driver,
                                   std::shared_ptr<const RbfReceiverModel> /*receiver*/,
                                   const SolverSharing& sharing) const {
  return runCrosstalkScenario(cfg_, std::move(driver), sharing);
}

}  // namespace fdtdmm
