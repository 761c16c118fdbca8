#include "emc/emc_scenario.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "circuit/transient.h"
#include "emc/coupled_line.h"
#include "rbf/driver_model.h"
#include "rbf/receiver_model.h"
#include "signal/bit_pattern.h"
#include "signal/sources.h"

namespace fdtdmm {

namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

double asNum(const ParamValue& v) { return std::get<double>(v); }

}  // namespace

void validateEmcScenario(const EmcScenario& cfg) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("EmcScenario: " + what);
  };
  if (cfg.pattern.empty()) fail("empty bit pattern");
  if (!(cfg.bit_time > 0.0)) fail("bit_time must be > 0");
  if (!(cfg.t_stop > 0.0)) fail("t_stop must be > 0");
  if (!(cfg.dt > 0.0)) fail("dt must be > 0");
  if (!(cfg.line.l > 0.0) || !(cfg.line.c > 0.0) || !(cfg.line.length > 0.0))
    fail("line l, c, length must be > 0");
  if (cfg.line.r < 0.0 || cfg.line.g < 0.0) fail("line r, g must be >= 0");
  if (cfg.line.segments == 0) fail("line needs >= 1 segment");
  if (!(cfg.height > 0.0)) fail("height must be > 0");
  if (!(cfg.amplitude >= 0.0)) fail("amplitude must be >= 0");
  if (cfg.amplitude > 0.0) {
    if (!(cfg.theta_deg >= 0.0) || !(cfg.theta_deg <= 180.0))
      fail("theta must be in [0, 180] deg");
    if (cfg.pol_theta == 0.0 && cfg.pol_phi == 0.0)
      fail("polarization mix must not be zero");
    if (!(cfg.bandwidth > 0.0)) fail("bandwidth must be > 0");
    if (!(cfg.pulse_t0 > 0.0)) fail("pulse_t0 must be > 0");
  }
  if (cfg.drive != "driver" && cfg.drive != "none")
    fail("drive must be 'driver' or 'none'");
  if (cfg.drive == "none" && !(cfg.r_near > 0.0)) fail("r_near must be > 0");
  if (cfg.termination != "resistive" && cfg.termination != "receiver")
    fail("termination must be 'resistive' or 'receiver'");
  if (cfg.termination == "resistive" && !(cfg.r_far > 0.0))
    fail("r_far must be > 0");
  if (cfg.c_far < 0.0) fail("c_far must be >= 0");
}

TraceGeometry emcTraceGeometry(const EmcScenario& cfg) {
  return straightTrace(cfg.trace_x0, cfg.trace_y0, cfg.route_deg,
                       cfg.line.length, cfg.height, cfg.trace_z0);
}

TaskWaveforms runEmcScenario(const EmcScenario& cfg,
                             std::shared_ptr<const RbfDriverModel> driver,
                             std::shared_ptr<const RbfReceiverModel> receiver,
                             const SolverSharing& sharing) {
  validateEmcScenario(cfg);
  if (cfg.drive == "driver" && !driver)
    throw std::invalid_argument("runEmcScenario: null driver model");
  if (cfg.termination == "receiver" && !receiver)
    throw std::invalid_argument("runEmcScenario: null receiver model");
  const auto start = std::chrono::steady_clock::now();

  Circuit circuit;
  const int t_near = circuit.addNode();
  const int t_far = circuit.addNode();

  if (cfg.drive == "driver") {
    const BitPattern pattern(cfg.pattern, cfg.bit_time);
    circuit.addBehavioralPort(t_near, Circuit::kGround,
                              std::make_shared<RbfDriverPort>(driver, pattern));
  } else {
    circuit.addResistor(t_near, Circuit::kGround, cfg.r_near);
  }

  if (cfg.amplitude > 0.0) {
    const double sigma = gaussianSigmaForBandwidth(cfg.bandwidth);
    const PlaneWave wave(cfg.theta_deg * kDeg, cfg.phi_deg * kDeg,
                         cfg.amplitude, GaussianPulse(cfg.pulse_t0, sigma),
                         cfg.pol_theta, cfg.pol_phi);
    AgrawalOptions aopt;
    aopt.ground_reflection = cfg.ground_reflection;
    auto src = std::make_shared<const AgrawalSources>(
        wave, emcTraceGeometry(cfg), cfg.line.segments, aopt);
    buildFieldCoupledRlgcLine(circuit, t_near, t_far, cfg.line, std::move(src));
  } else {
    buildRlgcLine(circuit, t_near, Circuit::kGround, t_far, Circuit::kGround,
                  cfg.line);
  }

  if (cfg.termination == "receiver") {
    circuit.addBehavioralPort(t_far, Circuit::kGround,
                              std::make_shared<RbfReceiverPort>(receiver));
  } else {
    circuit.addResistor(t_far, Circuit::kGround, cfg.r_far);
    if (cfg.c_far > 0.0) circuit.addCapacitor(t_far, Circuit::kGround, cfg.c_far);
  }

  TaskWaveforms out;
  TransientOptions topt;
  topt.dt = cfg.dt;
  topt.t_stop = cfg.t_stop;
  topt.settle_time = 1e-9;
  topt.telemetry = &out.telemetry;
  topt.sharing = sharing;
  auto res = runTransient(circuit, topt,
                          {{"near", t_near, Circuit::kGround},
                           {"far", t_far, Circuit::kGround}});

  out.v_near = std::move(res.probes.at("near"));
  out.v_far = std::move(res.probes.at("far"));
  out.max_newton_iterations = res.max_newton_iterations;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

const ParamTable<EmcFamily>& EmcFamily::table() {
  using T = EmcFamily;
  static const ParamTable<T> t(
      "emc",
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
          {positiveParam("line_c", "shunt capacitance [F/m]"),
           [](const T& s) { return ParamValue{s.cfg_.line.c}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.c = asNum(v); }},
          {positiveParam("line_length", "physical length [m]"),
           [](const T& s) { return ParamValue{s.cfg_.line.length}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.length = asNum(v); }},
          {intParam("segments", 1.0, "LC ladder sections"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.line.segments)}; },
           [](T& s, const ParamValue& v) { s.cfg_.line.segments = static_cast<std::size_t>(asNum(v)); }},
          {positiveParam("height", "trace height over the ground plane [m]"),
           [](const T& s) { return ParamValue{s.cfg_.height}; },
           [](T& s, const ParamValue& v) { s.cfg_.height = asNum(v); }},
          {unboundedParam("trace_x0", "route start x [m]"),
           [](const T& s) { return ParamValue{s.cfg_.trace_x0}; },
           [](T& s, const ParamValue& v) { s.cfg_.trace_x0 = asNum(v); }},
          {unboundedParam("trace_y0", "route start y [m]"),
           [](const T& s) { return ParamValue{s.cfg_.trace_y0}; },
           [](T& s, const ParamValue& v) { s.cfg_.trace_y0 = asNum(v); }},
          {unboundedParam("trace_z0", "ground-plane elevation [m]"),
           [](const T& s) { return ParamValue{s.cfg_.trace_z0}; },
           [](T& s, const ParamValue& v) { s.cfg_.trace_z0 = asNum(v); }},
          {unboundedParam("route_deg", "route azimuth from +x [deg]"),
           [](const T& s) { return ParamValue{s.cfg_.route_deg}; },
           [](T& s, const ParamValue& v) { s.cfg_.route_deg = asNum(v); }},
          {nonNegativeParam("amplitude", "incident field amplitude [V/m]; 0 = clean"),
           [](const T& s) { return ParamValue{s.cfg_.amplitude}; },
           [](T& s, const ParamValue& v) { s.cfg_.amplitude = asNum(v); }},
          {[] {
             ParamDescriptor d =
                 nonNegativeParam("theta", "arrival polar angle [deg]");
             d.max_value = 180.0;
             return d;
           }(),
           [](const T& s) { return ParamValue{s.cfg_.theta_deg}; },
           [](T& s, const ParamValue& v) { s.cfg_.theta_deg = asNum(v); }},
          {unboundedParam("phi", "arrival azimuth [deg]"),
           [](const T& s) { return ParamValue{s.cfg_.phi_deg}; },
           [](T& s, const ParamValue& v) { s.cfg_.phi_deg = asNum(v); }},
          {unboundedParam("pol_theta", "theta-polarization weight"),
           [](const T& s) { return ParamValue{s.cfg_.pol_theta}; },
           [](T& s, const ParamValue& v) { s.cfg_.pol_theta = asNum(v); }},
          {unboundedParam("pol_phi", "phi-polarization weight"),
           [](const T& s) { return ParamValue{s.cfg_.pol_phi}; },
           [](T& s, const ParamValue& v) { s.cfg_.pol_phi = asNum(v); }},
          {positiveParam("bandwidth", "Gaussian pulse -3 dB bandwidth [Hz]"),
           [](const T& s) { return ParamValue{s.cfg_.bandwidth}; },
           [](T& s, const ParamValue& v) { s.cfg_.bandwidth = asNum(v); }},
          {positiveParam("pulse_t0", "Gaussian pulse center [s]"),
           [](const T& s) { return ParamValue{s.cfg_.pulse_t0}; },
           [](T& s, const ParamValue& v) { s.cfg_.pulse_t0 = asNum(v); }},
          {boolParam("ground_reflection", "add the PEC ground-plane image"),
           [](const T& s) { return ParamValue{s.cfg_.ground_reflection}; },
           [](T& s, const ParamValue& v) { s.cfg_.ground_reflection = std::get<bool>(v); }},
          {stringParam("drive", {"driver", "none"},
                       "near end: RBF driver or quiescent r_near"),
           [](const T& s) { return ParamValue{s.cfg_.drive}; },
           [](T& s, const ParamValue& v) { s.cfg_.drive = std::get<std::string>(v); }},
          {positiveParam("r_near", "near termination when drive=none [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.r_near}; },
           [](T& s, const ParamValue& v) { s.cfg_.r_near = asNum(v); }},
          {stringParam("termination", {"resistive", "receiver"},
                       "far end: resistive load or RBF receiver"),
           [](const T& s) { return ParamValue{s.cfg_.termination}; },
           [](T& s, const ParamValue& v) { s.cfg_.termination = std::get<std::string>(v); }},
          {positiveParam("r_far", "far load when resistive [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.r_far}; },
           [](T& s, const ParamValue& v) { s.cfg_.r_far = asNum(v); }},
          {nonNegativeParam("c_far", "optional far shunt C [F]"),
           [](const T& s) { return ParamValue{s.cfg_.c_far}; },
           [](T& s, const ParamValue& v) { s.cfg_.c_far = asNum(v); }},
      });
  return t;
}

const std::string& EmcFamily::family() const {
  static const std::string name = "emc";
  return name;
}

const std::vector<ParamDescriptor>& EmcFamily::descriptors() const {
  return table().descriptors();
}

void EmcFamily::set(const std::string& param, const ParamValue& value) {
  table().set(*this, param, value);
}

ParamValue EmcFamily::get(const std::string& param) const {
  return table().get(*this, param);
}

void EmcFamily::validate() const { validateEmcScenario(cfg_); }

std::string EmcFamily::label() const {
  return "emc pattern=" + cfg_.pattern + " A=" + formatDouble(cfg_.amplitude) +
         " th=" + formatDouble(cfg_.theta_deg) +
         " ph=" + formatDouble(cfg_.phi_deg) + " drv=" + cfg_.drive +
         " term=" + cfg_.termination;
}

std::unique_ptr<Scenario> EmcFamily::clone() const {
  return std::make_unique<EmcFamily>(*this);
}

TaskWaveforms EmcFamily::run(std::shared_ptr<const RbfDriverModel> driver,
                             std::shared_ptr<const RbfReceiverModel> receiver,
                             const SolverSharing& sharing) const {
  return runEmcScenario(cfg_, std::move(driver), std::move(receiver), sharing);
}

// What stays OUT of this key is the point: amplitude, arrival angles,
// polarization, bandwidth, pulse_t0, ground_reflection, trace geometry,
// bit pattern, bit_time, and t_stop all reach the transient only through
// RHS sources or run length, never through the static pattern (the
// field-coupled ladder uses the same Inductor/Capacitor static stamps as
// the plain one; RBF ports stamp only structural zeros, and the drive/
// termination choice is in the key). line_r > 0 is structural: the ladder
// splits each series R around its inductor, two extra nodes per segment.
// line_g is not: its shunt resistor lands on the capacitor's entries. The
// amp>0 flag is still kept — structurally conservative, and it costs one
// extra class.
std::string EmcFamily::structureKey() const {
  return "emc|segments=" + std::to_string(cfg_.line.segments) +
         "|r=" + (cfg_.line.r > 0.0 ? "1" : "0") +
         "|drive=" + cfg_.drive + "|term=" + cfg_.termination +
         "|cfar=" + (cfg_.c_far > 0.0 ? "1" : "0") +
         "|field=" + (cfg_.amplitude > 0.0 ? "1" : "0");
}

}  // namespace fdtdmm
