#include "core/pcb_family.h"


namespace fdtdmm {

namespace {

double asNum(const ParamValue& v) { return std::get<double>(v); }

}  // namespace

const ParamTable<PcbFamily>& PcbFamily::table() {
  using T = PcbFamily;
  static const ParamTable<T> t(
      "pcb",
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
          {positiveParam("cell", "uniform mesh size [m]"),
           [](const T& s) { return ParamValue{s.cfg_.cell}; },
           [](T& s, const ParamValue& v) { s.cfg_.cell = asNum(v); }},
          {intParam("board_cells", 1.0, "board edge length [cells]"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.board_cells)}; },
           [](T& s, const ParamValue& v) { s.cfg_.board_cells = static_cast<std::size_t>(asNum(v)); }},
          {intParam("margin", 0.0, "air cells around the board"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.margin)}; },
           [](T& s, const ParamValue& v) { s.cfg_.margin = static_cast<std::size_t>(asNum(v)); }},
          {intParam("strip_len", 1.0, "net strip length [cells]"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.strip_len)}; },
           [](T& s, const ParamValue& v) { s.cfg_.strip_len = static_cast<std::size_t>(asNum(v)); }},
          {intParam("net_pitch", 1.0, "strip-to-strip pitch [cells]"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.net_pitch)}; },
           [](T& s, const ParamValue& v) { s.cfg_.net_pitch = static_cast<std::size_t>(asNum(v)); }},
          {positiveParam("eps_r", "board relative permittivity"),
           [](const T& s) { return ParamValue{s.cfg_.eps_r}; },
           [](T& s, const ParamValue& v) { s.cfg_.eps_r = asNum(v); }},
          {positiveParam("r_termination", "passive-net termination [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.r_termination}; },
           [](T& s, const ParamValue& v) { s.cfg_.r_termination = asNum(v); }},
          {boolParam("with_incident", "plane-wave illumination on/off"),
           [](const T& s) { return ParamValue{s.cfg_.with_incident}; },
           [](T& s, const ParamValue& v) { s.cfg_.with_incident = std::get<bool>(v); }},
          {positiveParam("inc_amplitude", "incident field amplitude [V/m]"),
           [](const T& s) { return ParamValue{s.cfg_.inc_amplitude}; },
           [](T& s, const ParamValue& v) { s.cfg_.inc_amplitude = asNum(v); }},
          {positiveParam("inc_bandwidth", "incident pulse bandwidth [Hz]"),
           [](const T& s) { return ParamValue{s.cfg_.inc_bandwidth}; },
           [](T& s, const ParamValue& v) { s.cfg_.inc_bandwidth = asNum(v); }},
          {unboundedParam("inc_theta_deg", "incidence polar angle [deg]"),
           [](const T& s) { return ParamValue{s.cfg_.inc_theta_deg}; },
           [](T& s, const ParamValue& v) { s.cfg_.inc_theta_deg = asNum(v); }},
          {unboundedParam("inc_phi_deg", "incidence azimuth [deg]"),
           [](const T& s) { return ParamValue{s.cfg_.inc_phi_deg}; },
           [](T& s, const ParamValue& v) { s.cfg_.inc_phi_deg = asNum(v); }},
      });
  return t;
}

const std::string& PcbFamily::family() const {
  static const std::string name = "pcb";
  return name;
}

const std::vector<ParamDescriptor>& PcbFamily::descriptors() const {
  return table().descriptors();
}

void PcbFamily::set(const std::string& param, const ParamValue& value) {
  table().set(*this, param, value);
}

ParamValue PcbFamily::get(const std::string& param) const {
  return table().get(*this, param);
}

void PcbFamily::validate() const { validatePcbScenario(cfg_); }

std::string PcbFamily::label() const {
  // Pre-redesign label format, byte for byte (pinned by the migration test).
  return "pcb pattern=" + cfg_.pattern + " bt=" + formatDouble(cfg_.bit_time) +
         " incident=" + (cfg_.with_incident ? "on" : "off");
}

std::unique_ptr<Scenario> PcbFamily::clone() const {
  return std::make_unique<PcbFamily>(*this);
}

TaskWaveforms PcbFamily::run(std::shared_ptr<const RbfDriverModel> driver,
                             std::shared_ptr<const RbfReceiverModel> receiver,
                             const SolverSharing& /*sharing*/) const {
  PcbRun pr = runPcbScenario(cfg_, std::move(driver), std::move(receiver));
  TaskWaveforms out;
  out.v_near = std::move(pr.v_near);
  out.v_far = std::move(pr.v_far);
  out.victims = std::move(pr.victims);
  out.max_newton_iterations = pr.max_newton_iterations;
  out.wall_seconds = pr.wall_seconds;
  return out;
}

}  // namespace fdtdmm
