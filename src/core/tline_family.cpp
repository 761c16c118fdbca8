#include "core/tline_family.h"

#include <stdexcept>

#include "circuit/solver_state.h"

namespace fdtdmm {

namespace {

double asNum(const ParamValue& v) { return std::get<double>(v); }
const std::string& asStr(const ParamValue& v) { return std::get<std::string>(v); }

}  // namespace

const char* tlineEngineName(TlineEngine engine) {
  switch (engine) {
    case TlineEngine::kSpiceRbf: return "spice-rbf";
    case TlineEngine::kFdtd1d: return "fdtd1d";
    case TlineEngine::kFdtd3d: return "fdtd3d";
  }
  return "?";
}

TlineEngine tlineEngineFromName(const std::string& name) {
  if (name == "spice-rbf") return TlineEngine::kSpiceRbf;
  if (name == "fdtd1d") return TlineEngine::kFdtd1d;
  if (name == "fdtd3d") return TlineEngine::kFdtd3d;
  throw std::invalid_argument("unknown t-line engine '" + name +
                              "' (valid: spice-rbf, fdtd1d, fdtd3d)");
}

const char* farEndLoadName(FarEndLoad load) {
  return load == FarEndLoad::kLinearRc ? "rc" : "receiver";
}

FarEndLoad farEndLoadFromName(const std::string& name) {
  if (name == "rc") return FarEndLoad::kLinearRc;
  if (name == "receiver") return FarEndLoad::kReceiver;
  throw std::invalid_argument("unknown far-end load '" + name +
                              "' (valid: rc, receiver)");
}

const ParamTable<TlineFamily>& TlineFamily::table() {
  using T = TlineFamily;
  static const ParamTable<T> t(
      "tline",
      {
          {stringParam("engine", {"spice-rbf", "fdtd1d", "fdtd3d"},
                       "solver that runs the task"),
           [](const T& s) { return ParamValue{std::string(tlineEngineName(s.engine_))}; },
           [](T& s, const ParamValue& v) { s.engine_ = tlineEngineFromName(asStr(v)); }},
          {stringParam("pattern", {}, "transmitted bit pattern"),
           [](const T& s) { return ParamValue{s.cfg_.pattern}; },
           [](T& s, const ParamValue& v) { s.cfg_.pattern = asStr(v); }},
          {positiveParam("bit_time", "bit time [s]"),
           [](const T& s) { return ParamValue{s.cfg_.bit_time}; },
           [](T& s, const ParamValue& v) { s.cfg_.bit_time = asNum(v); }},
          {positiveParam("t_stop", "simulated window [s]"),
           [](const T& s) { return ParamValue{s.cfg_.t_stop}; },
           [](T& s, const ParamValue& v) { s.cfg_.t_stop = asNum(v); }},
          {positiveParam("zc", "line characteristic impedance [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.zc}; },
           [](T& s, const ParamValue& v) { s.cfg_.zc = asNum(v); }},
          {positiveParam("td", "line delay [s]"),
           [](const T& s) { return ParamValue{s.cfg_.td}; },
           [](T& s, const ParamValue& v) { s.cfg_.td = asNum(v); }},
          {stringParam("load", {"rc", "receiver"}, "far-end termination kind"),
           [](const T& s) { return ParamValue{std::string(farEndLoadName(s.cfg_.load))}; },
           [](T& s, const ParamValue& v) { s.cfg_.load = farEndLoadFromName(asStr(v)); }},
          {positiveParam("load_r", "RC load shunt resistance [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.load_r}; },
           [](T& s, const ParamValue& v) { s.cfg_.load_r = asNum(v); }},
          {positiveParam("load_c", "RC load shunt capacitance [F]"),
           [](const T& s) { return ParamValue{s.cfg_.load_c}; },
           [](T& s, const ParamValue& v) { s.cfg_.load_c = asNum(v); }},
          {intParam("mesh_nx", 1.0, "3D mesh cells along x"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.mesh_nx)}; },
           [](T& s, const ParamValue& v) { s.cfg_.mesh_nx = static_cast<std::size_t>(asNum(v)); }},
          {intParam("mesh_ny", 1.0, "3D mesh cells along y"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.mesh_ny)}; },
           [](T& s, const ParamValue& v) { s.cfg_.mesh_ny = static_cast<std::size_t>(asNum(v)); }},
          {intParam("mesh_nz", 1.0, "3D mesh cells along z"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.mesh_nz)}; },
           [](T& s, const ParamValue& v) { s.cfg_.mesh_nz = static_cast<std::size_t>(asNum(v)); }},
          {positiveParam("mesh_delta", "uniform 3D cell size [m]"),
           [](const T& s) { return ParamValue{s.cfg_.mesh_delta}; },
           [](T& s, const ParamValue& v) { s.cfg_.mesh_delta = asNum(v); }},
          {intParam("strip_len", 1.0, "strip length [cells]; 1D FDTD cell count"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.strip_len)}; },
           [](T& s, const ParamValue& v) { s.cfg_.strip_len = static_cast<std::size_t>(asNum(v)); }},
          {intParam("strip_width", 1.0, "strip width [cells]"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.strip_width)}; },
           [](T& s, const ParamValue& v) { s.cfg_.strip_width = static_cast<std::size_t>(asNum(v)); }},
          {intParam("strip_gap", 1.0, "strip vertical separation [cells]"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.strip_gap)}; },
           [](T& s, const ParamValue& v) { s.cfg_.strip_gap = static_cast<std::size_t>(asNum(v)); }},
      });
  return t;
}

const std::string& TlineFamily::family() const {
  static const std::string name = "tline";
  return name;
}

const std::vector<ParamDescriptor>& TlineFamily::descriptors() const {
  return table().descriptors();
}

void TlineFamily::set(const std::string& param, const ParamValue& value) {
  table().set(*this, param, value);
}

ParamValue TlineFamily::get(const std::string& param) const {
  return table().get(*this, param);
}

void TlineFamily::validate() const { validateTlineScenario(cfg_); }

std::string TlineFamily::label() const {
  // Pre-redesign label format, byte for byte (pinned by the migration test).
  std::string label = std::string("tline/") + tlineEngineName(engine_) +
                      " pattern=" + cfg_.pattern + " bt=" + formatDouble(cfg_.bit_time) +
                      " zc=" + formatDouble(cfg_.zc) + " td=" + formatDouble(cfg_.td);
  if (cfg_.load == FarEndLoad::kLinearRc) {
    label += " load=rc r=" + formatDouble(cfg_.load_r) + " c=" + formatDouble(cfg_.load_c);
  } else {
    label += " load=receiver";
  }
  return label;
}

std::unique_ptr<Scenario> TlineFamily::clone() const {
  return std::make_unique<TlineFamily>(*this);
}

TaskWaveforms TlineFamily::run(std::shared_ptr<const RbfDriverModel> driver,
                               std::shared_ptr<const RbfReceiverModel> receiver,
                               const SolverSharing& sharing) const {
  EngineRun er;
  switch (engine_) {
    case TlineEngine::kSpiceRbf:
      er = runSpiceRbfTline(cfg_, std::move(driver), std::move(receiver),
                            kSpiceRbfDt, sharing);
      break;
    case TlineEngine::kFdtd1d:
      er = runFdtd1dTline(cfg_, std::move(driver), std::move(receiver));
      break;
    case TlineEngine::kFdtd3d:
      er = runFdtd3dTline(cfg_, std::move(driver), std::move(receiver));
      break;
  }
  TaskWaveforms out;
  out.v_near = std::move(er.v_near);
  out.v_far = std::move(er.v_far);
  out.max_newton_iterations = er.max_newton_iterations;
  out.wall_seconds = er.wall_seconds;
  out.telemetry = er.telemetry;
  return out;
}

// pattern/bit_time/t_stop are RHS/run-length only, and zc/td/load values
// change the static stamps' values but not the pattern: only the far-end
// load kind shapes the structure.
std::string TlineFamily::structureKey() const {
  if (engine_ != TlineEngine::kSpiceRbf) return {};
  return std::string("tline|engine=spice-rbf|load=") + farEndLoadName(cfg_.load);
}

}  // namespace fdtdmm
