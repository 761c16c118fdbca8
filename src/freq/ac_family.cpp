#include "freq/ac_family.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "freq/ac_engine.h"
#include "freq/rational_fit.h"

namespace fdtdmm {

namespace {

double asNum(const ParamValue& v) { return std::get<double>(v); }

/// One-sample waveform carrying a scalar observable (the AC family's rows
/// are per-frequency points, not time series).
Waveform scalarWave(double v) { return Waveform(0.0, 1.0, Vector{v}); }

}  // namespace

void validateAcScenario(const AcScenario& cfg) {
  if (cfg.line.l <= 0.0 || cfg.line.c <= 0.0 || cfg.line.length <= 0.0)
    throw std::invalid_argument("ac: line l, c, length must be > 0");
  if (cfg.line.r < 0.0 || cfg.line.g < 0.0)
    throw std::invalid_argument("ac: line r, g must be >= 0");
  if (cfg.line.segments == 0) throw std::invalid_argument("ac: need >= 1 segment");
  if (cfg.z0 <= 0.0) throw std::invalid_argument("ac: z0 must be > 0");
  if (cfg.frequency < 0.0) throw std::invalid_argument("ac: frequency must be >= 0");
  if (cfg.k_skin < 0.0) throw std::invalid_argument("ac: k_skin must be >= 0");
  if (cfg.k_skin > 0.0) {
    if (cfg.line.r <= 0.0)
      throw std::invalid_argument("ac: k_skin > 0 requires line_r > 0");
    if (cfg.skin_fmin <= 0.0 || cfg.skin_fmax <= cfg.skin_fmin)
      throw std::invalid_argument("ac: need 0 < skin_fmin < skin_fmax");
    if (cfg.skin_branches == 0)
      throw std::invalid_argument("ac: skin_branches must be >= 1");
  }
}

/// Resolves the ladder actually built: with k_skin > 0 the rational fit's
/// branches are chained into each segment and the main inductance gives up
/// the branches' low-frequency contribution. Shared between run and
/// structureKey so the key always describes the built pattern.
static void resolveSkin(const AcScenario& cfg, RlgcParams& line,
                        std::vector<SeriesRlBranch>& branches) {
  line = cfg.line;
  branches.clear();
  if (cfg.k_skin <= 0.0) return;
  const SkinEffectFit fit = fitSkinEffect(cfg.line.r, cfg.k_skin, cfg.skin_fmin,
                                          cfg.skin_fmax, cfg.skin_branches);
  const double l_skin = skinFitInductance(fit);
  if (l_skin >= cfg.line.l)
    throw std::invalid_argument(
        "ac: skin-effect branch inductance exceeds the line inductance "
        "budget (reduce k_skin or raise line_l)");
  line.l = cfg.line.l - l_skin;
  branches.reserve(fit.branches.size());
  for (const SkinBranch& b : fit.branches)
    if (b.r > 0.0 && b.l > 0.0) branches.push_back({b.r, b.l});
}

TaskWaveforms runAcScenario(const AcScenario& cfg, const SolverSharing& sharing) {
  validateAcScenario(cfg);
  const auto start = std::chrono::steady_clock::now();

  Circuit circuit;
  const int p1 = circuit.addNode();
  const int p2 = circuit.addNode();
  const int s1 = circuit.addNode();
  const int s2 = circuit.addNode();
  TimeFn dark = [](double) { return 0.0; };
  // Thevenin port fixtures: ideal source + series z0 at both ports. Both
  // transient waveforms are zero — only the AC phasors drive the system.
  VoltageSource* src1 = circuit.addVoltageSource(s1, Circuit::kGround, dark);
  circuit.addResistor(s1, p1, cfg.z0);
  VoltageSource* src2 = circuit.addVoltageSource(s2, Circuit::kGround, dark);
  circuit.addResistor(s2, p2, cfg.z0);

  RlgcParams line;
  std::vector<SeriesRlBranch> branches;
  resolveSkin(cfg, line, branches);
  buildRlgcLineSegments(circuit, p1, Circuit::kGround, p2, Circuit::kGround,
                        line, branches);

  TaskWaveforms out;
  AcOptions opt;
  opt.sharing = sharing;
  // Telemetry/health ride the same channels as the transient families:
  // phase times and factorization counts always land in out.telemetry;
  // health collection follows the sweep-wide switches (sharing.health).
  opt.telemetry = &out.telemetry;
  AcSession session(circuit, opt);

  // Forward excitation: port 1 at 1 V, port 2 dark.
  src1->setAcValue(Complex(1.0, 0.0));
  src2->setAcValue(Complex(0.0, 0.0));
  const ComplexVector& xf = session.solveAt(cfg.frequency);
  const Complex v1 = acNodeV(xf, p1);
  const Complex v2 = acNodeV(xf, p2);
  const Complex h = v2;  // H = V(p2) / Vsrc, Vsrc = 1
  const Complex s11 = 2.0 * v1 - 1.0;
  const Complex s21 = 2.0 * v2;

  // Reverse excitation of the same assembled system.
  src1->setAcValue(Complex(0.0, 0.0));
  src2->setAcValue(Complex(1.0, 0.0));
  const ComplexVector& xr = session.solveAt(cfg.frequency);
  const Complex s22 = 2.0 * acNodeV(xr, p2) - 1.0;
  const Complex s12 = 2.0 * acNodeV(xr, p1);

  if (out.telemetry.health.collected)
    obs::gradeHealth(out.telemetry.health,
                     sharing.health ? sharing.health->thresholds
                                    : obs::HealthThresholds{});

  out.v_near = scalarWave(1.0);
  out.v_far = scalarWave(std::abs(h));
  out.victims = {scalarWave(h.real()),   scalarWave(h.imag()),
                 scalarWave(s11.real()), scalarWave(s11.imag()),
                 scalarWave(s21.real()), scalarWave(s21.imag()),
                 scalarWave(s12.real()), scalarWave(s12.imag()),
                 scalarWave(s22.real()), scalarWave(s22.imag())};
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

const ParamTable<AcFamily>& AcFamily::table() {
  using T = AcFamily;
  static const ParamTable<T> t(
      "ac",
      {
          {nonNegativeParam("frequency", "evaluation frequency [Hz]"),
           [](const T& s) { return ParamValue{s.cfg_.frequency}; },
           [](T& s, const ParamValue& v) { s.cfg_.frequency = asNum(v); }},
          {positiveParam("z0", "port reference impedance [ohm]"),
           [](const T& s) { return ParamValue{s.cfg_.z0}; },
           [](T& s, const ParamValue& v) { s.cfg_.z0 = asNum(v); }},
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
          {nonNegativeParam("k_skin", "skin coefficient [ohm/(m sqrt(Hz))]"),
           [](const T& s) { return ParamValue{s.cfg_.k_skin}; },
           [](T& s, const ParamValue& v) { s.cfg_.k_skin = asNum(v); }},
          {positiveParam("skin_fmin", "rational-fit band lower edge [Hz]"),
           [](const T& s) { return ParamValue{s.cfg_.skin_fmin}; },
           [](T& s, const ParamValue& v) { s.cfg_.skin_fmin = asNum(v); }},
          {positiveParam("skin_fmax", "rational-fit band upper edge [Hz]"),
           [](const T& s) { return ParamValue{s.cfg_.skin_fmax}; },
           [](T& s, const ParamValue& v) { s.cfg_.skin_fmax = asNum(v); }},
          {intParam("skin_branches", 1.0, "R-parallel-L steps of the skin fit"),
           [](const T& s) { return ParamValue{static_cast<double>(s.cfg_.skin_branches)}; },
           [](T& s, const ParamValue& v) { s.cfg_.skin_branches = static_cast<std::size_t>(asNum(v)); }},
      });
  return t;
}

const std::string& AcFamily::family() const {
  static const std::string name = "ac";
  return name;
}

const std::vector<ParamDescriptor>& AcFamily::descriptors() const {
  return table().descriptors();
}

void AcFamily::set(const std::string& param, const ParamValue& value) {
  table().set(*this, param, value);
}

ParamValue AcFamily::get(const std::string& param) const {
  return table().get(*this, param);
}

void AcFamily::validate() const { validateAcScenario(cfg_); }

std::string AcFamily::label() const {
  // The "ac/sparse" prefix is frozen although the family has one solver:
  // labels key the exported rows, and the benchmark compares them byte for
  // byte with its committed per-corner references
  // (perfbench/reference/ac_skin_sweep.csv).
  std::string label = "ac/sparse f=" + formatDouble(cfg_.frequency) +
                      " z0=" + formatDouble(cfg_.z0) +
                      " len=" + formatDouble(cfg_.line.length) +
                      " seg=" + formatDouble(static_cast<double>(cfg_.line.segments));
  if (cfg_.line.r > 0.0) label += " r=" + formatDouble(cfg_.line.r);
  if (cfg_.line.g > 0.0) label += " g=" + formatDouble(cfg_.line.g);
  if (cfg_.k_skin > 0.0) label += " ks=" + formatDouble(cfg_.k_skin);
  return label;
}

std::unique_ptr<Scenario> AcFamily::clone() const {
  return std::make_unique<AcFamily>(*this);
}

// The pattern depends on everything that changes the netlist shape:
// segment count, presence of the per-segment series-R nodes (r > 0) and
// shunt-G resistors (g > 0), and the skin-branch chain. The chain's branch
// count is a function of (r, k_skin, band, n_branches), so
// those values are folded in exactly rather than re-deriving the fit here.
// Frequency is deliberately absent: it only changes matrix VALUES.
std::string AcFamily::structureKey() const {
  std::string key = "ac|seg=" + solverKeyNum(static_cast<double>(cfg_.line.segments)) +
                    "|r=" + (cfg_.line.r > 0.0 ? "1" : "0") +
                    "|g=" + (cfg_.line.g > 0.0 ? "1" : "0");
  if (cfg_.k_skin > 0.0) {
    key += "|ks=" + solverKeyNum(cfg_.k_skin) + "|rdc=" + solverKeyNum(cfg_.line.r) +
           "|sf0=" + solverKeyNum(cfg_.skin_fmin) +
           "|sf1=" + solverKeyNum(cfg_.skin_fmax) +
           "|sb=" + solverKeyNum(static_cast<double>(cfg_.skin_branches));
  }
  return key;
}

TaskWaveforms AcFamily::run(std::shared_ptr<const RbfDriverModel>,
                            std::shared_ptr<const RbfReceiverModel>,
                            const SolverSharing& sharing) const {
  return runAcScenario(cfg_, sharing);
}

}  // namespace fdtdmm
