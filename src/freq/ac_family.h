#pragma once
/// \file ac_family.h
/// The "ac" scenario family: one frequency point of a frequency-domain
/// sweep over a terminated RLGC line, run on the AcSession engine
/// (freq/ac_engine.h). Registering the point frequency as an ordinary
/// scenario parameter makes `frequency` a generic sweep axis: an AC sweep
/// is a standard SweepSpec over the "ac" family and runs through the same
/// ScenarioRegistry / SweepRunner / ThreadPool / cache machinery as every
/// transient family — including symbolic sharing, since all frequency
/// corners of one line build one netlist and so share a structure class.
///
/// The circuit is the 2-port S-parameter test fixture: the line between
/// port 1 and port 2, each port driven by a Thevenin source (ideal source
/// + series z0). With the port-1 source at 1 V and port 2 dark,
///   S11 = 2 V(p1) - 1,   S21 = 2 V(p2)
/// (reference-impedance z0 normalization, matched-source identity), and
/// the reverse excitation gives S22/S12 from one more solve of the SAME
/// assembled system — the AcSession's repeatable-solve economy.
///
/// With k_skin > 0 the line's series resistance rises like sqrt(f): the
/// rational fit (freq/rational_fit.h) is synthesized into the ladder as
/// per-segment series R-parallel-L branches, and the main per-unit-length
/// inductance is reduced by the branches' low-frequency inductance so z0
/// and the line delay are preserved.
///
/// Waveform mapping (every waveform is a single sample — the metric layer
/// needs non-empty waveforms, and the frozen CSV schema analyzes v_far):
///   v_near  — 1.0 (the port-1 excitation magnitude),
///   v_far   — |H(j 2 pi f)| with H = V(p2)/Vsrc, so the exported
///             v_far_max/v_far_min columns carry the transfer magnitude,
///   victims — [Re H, Im H, Re S11, Im S11, Re S21, Im S21, Re S12,
///              Im S12, Re S22, Im S22].

#include <memory>
#include <string>

#include "circuit/rlgc_line.h"
#include "circuit/solver_state.h"
#include "core/scenario.h"

namespace fdtdmm {

/// Scenario parameters. Defaults: the repo's standard 50-ohm 10 cm line
/// (32 segments, lossless) matched at both ends, evaluated at 100 MHz.
struct AcScenario {
  RlgcParams line;          ///< per-unit-length line parameters
  double z0 = 50.0;         ///< port reference impedance [ohm]
  double frequency = 1e8;   ///< evaluation frequency [Hz] — the sweep axis
  double k_skin = 0.0;      ///< skin coefficient [ohm/(m sqrt(Hz))]; 0 = constant R
  double skin_fmin = 1e6;   ///< rational-fit band [Hz]
  double skin_fmax = 1e10;
  std::size_t skin_branches = 4;  ///< R-parallel-L steps of the fit
};

/// Validates the configuration (fail fast before building the netlist).
/// \throws std::invalid_argument on invalid line parameters, z0 <= 0,
///         frequency < 0, k_skin < 0, an empty/inverted skin band or zero
///         skin branches when k_skin > 0 (which also requires line.r > 0
///         — the fit needs a DC resistance).
void validateAcScenario(const AcScenario& cfg);

/// Runs one frequency point with the waveform mapping documented above,
/// threading `sharing` into AcOptions so frequency corners of one
/// structure class reuse a single symbolic analysis. Deterministic for
/// fixed inputs (wall_seconds aside), and bit-identical for any `sharing`.
TaskWaveforms runAcScenario(const AcScenario& cfg, const SolverSharing& sharing = {});

/// Registry adapter ("ac"). Parameters: frequency, z0, line_r, line_l,
/// line_g, line_c, line_length, segments, k_skin, skin_fmin, skin_fmax,
/// skin_branches. Needs no driver or receiver macromodel.
class AcFamily final : public Scenario {
 public:
  AcFamily() = default;
  explicit AcFamily(const AcScenario& cfg) : cfg_(cfg) {}

  const std::string& family() const override;
  const std::vector<ParamDescriptor>& descriptors() const override;
  void set(const std::string& param, const ParamValue& value) override;
  ParamValue get(const std::string& param) const override;
  void validate() const override;
  std::string label() const override;
  /// Single-point "pattern": the metric layer's eye analysis skips
  /// one-sample waveforms, so these are nominal.
  std::string pattern() const override { return "0"; }
  double bitTime() const override { return 1.0; }
  double tStop() const override { return 1.0; }
  bool needsDriver() const override { return false; }
  bool needsReceiver() const override { return false; }
  std::unique_ptr<Scenario> clone() const override;
  TaskWaveforms run(std::shared_ptr<const RbfDriverModel> driver,
                    std::shared_ptr<const RbfReceiverModel> receiver,
                    const SolverSharing& sharing) const override;

  const AcScenario& config() const { return cfg_; }

 private:
  static const ParamTable<AcFamily>& table();

  AcScenario cfg_;
};

}  // namespace fdtdmm
