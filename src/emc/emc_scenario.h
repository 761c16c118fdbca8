#pragma once
/// \file emc_scenario.h
/// The "emc" scenario family: incident-field susceptibility of a routed
/// trace at MNA speed. An analytic plane wave couples into a segmented
/// RLGC ladder through the Taylor/Agrawal distributed sources
/// (field_source.h / coupled_line.h); the near end is either driven by the
/// RBF driver macromodel (active-link immunity: eye degradation under
/// illumination) or resistively terminated (the paper's quiescent-line
/// susceptibility), and the far end is the victim: either the RBF receiver
/// macromodel or a resistive load. Everything the 3D FDTD PcbScenario
/// incident path does for one board, this family does per sweep corner at
/// circuit cost — amplitude/angle/polarization/bandwidth/termination
/// are all sweepable axes, batched by the standard engine.
///
/// Waveform mapping:
///   v_near  — near-end terminal (driver pad / near termination),
///   v_far   — far-end terminal: the victim observable the metric layer
///             analyzes (induced noise peak, disturbed eye),
///   victims — empty.
///
/// An amplitude of 0 runs the clean (field-free) link, so a sweep axis
/// amplitude = {0, A} yields the clean/disturbed pair that
/// computeSusceptibility (susceptibility.h) differences into immunity
/// metrics.

#include <memory>
#include <string>

#include "circuit/rlgc_line.h"
#include "circuit/solver_state.h"
#include "core/scenario.h"
#include "emc/trace_geometry.h"

namespace fdtdmm {

/// Scenario parameters. Defaults: a 10 cm, 50-ohm microstrip-like trace
/// 1.5 mm over its ground plane, driven with '010' at 2 ns bit time and
/// illuminated by the paper's Fig. 7 pulse (2 kV/m, 9.2 GHz bandwidth,
/// theta-polarized, theta = 90 deg, phi = 180 deg).
struct EmcScenario {
  std::string pattern = "010";
  double bit_time = 2e-9;  ///< [s]
  double t_stop = 8e-9;    ///< simulated window [s]
  double dt = 5e-12;       ///< MNA time step [s]
  RlgcParams line;         ///< per-unit-length line parameters
  // Trace placement in the incident wave's coordinate frame.
  double height = 1.5e-3;   ///< trace height over the ground plane [m]
  double trace_x0 = 0.0;    ///< route start [m]
  double trace_y0 = 0.0;
  double trace_z0 = 0.0;    ///< ground-plane elevation [m]
  double route_deg = 0.0;   ///< route azimuth from +x [deg]
  // Incident plane wave.
  double amplitude = 2e3;   ///< [V/m]; 0 = clean (no-field) run
  double theta_deg = 90.0;  ///< arrival direction, standard spherical
  double phi_deg = 180.0;
  double pol_theta = 1.0;   ///< polarization mix (must not both be 0
  double pol_phi = 0.0;     ///<   when amplitude > 0)
  double bandwidth = 9.2e9; ///< Gaussian pulse -3 dB bandwidth [Hz]
  double pulse_t0 = 3e-9;   ///< Gaussian pulse center [s]
  bool ground_reflection = true;  ///< add the PEC ground-plane image
  // Terminations.
  std::string drive = "driver";        ///< "driver" | "none" (quiescent)
  double r_near = 50.0;                ///< near termination when drive=none
  std::string termination = "resistive";  ///< "resistive" | "receiver"
  double r_far = 50.0;                 ///< far load when resistive [ohm]
  double c_far = 0.0;                  ///< optional far shunt C [F], >= 0
};

/// Validates scenario options (fail fast before building the netlist).
/// \throws std::invalid_argument on invalid times/line/geometry, amplitude
///         < 0, a zero polarization mix with amplitude > 0, theta outside
///         [0, 180], unknown drive/termination names, or
///         non-positive terminations.
void validateEmcScenario(const EmcScenario& cfg);

/// Runs the field-coupled line on the MNA transient engine with the
/// waveform mapping documented above, threading `sharing` into the
/// TransientOptions (circuit/solver_state.h). Deterministic for fixed
/// inputs (wall_seconds aside), and bit-identical for any `sharing`.
/// `driver` may be null when drive == "none", `receiver` when
/// termination == "resistive".
/// \throws std::invalid_argument on a missing required model or invalid
///         options.
TaskWaveforms runEmcScenario(const EmcScenario& cfg,
                             std::shared_ptr<const RbfDriverModel> driver,
                             std::shared_ptr<const RbfReceiverModel> receiver,
                             const SolverSharing& sharing = {});

/// The trace geometry a configuration routes (exposed so the FDTD
/// cross-validation reference meshes the same physical trace).
TraceGeometry emcTraceGeometry(const EmcScenario& cfg);

/// Registry adapter ("emc"). Parameters: pattern, bit_time, t_stop, dt,
/// line_r, line_l, line_g, line_c, line_length, segments, height,
/// trace_x0, trace_y0, trace_z0, route_deg, amplitude, theta, phi,
/// pol_theta, pol_phi, bandwidth, pulse_t0, ground_reflection, drive,
/// r_near, termination, r_far, c_far.
class EmcFamily final : public Scenario {
 public:
  EmcFamily() = default;
  explicit EmcFamily(const EmcScenario& cfg) : cfg_(cfg) {}

  const std::string& family() const override;
  const std::vector<ParamDescriptor>& descriptors() const override;
  void set(const std::string& param, const ParamValue& value) override;
  ParamValue get(const std::string& param) const override;
  void validate() const override;
  std::string label() const override;
  std::string pattern() const override { return cfg_.pattern; }
  double bitTime() const override { return cfg_.bit_time; }
  double tStop() const override { return cfg_.t_stop; }
  bool needsDriver() const override { return cfg_.drive == "driver"; }
  bool needsReceiver() const override { return cfg_.termination == "receiver"; }
  std::unique_ptr<Scenario> clone() const override;
  TaskWaveforms run(std::shared_ptr<const RbfDriverModel> driver,
                    std::shared_ptr<const RbfReceiverModel> receiver,
                    const SolverSharing& sharing) const override;

  const EmcScenario& config() const { return cfg_; }

 private:
  static const ParamTable<EmcFamily>& table();

  EmcScenario cfg_;
};

}  // namespace fdtdmm
