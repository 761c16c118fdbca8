#pragma once
/// \file crosstalk_scenario.h
/// The "crosstalk" scenario family: a coupled two-line crosstalk workload
/// the closed pre-registry API could not express. An RBF driver macromodel
/// drives the aggressor of two identical RLGC lines coupled segment-wise by
/// a mutual capacitance and, optionally, a mutual inductance
/// (buildCoupledRlgcLines; the coupling_l axis sweeps Lm/L through the
/// CoupledInductors element); the victim line is resistively terminated at
/// both ends. The whole structure runs on the MNA
/// transient engine, so it inherits the static/dynamic stamp split: the two
/// ladders and the four terminations are assembled and LU-factored once,
/// and only the nonlinear driver port restamps per Newton iteration — one
/// row, which the engine folds in as a low-rank update of that
/// factorization, so a corner performs one LU.
///
/// Waveform mapping (what the generic metric layer sees):
///   v_near  — aggressor near end (driver pad voltage),
///   v_far   — victim FAR end: the analyzed observable, so the exported
///             v_far_max / eye / far_end_delay columns read as far-end
///             crosstalk peak, victim eye, and coupling delay,
///   victims — {victim near end, aggressor far end}.

#include <memory>
#include <string>

#include "circuit/rlgc_line.h"
#include "circuit/solver_state.h"
#include "core/scenario.h"

namespace fdtdmm {

/// Scenario parameters. Defaults: two matched 50-ohm, 0.5 ns lines with
/// 20% capacitive coupling, victim terminated in 50 ohm at both ends.
struct CrosstalkScenario {
  std::string pattern = "010";
  double bit_time = 2e-9;     ///< [s]
  double t_stop = 8e-9;       ///< simulated window [s]
  double dt = 5e-12;          ///< MNA time step [s]
  RlgcParams line;            ///< per-line self parameters (both lines)
  double coupling = 0.2;      ///< mutual capacitance fraction: cm = coupling * line.c
  double coupling_l = 0.0;    ///< mutual inductance fraction: lm = coupling_l * line.l
  double victim_r_near = 50.0;  ///< victim near-end termination [ohm]
  double victim_r_far = 50.0;   ///< victim far-end termination [ohm]
  double agg_load_r = 50.0;     ///< aggressor far-end shunt resistance [ohm]
  double agg_load_c = 1e-12;    ///< aggressor far-end shunt capacitance [F]
};

/// Validates scenario options (fail fast before building the netlist).
/// \throws std::invalid_argument on an empty pattern, non-positive times /
///         terminations / line l/c/length, negative line r/g, zero
///         segments, coupling outside [0, 1], or coupling_l outside [0, 1).
void validateCrosstalkScenario(const CrosstalkScenario& cfg);

/// Runs the coupled-line structure on the MNA transient engine with the
/// waveform mapping documented above, threading `sharing` into the
/// TransientOptions (circuit/solver_state.h). Deterministic for fixed
/// inputs (wall_seconds aside), and bit-identical for any `sharing` under
/// an honest key. The receiver model is unused (may be null).
/// \throws std::invalid_argument on a null driver model or invalid options.
TaskWaveforms runCrosstalkScenario(const CrosstalkScenario& cfg,
                                   std::shared_ptr<const RbfDriverModel> driver,
                                   const SolverSharing& sharing = {});

/// Registry adapter ("crosstalk"). Parameters: pattern, bit_time, t_stop,
/// dt, line_r, line_l, line_g, line_c, line_length, segments, coupling,
/// coupling_l, victim_r_near, victim_r_far, agg_load_r, agg_load_c.
class CrosstalkFamily final : public Scenario {
 public:
  CrosstalkFamily() = default;
  explicit CrosstalkFamily(const CrosstalkScenario& cfg) : cfg_(cfg) {}

  const std::string& family() const override;
  const std::vector<ParamDescriptor>& descriptors() const override;
  void set(const std::string& param, const ParamValue& value) override;
  ParamValue get(const std::string& param) const override;
  void validate() const override;
  std::string label() const override;
  std::string pattern() const override { return cfg_.pattern; }
  double bitTime() const override { return cfg_.bit_time; }
  double tStop() const override { return cfg_.t_stop; }
  bool needsReceiver() const override { return false; }
  /// Sharing key: corners of one ladder structure share the symbolic RCM
  /// analysis that orders each corner's base factorization.
  std::string structureKey() const override;
  std::unique_ptr<Scenario> clone() const override;
  TaskWaveforms run(std::shared_ptr<const RbfDriverModel> driver,
                    std::shared_ptr<const RbfReceiverModel> receiver,
                    const SolverSharing& sharing) const override;

  const CrosstalkScenario& config() const { return cfg_; }

 private:
  static const ParamTable<CrosstalkFamily>& table();

  CrosstalkScenario cfg_;
};

}  // namespace fdtdmm
