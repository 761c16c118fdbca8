#pragma once
/// \file tline_family.h
/// The "tline" scenario family: the paper's two-strip validation line
/// (tline_scenario.h) behind the open Scenario interface, with the engine
/// choice (SPICE+RBF, 1D FDTD, 3D FDTD) as one more parameter.
///
/// Parameters (see descriptors() for kinds and ranges):
///   engine ("spice-rbf"|"fdtd1d"|"fdtd3d"), pattern, bit_time, t_stop,
///   zc, td, load ("rc"|"receiver"), load_r, load_c, mesh_nx, mesh_ny,
///   mesh_nz, mesh_delta, strip_len, strip_width, strip_gap.
///
/// Waveform mapping: v_near/v_far are the driver-side and far-end
/// termination voltages; victims is empty.

#include "core/scenario.h"
#include "core/tline_scenario.h"

namespace fdtdmm {

/// Which engine runs a t-line task. The transistor-level reference engine
/// is deliberately absent: tasks are the macromodel-side workload the
/// paper batches.
enum class TlineEngine { kSpiceRbf, kFdtd1d, kFdtd3d };

/// Engine <-> parameter-string mapping ("spice-rbf", "fdtd1d", "fdtd3d").
const char* tlineEngineName(TlineEngine engine);
TlineEngine tlineEngineFromName(const std::string& name);  ///< \throws std::invalid_argument

/// Load <-> parameter-string mapping ("rc", "receiver").
const char* farEndLoadName(FarEndLoad load);
FarEndLoad farEndLoadFromName(const std::string& name);  ///< \throws std::invalid_argument

class TlineFamily final : public Scenario {
 public:
  TlineFamily() = default;
  explicit TlineFamily(const TlineScenario& cfg,
                       TlineEngine engine = TlineEngine::kFdtd1d)
      : cfg_(cfg), engine_(engine) {}

  const std::string& family() const override;
  const std::vector<ParamDescriptor>& descriptors() const override;
  void set(const std::string& param, const ParamValue& value) override;
  ParamValue get(const std::string& param) const override;
  void validate() const override;
  std::string label() const override;
  std::string pattern() const override { return cfg_.pattern; }
  double bitTime() const override { return cfg_.bit_time; }
  double tStop() const override { return cfg_.t_stop; }
  bool needsReceiver() const override { return cfg_.load == FarEndLoad::kReceiver; }
  /// Sharing key: non-empty only for the spice-rbf engine (the MNA path);
  /// the FDTD engines have no MNA solver state to share and return the
  /// opt-out default.
  std::string structureKey() const override;
  std::unique_ptr<Scenario> clone() const override;
  TaskWaveforms run(std::shared_ptr<const RbfDriverModel> driver,
                    std::shared_ptr<const RbfReceiverModel> receiver,
                    const SolverSharing& sharing) const override;

  const TlineScenario& config() const { return cfg_; }
  TlineEngine engine() const { return engine_; }

 private:
  static const ParamTable<TlineFamily>& table();

  TlineScenario cfg_;
  TlineEngine engine_ = TlineEngine::kFdtd1d;
};

}  // namespace fdtdmm
