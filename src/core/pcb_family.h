#pragma once
/// \file pcb_family.h
/// The "pcb" scenario family: the paper's Fig. 6/7 field-coupling board
/// (pcb_scenario.h) behind the open Scenario interface.
///
/// Parameters (see descriptors() for kinds and ranges):
///   pattern, bit_time, t_stop, cell, board_cells, margin, strip_len,
///   net_pitch, eps_r, r_termination, with_incident, inc_amplitude,
///   inc_bandwidth, inc_theta_deg, inc_phi_deg.
///
/// Waveform mapping: v_near/v_far are the driver/receiver terminations of
/// the active net; victims holds the four passive-net termination voltages
/// in builder order.

#include "core/pcb_scenario.h"
#include "core/scenario.h"

namespace fdtdmm {

class PcbFamily final : public Scenario {
 public:
  PcbFamily() = default;
  explicit PcbFamily(const PcbScenario& cfg) : cfg_(cfg) {}

  const std::string& family() const override;
  const std::vector<ParamDescriptor>& descriptors() const override;
  void set(const std::string& param, const ParamValue& value) override;
  ParamValue get(const std::string& param) const override;
  void validate() const override;
  std::string label() const override;
  std::string pattern() const override { return cfg_.pattern; }
  double bitTime() const override { return cfg_.bit_time; }
  double tStop() const override { return cfg_.t_stop; }
  bool needsReceiver() const override { return true; }
  std::unique_ptr<Scenario> clone() const override;
  TaskWaveforms run(std::shared_ptr<const RbfDriverModel> driver,
                    std::shared_ptr<const RbfReceiverModel> receiver) const override;

  const PcbScenario& config() const { return cfg_; }

 private:
  static const ParamTable<PcbFamily>& table();

  PcbScenario cfg_;
};

}  // namespace fdtdmm
