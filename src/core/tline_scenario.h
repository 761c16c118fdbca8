#pragma once
/// \file tline_scenario.h
/// The paper's validation structure (Section 4, Figs. 3-5): a two-strip
/// transmission line (Zc ~ 131 ohm, Td ~ 0.4 ns) driven by the macromodeled
/// CMOS driver forcing a '010' pattern at 2 ns bit time, with either a
/// linear RC far-end load (1 pF || 500 ohm, Fig. 4) or the macromodeled
/// receiver (Fig. 5). Four engines produce the same two termination
/// waveforms:
///   (i)   SPICE + transistor-level devices + ideal line,
///   (ii)  SPICE + RBF macromodels + ideal line,
///   (iii) 1D FDTD line + RBF macromodels,
///   (iv)  3D FDTD full-wave + RBF macromodels.

#include <memory>

#include "circuit/solver_state.h"
#include "core/model_factory.h"
#include "obs/telemetry.h"
#include "signal/bit_pattern.h"
#include "signal/waveform.h"

namespace fdtdmm {

/// Far-end termination selector (Fig. 4 vs Fig. 5).
enum class FarEndLoad { kLinearRc, kReceiver };

/// Scenario parameters; defaults reproduce the paper's setup.
struct TlineScenario {
  std::string pattern = "010";
  double bit_time = 2e-9;    ///< [s]
  double t_stop = 5e-9;      ///< plot window [s]
  double zc = 131.0;         ///< line characteristic impedance [ohm]
  double td = 0.4e-9;        ///< line delay [s]
  FarEndLoad load = FarEndLoad::kLinearRc;
  double load_r = 500.0;     ///< Fig. 4 shunt resistor [ohm]
  double load_c = 1e-12;     ///< Fig. 4 shunt capacitor [F]
  // 3D mesh parameters (Fig. 3 structure).
  std::size_t mesh_nx = 180, mesh_ny = 24, mesh_nz = 23;
  double mesh_delta = 0.723e-3;  ///< uniform cell size [m]
  std::size_t strip_len = 160;   ///< strip length [cells]
  std::size_t strip_width = 4;   ///< strip width [cells]
  std::size_t strip_gap = 3;     ///< vertical separation [cells]
};

/// Validates scenario options. Every engine entry point calls this before
/// building anything, so bad options fail fast instead of producing NaNs or
/// hanging in a degenerate mesh.
/// \throws std::invalid_argument if pattern is empty, bit_time/t_stop/zc/
///         td/mesh_delta are non-positive, any mesh dimension or strip size
///         is zero, or the strip does not fit inside the mesh.
void validateTlineScenario(const TlineScenario& cfg);

/// Result of one engine run on the scenario.
struct EngineRun {
  Waveform v_near;  ///< driver-side termination voltage
  Waveform v_far;   ///< far-end termination voltage
  int max_newton_iterations = 0;
  double wall_seconds = 0.0;
  /// Solver telemetry for this run (obs/telemetry.h). The MNA engines
  /// (i)/(ii) fill the phase timings; the FDTD engines (iii)/(iv) leave
  /// them at zero.
  obs::RunTelemetry telemetry;
};

/// Engine (i): transistor-level SPICE reference.
EngineRun runSpiceTransistorTline(const TlineScenario& cfg,
                                  const CmosDriverParams& driver,
                                  const CmosReceiverParams& receiver,
                                  double dt = 2e-12);

/// Engine (ii)'s default time step [s].
inline constexpr double kSpiceRbfDt = 2e-12;

/// Engine (ii): SPICE with RBF macromodels, threading `sharing` into the
/// TransientOptions (circuit/solver_state.h). Bit-identical waveforms for
/// any `sharing`.
EngineRun runSpiceRbfTline(const TlineScenario& cfg,
                           std::shared_ptr<const RbfDriverModel> driver,
                           std::shared_ptr<const RbfReceiverModel> receiver,
                           double dt = kSpiceRbfDt, const SolverSharing& sharing = {});

/// Engine (iii): 1D FDTD with RBF macromodels.
EngineRun runFdtd1dTline(const TlineScenario& cfg,
                         std::shared_ptr<const RbfDriverModel> driver,
                         std::shared_ptr<const RbfReceiverModel> receiver);

/// Engine (iv): 3D FDTD full-wave with RBF macromodels.
EngineRun runFdtd3dTline(const TlineScenario& cfg,
                         std::shared_ptr<const RbfDriverModel> driver,
                         std::shared_ptr<const RbfReceiverModel> receiver);

}  // namespace fdtdmm
