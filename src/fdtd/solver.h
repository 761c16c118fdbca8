#pragma once
/// \file solver.h
/// 3D FDTD time stepper with lumped behavioral elements in the mesh — the
/// paper's hybridization engine (Section 3). Each time step:
///   1. leapfrog H update (scattered fields);
///   2. volume E update with baked material coefficients;
///   3. scattered-field dielectric corrections from the incident wave, on
///      the dielectric edges whose retarded time lies in the pulse's
///      support (a delay-sorted window; the others would add exactly 0);
///   4. Mur-1 absorbing boundaries;
///   5. tangential-E forcing on PEC edges (E_s = -E_i): every PEC edge is
///      zeroed, then only the edges in the pulse's support get -E_i;
///   6. per-port Newton-Raphson solve of the coupled Eq. (8) + device law
///      (Eq. (13) for RBF macromodels), overwriting the port edge field;
///   7. probe recording.

#include <memory>
#include <string>
#include <vector>

#include "fdtd/cpml.h"
#include "fdtd/grid.h"
#include "fdtd/incident.h"
#include "fdtd/mur.h"
#include "fdtd/ntff.h"
#include "signal/port_model.h"
#include "signal/waveform.h"

namespace fdtdmm {

/// Placement of a lumped one-port on an E edge of any orientation.
struct LumpedPortSpec {
  Axis axis = Axis::kZ;             ///< edge direction of the device
  std::size_t i = 0, j = 0, k = 0;  ///< edge indices (must be interior in the
                                    ///< two transverse directions)
  int sign = +1;  ///< +1: device + terminal at the lower node along `axis`
                  ///< (v_device = sign * E_axis * d_axis)
  std::string label = "port";
};

/// A lumped behavioral element inserted in the mesh, solved per Eq. (8).
class LumpedPort {
 public:
  LumpedPort(const LumpedPortSpec& spec, PortModelPtr model);

  const std::string& label() const { return spec_.label; }
  const LumpedPortSpec& spec() const { return spec_; }

  /// Port voltage/current histories (device sign convention), recorded at
  /// every accepted step.
  const Waveform& voltage() const { return v_rec_; }
  const Waveform& current() const { return i_rec_; }

  int maxNewtonIterations() const { return max_newton_; }
  long long totalNewtonIterations() const { return total_newton_; }

 private:
  friend class FdtdSolver;

  LumpedPortSpec spec_;
  PortModelPtr model_;
  // Precomputed alpha coefficients of Eqs. (9)-(12).
  double alpha0_ = 1.0, alpha1_ = 1.0, alpha2_ = 0.0, alpha3_ = 0.0;
  double d_axis_ = 0.0;     ///< edge length along the port axis
  double v_total_ = 0.0;    ///< total cell voltage at the previous step
  double i_prev_ = 0.0;     ///< device current at the previous step (mesh sign)
  double inc_delay_ = 0.0;  ///< plane-wave delay at the edge center (set
                            ///< at the first step)
  int max_newton_ = 0;
  long long total_newton_ = 0;
  Waveform v_rec_;
  Waveform i_rec_;
};

/// Voltage probe: line integral of the total E component along `axis` over
/// a contiguous edge span, times `sign` (so it can match a device's
/// terminal convention). For axis = kZ the span runs over k in [k0, k1)
/// at fixed (i, j); analogously for the other axes (the `0`/`1` fields
/// index the probe axis, i/j the transverse coordinates in x,y,z order
/// with the probe axis removed).
struct VoltageProbeSpec {
  Axis axis = Axis::kZ;
  std::size_t i = 0, j = 0, k0 = 0, k1 = 1;
  int sign = +1;
  std::string label = "v";
};

/// Point probe of one total E component.
struct FieldProbeSpec {
  Axis axis = Axis::kZ;
  std::size_t i = 0, j = 0, k = 0;
  std::string label = "e";
};

/// Current probe: Ampere loop around the E edge (axis, i, j, k); records
/// the total (conduction + displacement) current through the loop in the
/// +axis direction. On a lumped-port edge at DC this equals the device
/// current.
struct CurrentProbeSpec {
  Axis axis = Axis::kZ;
  std::size_t i = 0, j = 0, k = 0;
  std::string label = "i";
};

/// Absorbing boundary selector.
enum class BoundaryKind {
  kMur1,  ///< first-order Mur (cheap, ~1-2 % reflection)
  kCpml,  ///< convolutional PML (8 cells, reflections typically < 0.1 %)
};

/// Options for the solver.
struct FdtdSolverOptions {
  double newton_tolerance = 1e-9;  ///< the paper's "very stringent" 1e-9
  int max_newton_iterations = 50;
  BoundaryKind boundary = BoundaryKind::kMur1;
  CpmlOptions cpml{};  ///< used when boundary == kCpml
};

/// The 3D FDTD engine. Owns the grid (moved in) and all attachments.
class FdtdSolver {
 public:
  /// \throws std::invalid_argument if the grid is not baked.
  explicit FdtdSolver(Grid3 grid, const FdtdSolverOptions& opt = {});

  Grid3& grid() { return grid_; }
  const Grid3& grid() const { return grid_; }
  double dt() const { return grid_.dt(); }
  double time() const { return static_cast<double>(step_) * grid_.dt(); }

  /// Attaches the incident plane wave (scattered-field formulation).
  /// Must be called before the first step; ports added before or after it
  /// see the same wave.
  void setIncidentWave(const PlaneWave& wave);

  /// Adds a lumped one-port at the edge `spec` names, along any axis
  /// (LumpedPortSpec::axis). The edge must be strictly interior in the two
  /// transverse directions and not PEC. Returns a stable pointer owned by
  /// the solver.
  /// \throws std::invalid_argument on bad placement.
  LumpedPort* addLumpedPort(const LumpedPortSpec& spec, PortModelPtr model);

  /// Adds a voltage probe (recorded every step). Returns its index.
  std::size_t addVoltageProbe(const VoltageProbeSpec& spec);

  /// Adds a field probe. Returns its index.
  std::size_t addFieldProbe(const FieldProbeSpec& spec);

  /// Adds an Ampere-loop current probe. Returns its index.
  std::size_t addCurrentProbe(const CurrentProbeSpec& spec);

  /// Attaches a near-to-far-field Huygens surface (radiation
  /// post-processing). Returns a stable pointer owned by the solver.
  NtffRecorder* addNtffSurface(const NtffSpec& spec);

  /// Advances n time steps. \throws std::runtime_error if a port Newton
  /// solve fails to converge.
  void run(std::size_t n_steps);

  /// Advances until time() >= t_stop.
  void runUntil(double t_stop);

  /// Probe results (after run).
  const Waveform& voltageProbe(std::size_t index) const;
  const Waveform& fieldProbe(std::size_t index) const;
  const Waveform& currentProbe(std::size_t index) const;
  const std::vector<std::unique_ptr<LumpedPort>>& ports() const { return ports_; }

  /// Worst-case Newton iteration count across all ports and steps.
  int maxNewtonIterations() const;

 private:
  void stepOnce();
  void updateH();
  void updateE();
  void applyIncidentMaterialCorrections(double t_half);
  void applyPecEdges(double t_new);
  void solvePorts(double t_new, double t_half);
  void recordProbes();
  double totalE(Axis axis, std::size_t i, std::size_t j, std::size_t k,
                double t) const;
  /// Plane-wave delay at the center of an E edge (incident_ must be set).
  double incidentDelay(Axis axis, std::size_t i, std::size_t j, std::size_t k) const;

  Grid3 grid_;
  FdtdSolverOptions opt_;
  std::unique_ptr<MurBoundary> mur_;
  std::unique_ptr<CpmlBoundary> cpml_;
  std::unique_ptr<PlaneWave> incident_;
  std::size_t step_ = 0;
  bool started_ = false;

  std::vector<std::unique_ptr<LumpedPort>> ports_;
  std::vector<VoltageProbeSpec> v_probe_specs_;
  std::vector<Waveform> v_probes_;
  std::vector<FieldProbeSpec> f_probe_specs_;
  std::vector<Waveform> f_probes_;
  std::vector<CurrentProbeSpec> i_probe_specs_;
  std::vector<Waveform> i_probes_;
  std::vector<std::unique_ptr<NtffRecorder>> ntff_;

  // Precomputed incident-wave data for the PEC edge forcing, per
  // component, sorted by delay (supportWindow).
  struct PecIncident {
    std::size_t id;   ///< linear index into the component array
    double delay;     ///< plane-wave delay at the edge center
    double amp;       ///< polarization * amplitude for this component
  };
  std::vector<PecIncident> pec_incident_[3];
  // Incident-correction data per material edge (delay and component amp),
  // per component, sorted by delay.
  struct MatIncident {
    std::size_t id;
    double delay;
    double amp;
    double cb_deps;   ///< cb * (eps_eff - eps0)
    double cb_sigma;  ///< cb * sigma_eff
  };
  std::vector<MatIncident> mat_incident_[3];
};

}  // namespace fdtdmm
