#pragma once
/// \file elements.h
/// Circuit element hierarchy of the MNA engines (transient, DC operating
/// point and, through stampAc, the AC engine). Each element splits its
/// MNA contribution three ways:
///
///  - stampStatic: matrix entries that depend only on topology and the
///    fixed time step (R/C/L companion conductances, source and branch
///    incidence rows, line characteristic rows). Assembled once per run.
///  - stampRhs: the right-hand-side terms of one time point that do not
///    depend on the iterate (sources, companion history, series EMFs, line
///    reflections). Stamped once per time point; it receives only b, so it
///    cannot write the matrix.
///  - a port law, for nonlinear elements only: the element declares k
///    terminal pairs (ports()) and evalPorts returns the k port currents
///    and the k x k conductance at given port voltages. The engine reserves
///    every port stencil in the static pattern and runs Newton on the port
///    equations alone (see circuit/transient.h), so a linear element never
///    takes part in an iteration and a nonlinear one only through its law.

#include <complex>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "math/sparse_matrix.h"
#include "signal/port_model.h"

namespace fdtdmm {

/// MNA system A x = b over `Scalar`; unknowns are node voltages (node
/// k > 0 at index k-1) followed by branch currents. Every element writes its
/// matrix entries through add() into the CSR target `csr`, which the engine
/// points at the matrix it assembles (math/sparse_matrix.h), and its
/// right-hand side into `b`. The real system (StampSystem) serves the
/// transient engine and the DC operating point, the complex one
/// (AcStampSystem) the AC engine.
template <typename Scalar>
struct MnaSystem {
  CsrMatrix<Scalar>* csr = nullptr;  ///< CSR target, set by the engine
  std::vector<Scalar> b;

  /// Adds v to matrix entry (row, col).
  void add(std::size_t row, std::size_t col, Scalar v) { csr->add(row, col, v); }
};

/// The transient engine's real system.
using StampSystem = MnaSystem<double>;

/// The AC engine's complex system A(omega) x = b, A = G + j*omega*B (plus
/// frequency-dependent terms like the ideal line's e^{-j omega Td}).
using AcStampSystem = MnaSystem<Complex>;

/// Source waveform type shared with the signal module.
using TimeFn = std::function<double(double t)>;

/// One port of a port law: the port voltage is v(pos) - v(neg), and the
/// port current flows from pos through the element to neg.
struct TerminalPair {
  int pos = 0;
  int neg = 0;
};

/// Base class of all circuit elements.
class Element {
 public:
  virtual ~Element() = default;

  /// Number of extra branch-current unknowns this element adds.
  virtual int branchCount() const { return 0; }

  /// Assigns the index of this element's first branch unknown.
  void setBranchOffset(std::size_t off) { branch_offset_ = off; }

  /// Called once when the simulation starts (after dt is known).
  virtual void begin(double /*dt*/) {}

  /// Called at the start of every time step, before Newton iterations.
  /// t_new is the time being solved for.
  virtual void beginStep(double /*t_new*/, double /*dt*/) {}

  /// Stamps the time-invariant matrix entries. Called once per run, after
  /// begin(). Contract: may only write matrix entries (sys.add) — the RHS
  /// is rebuilt from zero every time point, so static contributions to
  /// sys.b would be silently lost (the engine rejects them with
  /// std::logic_error).
  virtual void stampStatic(StampSystem& /*sys*/, double /*dt*/) {}

  /// Adds this time point's right-hand-side terms at t_new into b: sources,
  /// companion history, series EMFs, line reflections. Called once per time
  /// point (after beginStep), never per Newton iteration, so the terms must
  /// not depend on the iterate.
  virtual void stampRhs(Vector& /*b*/, double /*t_new*/, double /*dt*/) {}

  /// The port law's terminal pairs; empty for linear elements. Fixed at
  /// construction, so the engine reserves every port stencil — all
  /// (node of port p, node of port q) entries — in the static pattern.
  const std::vector<TerminalPair>& ports() const { return ports_; }

  /// The port law at port voltages v (one per port, in ports() order):
  /// writes the port currents into i and the conductance di_p/dv_q into
  /// g[p * k + q] (k = ports().size()). Called any number of times per time
  /// point with trial voltages, so it must not change observable state
  /// (endStep commits). The default throws std::logic_error: only elements
  /// that declare ports have a law.
  virtual void evalPorts(const double* v, double t_new, double* i, double* g);

  /// Reserves the port stencil as structural zeros (the static assembly
  /// calls it right after stampStatic).
  void reservePortStencil(StampSystem& sys) const;

  /// Stamps the port law linearized about port voltages v, where it drew
  /// currents i with conductance g (evalPorts' layout): g into the port
  /// stencil and the residual current i - g v into sys.b.
  void stampPortLinearization(StampSystem& sys, const double* v, const double* i,
                              const double* g) const;

  /// One iteration of a full-restamp Newton solve about iterate x (the DC
  /// operating point, the test oracles): stampRhs, then the port law
  /// evaluated at x's port voltages and linearized there.
  void stampLinearized(StampSystem& sys, const Vector& x, double t_new, double dt);

  /// Commits the accepted solution of this step.
  virtual void endStep(const Vector& /*x*/, double /*t_new*/, double /*dt*/) {}

  /// Stamps this element's small-signal frequency-domain matrix entries at
  /// angular frequency `omega` into the complex system A(omega) x = b. The
  /// right-hand side is stampAcRhs's, so the engine can restamp b alone
  /// when only an excitation changed at the last factored frequency.
  ///
  /// Contract (the AC analogue of stampStatic and evalPorts, collapsed
  /// into one pass because the engine re-stamps values at every frequency):
  ///  - Reactive elements stamp admittance/impedance at s = j*omega
  ///    (capacitor j*omega*C, inductor branch row with -j*omega*L).
  ///  - Nonlinear devices stamp the conductance of their port law about
  ///    `x_dc` (the operating point from freq::dcOperatingPoint; an
  ///    EMPTY vector means "all unknowns zero"). No residual current
  ///    sources: AC analysis is small-signal, only derivatives survive.
  ///  - Matrix only: every write goes through AcStampSystem::add (or the
  ///    stamp helpers, which take either system); sys.b is not this
  ///    method's. The entry positions written must not depend on omega,
  ///    so one CSR pattern serves every frequency point.
  ///  - Branch unknowns reuse the transient branch_offset_ assignment, so
  ///    an AC system has exactly the unknown layout of the transient one.
  ///  - May be called many times per assembly (once per frequency point);
  ///    must be state-free (const) and must not depend on begin()/
  ///    beginStep() having run.
  ///
  /// The default throws std::logic_error: elements without a defined
  /// small-signal model (e.g. BehavioralPort, whose PortModel interface is
  /// time-domain-only) refuse AC analysis loudly instead of silently
  /// vanishing from the matrix.
  virtual void stampAc(AcStampSystem& /*sys*/, double /*omega*/,
                       const Vector& /*x_dc*/) const;

  /// Adds this element's AC excitation at angular frequency `omega` into
  /// the complex right-hand side b (sized to the unknown count by the
  /// engine). Time-domain excitations are dark at AC: only the sources'
  /// complex phasors (setAcValue on VoltageSource/CurrentSource, the only
  /// overrides) enter b; default 0 makes an un-phasored voltage source an
  /// AC short and an un-phasored current source an AC open. The inductor's
  /// series EMC EMF likewise contributes nothing. Same call rules as
  /// stampAc (const, state-free), and it must not read the matrix: at an
  /// unchanged omega the engine keeps the factored values and restamps b
  /// alone. The default adds nothing.
  virtual void stampAcRhs(ComplexVector& /*b*/, double /*omega*/) const {}

  virtual std::string name() const = 0;

 protected:
  /// Voltage of node n in the unknown vector (ground = 0).
  static double nodeV(const Vector& x, int n) { return n == 0 ? 0.0 : x[static_cast<std::size_t>(n - 1)]; }

  // Stamp helpers, shared by the real and the complex system.

  /// Adds conductance g (an admittance, on the complex system) between
  /// nodes n1 and n2 (standard 4-point stamp).
  template <typename Scalar>
  static void stampConductance(MnaSystem<Scalar>& sys, int n1, int n2, Scalar g) {
    addAnode(sys, n1, n1, g);
    addAnode(sys, n2, n2, g);
    addAnode(sys, n1, n2, -g);
    addAnode(sys, n2, n1, -g);
  }

  /// Adds current `i` flowing out of n1 into n2 to the RHS b (i.e. a
  /// source pushing current from n2 to n1 adds +i at n1).
  template <typename Scalar>
  static void stampCurrentSource(std::vector<Scalar>& b, int n1, int n2, Scalar i) {
    if (n1 != 0) b[static_cast<std::size_t>(n1 - 1)] -= i;
    if (n2 != 0) b[static_cast<std::size_t>(n2 - 1)] += i;
  }

  /// Matrix entry helpers that ignore the ground node.
  template <typename Scalar>
  static void addA(MnaSystem<Scalar>& sys, int row_node, std::size_t col, Scalar v) {
    if (row_node != 0) sys.add(static_cast<std::size_t>(row_node - 1), col, v);
  }
  template <typename Scalar>
  static void addAnode(MnaSystem<Scalar>& sys, int row_node, int col_node, Scalar v) {
    if (row_node != 0 && col_node != 0)
      sys.add(static_cast<std::size_t>(row_node - 1), static_cast<std::size_t>(col_node - 1),
              v);
  }
  template <typename Scalar>
  static void addArowNode(MnaSystem<Scalar>& sys, std::size_t row, int col_node, Scalar v) {
    if (col_node != 0) sys.add(row, static_cast<std::size_t>(col_node - 1), v);
  }

  /// Adds conductance g from port q's voltage to port p's current: the
  /// 4-point stencil between p's nodes (rows) and q's nodes (columns).
  static void addPortConductance(StampSystem& sys, const TerminalPair& p,
                                 const TerminalPair& q, double g);

  /// Voltage of node n in a DC operating-point vector where an empty
  /// vector means "all zeros" (the stampAc convention for x_dc).
  static double dcNodeV(const Vector& x, int n) {
    return (n == 0 || x.empty()) ? 0.0 : x[static_cast<std::size_t>(n - 1)];
  }

  std::size_t branch_offset_ = 0;
  std::vector<TerminalPair> ports_;  ///< set by nonlinear constructors
};

/// Linear resistor between n1 and n2.
class Resistor final : public Element {
 public:
  /// \throws std::invalid_argument if r <= 0.
  Resistor(int n1, int n2, double r);
  void stampStatic(StampSystem& sys, double dt) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  std::string name() const override { return "R"; }

 private:
  int n1_, n2_;
  double g_;
};

/// Linear capacitor (trapezoidal companion model).
class Capacitor final : public Element {
 public:
  /// \throws std::invalid_argument if c <= 0.
  Capacitor(int n1, int n2, double c, double v0 = 0.0);
  void begin(double dt) override;
  void stampStatic(StampSystem& sys, double dt) override;
  void stampRhs(Vector& b, double t_new, double dt) override;
  void endStep(const Vector& x, double t_new, double dt) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  std::string name() const override { return "C"; }

 private:
  int n1_, n2_;
  double c_;
  double v_prev_;
  double i_prev_ = 0.0;
  double geq_ = 0.0;
};

/// Linear inductor (trapezoidal, one branch unknown), optionally with a
/// time-varying EMF e(t) in series: v(n1) - v(n2) + e(t) = L di/dt, i.e.
/// the EMF raises the n2-side potential. The EMF enters only the RHS of
/// the branch row (stampRhs), so a field-excited ladder stays a linear
/// circuit with one factorization and one substitution per time point —
/// this is the circuit substrate of the Taylor/Agrawal
/// distributed-source EMC coupling in src/emc/.
class Inductor final : public Element {
 public:
  /// \throws std::invalid_argument if l <= 0.
  Inductor(int n1, int n2, double l, double i0 = 0.0);
  /// With a series EMF. \throws std::invalid_argument if l <= 0 or emf is
  /// empty.
  Inductor(int n1, int n2, double l, TimeFn emf, double i0 = 0.0);
  int branchCount() const override { return 1; }
  void begin(double dt) override;
  void stampStatic(StampSystem& sys, double dt) override;
  void stampRhs(Vector& b, double t_new, double dt) override;
  void endStep(const Vector& x, double t_new, double dt) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  std::string name() const override { return "L"; }

 private:
  /// emf_(t), evaluated once per time point: the RHS stamp of a step and
  /// its endStep share one call. Keyed on t, not cached in beginStep,
  /// because the DC operating point stamps without beginStep.
  double emfAt(double t);

  int n1_, n2_;
  double l_;
  TimeFn emf_;     ///< optional series EMF (may be empty)
  double i_prev_;
  double v_prev_ = 0.0;  ///< previous branch voltage *including* the EMF
  double emf_t_ = std::numeric_limits<double>::quiet_NaN();  ///< memo key
  double emf_v_ = 0.0;  ///< emf_(emf_t_)
};

/// A pair of mutually coupled inductors (linear transformer):
///   v1 = L1 di1/dt + M di2/dt,   v2 = M di1/dt + L2 di2/dt,
/// with v1 = v(a1) - v(b1), i1 flowing a1 -> b1 (analogously port 2).
/// Theta-method companion like Inductor, two branch unknowns. This is the
/// K-coupled element behind inductive line-to-line coupling in
/// buildCoupledRlgcLines (the Lm/L crosstalk axis).
class CoupledInductors final : public Element {
 public:
  /// \throws std::invalid_argument if l1/l2 <= 0 or m^2 >= l1*l2 (the
  ///         coupling coefficient |k| must be < 1 for a passive pair).
  CoupledInductors(int a1, int b1, int a2, int b2, double l1, double l2, double m);
  int branchCount() const override { return 2; }
  void begin(double dt) override;
  void stampStatic(StampSystem& sys, double dt) override;
  void stampRhs(Vector& b, double t_new, double dt) override;
  void endStep(const Vector& x, double t_new, double dt) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  std::string name() const override { return "K"; }

 private:
  int a1_, b1_, a2_, b2_;
  double l1_, l2_, m_;      ///< inductance matrix [H] (for the AC stamp)
  double g11_, g12_, g22_;  ///< inverse inductance matrix [1/H]
  double i1_prev_ = 0.0, i2_prev_ = 0.0;
  double v1_prev_ = 0.0, v2_prev_ = 0.0;
};

/// Ideal voltage source v(n1) - v(n2) = vs(t) (one branch unknown).
class VoltageSource final : public Element {
 public:
  /// \throws std::invalid_argument if vs is empty.
  VoltageSource(int n1, int n2, TimeFn vs);
  int branchCount() const override { return 1; }
  void stampStatic(StampSystem& sys, double dt) override;
  void stampRhs(Vector& b, double t_new, double dt) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  void stampAcRhs(ComplexVector& b, double omega) const override;
  std::string name() const override { return "V"; }

  /// Index of the branch-current unknown (valid after assembly).
  std::size_t branchIndex() const { return branch_offset_; }

  /// AC phasor of this source: v(n1) - v(n2) = ac at every frequency. The
  /// default 0 makes the source an AC short (its internal impedance),
  /// which is what termination/bias sources want. Mutable between
  /// AcSession::solveAt calls — the S-parameter extraction re-runs one
  /// assembled system with forward/reverse port excitations.
  void setAcValue(std::complex<double> ac) { ac_ = ac; }
  std::complex<double> acValue() const { return ac_; }

 private:
  int n1_, n2_;
  TimeFn vs_;
  std::complex<double> ac_{0.0, 0.0};
};

/// Ideal current source injecting is(t) from n2 into n1.
class CurrentSource final : public Element {
 public:
  /// \throws std::invalid_argument if is is empty.
  CurrentSource(int n1, int n2, TimeFn is);
  void stampRhs(Vector& b, double t_new, double dt) override;
  /// Matrix-free at AC: its phasor enters only b (stampAcRhs).
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  void stampAcRhs(ComplexVector& b, double omega) const override;
  std::string name() const override { return "I"; }

  /// AC phasor injected from n2 into n1 (default 0: an AC open).
  void setAcValue(std::complex<double> ac) { ac_ = ac; }
  std::complex<double> acValue() const { return ac_; }

 private:
  int n1_, n2_;
  TimeFn is_;
  std::complex<double> ac_{0.0, 0.0};
};

/// Junction diode parameters.
struct DiodeParams {
  double is = 1e-14;      ///< saturation current [A]
  double n = 1.0;         ///< emission coefficient
  double vt = 0.025852;   ///< thermal voltage [V]
  double gmin = 1e-12;    ///< parallel conductance for conditioning
};

/// Junction diode from anode to cathode, i = Is (exp(v/nVt) - 1).
/// Exponential linearly extrapolated above 40 nVt to keep Newton bounded.
/// One port, (anode, cathode).
class Diode final : public Element {
 public:
  Diode(int anode, int cathode, const DiodeParams& p = {});
  void evalPorts(const double* v, double t_new, double* i, double* g) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  std::string name() const override { return "D"; }

  /// Diode current and conductance at junction voltage v (exposed for tests).
  static double evalCurrent(double v, const DiodeParams& p, double& g);

 private:
  int na_, nc_;
  DiodeParams p_;
};

/// Level-1 (square-law) MOSFET parameters.
struct MosfetParams {
  enum class Type { kNmos, kPmos };
  Type type = Type::kNmos;
  double vth = 0.45;    ///< threshold voltage magnitude [V]
  double k = 8e-3;      ///< transconductance factor K = mu Cox W/L [A/V^2]
  double lambda = 0.05; ///< channel-length modulation [1/V]
  double gmin = 1e-12;  ///< drain-source leakage for conditioning
};

/// Level-1 MOSFET (symmetric in drain/source). Captures the square-law
/// regions (cutoff / triode / saturation) with C1-continuous boundaries;
/// this is all the macromodeling pipeline requires from the
/// transistor-level substitute of the paper's IBM device. Two ports,
/// (gate, source) and (drain, source): no gate current, and the channel
/// current flows from drain to source whichever terminal is the effective
/// source.
class Mosfet final : public Element {
 public:
  Mosfet(int drain, int gate, int source, const MosfetParams& p = {});
  void evalPorts(const double* v, double t_new, double* i, double* g) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  std::string name() const override { return p_.type == MosfetParams::Type::kNmos ? "NMOS" : "PMOS"; }

  /// Drain current (NMOS convention: positive into drain when vds > 0) and
  /// partial derivatives; exposed for unit tests of region boundaries.
  static double evalIds(double vgs, double vds, const MosfetParams& p,
                        double& gm, double& gds);

 private:
  int nd_, ng_, ns_;
  MosfetParams p_;
};

/// Lossless ideal transmission line (Branin / method-of-characteristics
/// model): two ports (p1+, p1-) and (p2+, p2-), characteristic impedance Zc,
/// one-way delay Td. Adds two branch-current unknowns. History terms are
/// linearly interpolated, so use dt well below Td.
class IdealLine final : public Element {
 public:
  /// \throws std::invalid_argument if zc <= 0 or td <= 0.
  IdealLine(int p1p, int p1m, int p2p, int p2m, double zc, double td);
  int branchCount() const override { return 2; }
  void begin(double dt) override;
  void beginStep(double t_new, double dt) override;
  void stampStatic(StampSystem& sys, double dt) override;
  void stampRhs(Vector& b, double t_new, double dt) override;
  void endStep(const Vector& x, double t_new, double dt) override;
  void stampAc(AcStampSystem& sys, double omega, const Vector& x_dc) const override;
  std::string name() const override { return "TL"; }

 private:
  struct Sample {
    double t;
    double w;  ///< v + Zc i at the far port
  };
  double history(const std::deque<Sample>& h, double t) const;

  int p1p_, p1m_, p2p_, p2m_;
  double zc_, td_;
  std::deque<Sample> w1_;  ///< v1 + Zc i1 samples
  std::deque<Sample> w2_;  ///< v2 + Zc i2 samples
  double v1h_ = 0.0;       ///< incident history for port 1 at t_new
  double v2h_ = 0.0;
};

/// Wraps a PortModel (e.g. an RBF macromodel resampled to the circuit time
/// step) as a two-terminal nonlinear element with one port, (n1, n2). This
/// is engine (ii) of the paper's Fig. 4: "SPICE with RBF models of the
/// devices".
class BehavioralPort final : public Element {
 public:
  /// \throws std::invalid_argument if model is null.
  BehavioralPort(int n1, int n2, PortModelPtr model);
  void begin(double dt) override;
  void evalPorts(const double* v, double t_new, double* i, double* g) override;
  void endStep(const Vector& x, double t_new, double dt) override;
  std::string name() const override { return "PORT(" + model_->name() + ")"; }

 private:
  int n1_, n2_;
  PortModelPtr model_;
};

}  // namespace fdtdmm
