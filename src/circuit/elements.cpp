#include "circuit/elements.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace fdtdmm {

void Element::stampAc(AcStampSystem&, double, const Vector&) const {
  throw std::logic_error(name() + ": AC analysis not supported");
}

void Element::evalPorts(const double*, double, double*, double*) {
  throw std::logic_error(name() + ": element has no port law");
}

void Element::addPortConductance(StampSystem& sys, const TerminalPair& p,
                                 const TerminalPair& q, double g) {
  addAnode(sys, p.pos, q.pos, g);
  addAnode(sys, p.pos, q.neg, -g);
  addAnode(sys, p.neg, q.pos, -g);
  addAnode(sys, p.neg, q.neg, g);
}

void Element::reservePortStencil(StampSystem& sys) const {
  for (const TerminalPair& p : ports_) {
    for (const TerminalPair& q : ports_) addPortConductance(sys, p, q, 0.0);
  }
}

void Element::stampPortLinearization(StampSystem& sys, const double* v, const double* i,
                                     const double* g) const {
  // i(v*) ~ i + g (v* - v): the conductance g between the ports and the
  // residual current i - g v driven through each port.
  const std::size_t k = ports_.size();
  for (std::size_t p = 0; p < k; ++p) {
    double residual = i[p];
    for (std::size_t q = 0; q < k; ++q) {
      addPortConductance(sys, ports_[p], ports_[q], g[p * k + q]);
      residual -= g[p * k + q] * v[q];
    }
    stampCurrentSource(sys.b, ports_[p].pos, ports_[p].neg, residual);
  }
}

void Element::stampLinearized(StampSystem& sys, const Vector& x, double t_new, double dt) {
  stampRhs(sys.b, t_new, dt);
  const std::size_t k = ports_.size();
  if (k == 0) return;
  Vector v(k), i(k), g(k * k);
  for (std::size_t p = 0; p < k; ++p) v[p] = nodeV(x, ports_[p].pos) - nodeV(x, ports_[p].neg);
  evalPorts(v.data(), t_new, i.data(), g.data());
  stampPortLinearization(sys, v.data(), i.data(), g.data());
}

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(int n1, int n2, double r) : n1_(n1), n2_(n2), g_(1.0 / r) {
  if (r <= 0.0) throw std::invalid_argument("Resistor: R must be > 0");
}

void Resistor::stampStatic(StampSystem& sys, double) {
  stampConductance(sys, n1_, n2_, g_);
}

void Resistor::stampAc(AcStampSystem& sys, double, const Vector&) const {
  stampConductance(sys, n1_, n2_, {g_, 0.0});
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(int n1, int n2, double c, double v0)
    : n1_(n1), n2_(n2), c_(c), v_prev_(v0) {
  if (c <= 0.0) throw std::invalid_argument("Capacitor: C must be > 0");
}

namespace {
// Theta-method integration parameter for reactive companions. Theta = 0.5
// is the trapezoidal rule, which sustains an undamped +-i oscillation on
// voltage-forced nodes after a discontinuity (classic trapezoidal ringing);
// a slight bias damps that parasitic mode by (1-theta)/theta per step while
// staying near second-order accurate.
constexpr double kTheta = 0.55;
constexpr double kThetaFeedback = (1.0 - kTheta) / kTheta;
}  // namespace

void Capacitor::begin(double dt) {
  geq_ = c_ / (kTheta * dt);
  i_prev_ = 0.0;
}

void Capacitor::stampStatic(StampSystem& sys, double) {
  // Theta companion: i = geq (v - v_prev) - kThetaFeedback * i_prev.
  stampConductance(sys, n1_, n2_, geq_);
}

void Capacitor::stampRhs(Vector& b, double, double) {
  // Equivalent source pushing geq*v_prev + kThetaFeedback*i_prev from n2 to n1.
  stampCurrentSource(b, n1_, n2_, -(geq_ * v_prev_ + kThetaFeedback * i_prev_));
}

void Capacitor::endStep(const Vector& x, double, double) {
  const double v = nodeV(x, n1_) - nodeV(x, n2_);
  i_prev_ = geq_ * (v - v_prev_) - kThetaFeedback * i_prev_;
  v_prev_ = v;
}

void Capacitor::stampAc(AcStampSystem& sys, double omega, const Vector&) const {
  stampConductance(sys, n1_, n2_, {0.0, omega * c_});
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(int n1, int n2, double l, double i0)
    : n1_(n1), n2_(n2), l_(l), i_prev_(i0) {
  if (l <= 0.0) throw std::invalid_argument("Inductor: L must be > 0");
}

Inductor::Inductor(int n1, int n2, double l, TimeFn emf, double i0)
    : Inductor(n1, n2, l, i0) {
  if (!emf) throw std::invalid_argument("Inductor: empty series EMF");
  emf_ = std::move(emf);
}

void Inductor::begin(double) {
  v_prev_ = 0.0;
  emf_t_ = std::numeric_limits<double>::quiet_NaN();
}

double Inductor::emfAt(double t) {
  if (t != emf_t_) {
    emf_v_ = emf_(t);
    emf_t_ = t;
  }
  return emf_v_;
}

void Inductor::stampStatic(StampSystem& sys, double dt) {
  // Theta method: i_new = i_prev + dt/L (theta v_new + (1-theta) v_prev),
  // where v is the branch voltage including the series EMF.
  const std::size_t ib = branch_offset_;
  const double h = kTheta * dt / l_;
  // Branch row: i_new - h * vd_new = i_prev + h * e_new + hp * v_prev
  // (vd is the node-voltage part; the EMF contribution moves to the RHS).
  sys.add(ib, ib, 1.0);
  addArowNode(sys, ib, n1_, -h);
  addArowNode(sys, ib, n2_, +h);
  // KCL: branch current flows from n1 to n2 through the inductor.
  addA(sys, n1_, ib, +1.0);
  addA(sys, n2_, ib, -1.0);
}

void Inductor::stampRhs(Vector& b, double t_new, double dt) {
  const double hp = (1.0 - kTheta) * dt / l_;
  double rhs = i_prev_ + hp * v_prev_;
  if (emf_) rhs += kTheta * dt / l_ * emfAt(t_new);
  b[branch_offset_] += rhs;
}

void Inductor::endStep(const Vector& x, double t_new, double) {
  v_prev_ = nodeV(x, n1_) - nodeV(x, n2_);
  if (emf_) v_prev_ += emfAt(t_new);
  i_prev_ = x[branch_offset_];
}

void Inductor::stampAc(AcStampSystem& sys, double omega, const Vector&) const {
  // Branch row: v(n1) - v(n2) - j*omega*L * i = 0. The optional transient
  // EMF is a time-domain excitation and contributes nothing at AC.
  const std::size_t ib = branch_offset_;
  addArowNode(sys, ib, n1_, {1.0, 0.0});
  addArowNode(sys, ib, n2_, {-1.0, 0.0});
  sys.add(ib, ib, {0.0, -omega * l_});
  addA(sys, n1_, ib, {1.0, 0.0});
  addA(sys, n2_, ib, {-1.0, 0.0});
}

// --------------------------------------------------------- CoupledInductors

CoupledInductors::CoupledInductors(int a1, int b1, int a2, int b2, double l1,
                                   double l2, double m)
    : a1_(a1), b1_(b1), a2_(a2), b2_(b2), l1_(l1), l2_(l2), m_(m) {
  if (l1 <= 0.0 || l2 <= 0.0)
    throw std::invalid_argument("CoupledInductors: L1, L2 must be > 0");
  const double det = l1 * l2 - m * m;
  if (det <= 0.0)
    throw std::invalid_argument("CoupledInductors: need M^2 < L1*L2");
  g11_ = l2 / det;
  g12_ = -m / det;
  g22_ = l1 / det;
}

void CoupledInductors::begin(double) {
  v1_prev_ = v2_prev_ = 0.0;
  i1_prev_ = i2_prev_ = 0.0;
}

void CoupledInductors::stampStatic(StampSystem& sys, double dt) {
  // Theta method on the vector equation i_new = i_prev +
  // dt * Gamma (theta v_new + (1-theta) v_prev), Gamma = L^-1.
  const std::size_t ib1 = branch_offset_;
  const std::size_t ib2 = branch_offset_ + 1;
  const double h = kTheta * dt;
  sys.add(ib1, ib1, 1.0);
  addArowNode(sys, ib1, a1_, -h * g11_);
  addArowNode(sys, ib1, b1_, +h * g11_);
  addArowNode(sys, ib1, a2_, -h * g12_);
  addArowNode(sys, ib1, b2_, +h * g12_);
  sys.add(ib2, ib2, 1.0);
  addArowNode(sys, ib2, a1_, -h * g12_);
  addArowNode(sys, ib2, b1_, +h * g12_);
  addArowNode(sys, ib2, a2_, -h * g22_);
  addArowNode(sys, ib2, b2_, +h * g22_);
  // KCL: i1 flows a1 -> b1, i2 flows a2 -> b2.
  addA(sys, a1_, ib1, +1.0);
  addA(sys, b1_, ib1, -1.0);
  addA(sys, a2_, ib2, +1.0);
  addA(sys, b2_, ib2, -1.0);
}

void CoupledInductors::stampRhs(Vector& b, double, double dt) {
  const double hp = (1.0 - kTheta) * dt;
  b[branch_offset_] += i1_prev_ + hp * (g11_ * v1_prev_ + g12_ * v2_prev_);
  b[branch_offset_ + 1] += i2_prev_ + hp * (g12_ * v1_prev_ + g22_ * v2_prev_);
}

void CoupledInductors::endStep(const Vector& x, double, double) {
  v1_prev_ = nodeV(x, a1_) - nodeV(x, b1_);
  v2_prev_ = nodeV(x, a2_) - nodeV(x, b2_);
  i1_prev_ = x[branch_offset_];
  i2_prev_ = x[branch_offset_ + 1];
}

void CoupledInductors::stampAc(AcStampSystem& sys, double omega,
                               const Vector&) const {
  // v1 = j*omega*(L1 i1 + M i2), v2 = j*omega*(M i1 + L2 i2).
  const std::size_t ib1 = branch_offset_;
  const std::size_t ib2 = branch_offset_ + 1;
  addArowNode(sys, ib1, a1_, {1.0, 0.0});
  addArowNode(sys, ib1, b1_, {-1.0, 0.0});
  sys.add(ib1, ib1, {0.0, -omega * l1_});
  sys.add(ib1, ib2, {0.0, -omega * m_});
  addArowNode(sys, ib2, a2_, {1.0, 0.0});
  addArowNode(sys, ib2, b2_, {-1.0, 0.0});
  sys.add(ib2, ib1, {0.0, -omega * m_});
  sys.add(ib2, ib2, {0.0, -omega * l2_});
  addA(sys, a1_, ib1, {1.0, 0.0});
  addA(sys, b1_, ib1, {-1.0, 0.0});
  addA(sys, a2_, ib2, {1.0, 0.0});
  addA(sys, b2_, ib2, {-1.0, 0.0});
}

// ----------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(int n1, int n2, TimeFn vs)
    : n1_(n1), n2_(n2), vs_(std::move(vs)) {
  if (!vs_) throw std::invalid_argument("VoltageSource: empty source function");
}

void VoltageSource::stampStatic(StampSystem& sys, double) {
  const std::size_t ib = branch_offset_;
  // Branch row: v(n1) - v(n2) = vs(t).
  addArowNode(sys, ib, n1_, 1.0);
  addArowNode(sys, ib, n2_, -1.0);
  // KCL: branch current leaves n1, enters n2 (through the source).
  addA(sys, n1_, ib, +1.0);
  addA(sys, n2_, ib, -1.0);
}

void VoltageSource::stampRhs(Vector& b, double t_new, double) {
  b[branch_offset_] += vs_(t_new);
}

void VoltageSource::stampAc(AcStampSystem& sys, double, const Vector&) const {
  const std::size_t ib = branch_offset_;
  // Branch row: v(n1) - v(n2) = the phasor stampAcRhs adds (0 = AC short).
  addArowNode(sys, ib, n1_, {1.0, 0.0});
  addArowNode(sys, ib, n2_, {-1.0, 0.0});
  addA(sys, n1_, ib, {1.0, 0.0});
  addA(sys, n2_, ib, {-1.0, 0.0});
}

void VoltageSource::stampAcRhs(ComplexVector& b, double) const { b[branch_offset_] += ac_; }

// ----------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(int n1, int n2, TimeFn is)
    : n1_(n1), n2_(n2), is_(std::move(is)) {
  if (!is_) throw std::invalid_argument("CurrentSource: empty source function");
}

void CurrentSource::stampRhs(Vector& b, double t_new, double) {
  stampCurrentSource(b, n2_, n1_, is_(t_new));
}

void CurrentSource::stampAc(AcStampSystem&, double, const Vector&) const {}

void CurrentSource::stampAcRhs(ComplexVector& b, double) const {
  stampCurrentSource(b, n2_, n1_, ac_);
}

// ------------------------------------------------------------------- Diode

Diode::Diode(int anode, int cathode, const DiodeParams& p) : na_(anode), nc_(cathode), p_(p) {
  ports_ = {{anode, cathode}};
}

double Diode::evalCurrent(double v, const DiodeParams& p, double& g) {
  const double nvt = p.n * p.vt;
  const double v_lim = 40.0 * nvt;  // linearize above this to bound exp()
  double i;
  if (v <= v_lim) {
    const double e = std::exp(v / nvt);
    i = p.is * (e - 1.0);
    g = p.is * e / nvt;
  } else {
    const double e = std::exp(v_lim / nvt);
    const double g_lim = p.is * e / nvt;
    i = p.is * (e - 1.0) + g_lim * (v - v_lim);
    g = g_lim;
  }
  i += p.gmin * v;
  g += p.gmin;
  return i;
}

void Diode::evalPorts(const double* v, double, double* i, double* g) {
  i[0] = evalCurrent(v[0], p_, g[0]);
}

void Diode::stampAc(AcStampSystem& sys, double, const Vector& x_dc) const {
  // Small-signal: only the junction conductance at the DC point survives.
  const double v = dcNodeV(x_dc, na_) - dcNodeV(x_dc, nc_);
  double g = 0.0;
  (void)evalCurrent(v, p_, g);
  stampConductance(sys, na_, nc_, {g, 0.0});
}

// ------------------------------------------------------------------ Mosfet

Mosfet::Mosfet(int drain, int gate, int source, const MosfetParams& p)
    : nd_(drain), ng_(gate), ns_(source), p_(p) {
  ports_ = {{gate, source}, {drain, source}};
}

double Mosfet::evalIds(double vgs, double vds, const MosfetParams& p,
                       double& gm, double& gds) {
  // NMOS square-law with channel-length modulation; C1 continuous.
  const double vov = vgs - p.vth;
  double i = 0.0;
  gm = 0.0;
  gds = 0.0;
  if (vov > 0.0) {
    const double clm = 1.0 + p.lambda * vds;
    if (vds < vov) {
      // Triode.
      i = p.k * (vov * vds - 0.5 * vds * vds) * clm;
      gm = p.k * vds * clm;
      gds = p.k * (vov - vds) * clm + p.k * (vov * vds - 0.5 * vds * vds) * p.lambda;
    } else {
      // Saturation.
      i = 0.5 * p.k * vov * vov * clm;
      gm = p.k * vov * clm;
      gds = 0.5 * p.k * vov * vov * p.lambda;
    }
  }
  i += p.gmin * vds;
  gds += p.gmin;
  return i;
}

void Mosfet::evalPorts(const double* v, double, double* i, double* g) {
  // Work in the "effective NMOS" frame; PMOS flips all port voltages and
  // the current direction. Symmetric drain/source handling: if the
  // effective vds is negative, the drain terminal is the effective source,
  // so vgs_eff = vg - vd = vgs - vds and vds_eff = -vds.
  const double sgn = (p_.type == MosfetParams::Type::kNmos) ? 1.0 : -1.0;
  const bool swapped = sgn * v[1] < 0.0;
  const double vgs = sgn * (swapped ? v[0] - v[1] : v[0]);
  const double vds = swapped ? -sgn * v[1] : sgn * v[1];
  double gm = 0.0, gds = 0.0;
  const double ids = evalIds(vgs, vds, p_, gm, gds);

  // No gate current. The drain-to-source current is sgn * ids, negated
  // when swapped; mapped back through sgn (which the conductances see
  // twice, voltage map and current map) its partial derivatives are
  // (gm, gds), or (-gm, gm + gds) when swapped.
  i[0] = 0.0;
  g[0] = 0.0;
  g[1] = 0.0;
  i[1] = swapped ? -sgn * ids : sgn * ids;
  g[2] = swapped ? -gm : gm;
  g[3] = swapped ? gm + gds : gds;
}

void Mosfet::stampAc(AcStampSystem& sys, double, const Vector& x_dc) const {
  // Same effective-NMOS frame as evalPorts, but only the small-signal
  // conductances survive (no residual source at AC).
  const double sgn = (p_.type == MosfetParams::Type::kNmos) ? 1.0 : -1.0;
  int d = nd_, s = ns_;
  double vds = sgn * (dcNodeV(x_dc, d) - dcNodeV(x_dc, s));
  if (vds < 0.0) {
    std::swap(d, s);
    vds = -vds;
  }
  const double vgs = sgn * (dcNodeV(x_dc, ng_) - dcNodeV(x_dc, s));

  double gm = 0.0, gds = 0.0;
  (void)evalIds(vgs, vds, p_, gm, gds);

  stampConductance(sys, d, s, {gds, 0.0});
  addAnode(sys, d, ng_, {gm, 0.0});
  addAnode(sys, d, s, {-gm, 0.0});
  addAnode(sys, s, ng_, {-gm, 0.0});
  addAnode(sys, s, s, {gm, 0.0});
}

// --------------------------------------------------------------- IdealLine

IdealLine::IdealLine(int p1p, int p1m, int p2p, int p2m, double zc, double td)
    : p1p_(p1p), p1m_(p1m), p2p_(p2p), p2m_(p2m), zc_(zc), td_(td) {
  if (zc <= 0.0) throw std::invalid_argument("IdealLine: Zc must be > 0");
  if (td <= 0.0) throw std::invalid_argument("IdealLine: Td must be > 0");
}

void IdealLine::begin(double) {
  w1_.clear();
  w2_.clear();
}

double IdealLine::history(const std::deque<Sample>& h, double t) const {
  // Before the first recorded sample the line is at rest: w = 0.
  if (h.empty() || t < h.front().t) return 0.0;
  if (t >= h.back().t) return h.back().w;
  // Linear search from the back: t is always within one delay of the end.
  for (std::size_t k = h.size() - 1; k > 0; --k) {
    if (h[k - 1].t <= t) {
      const Sample& a = h[k - 1];
      const Sample& b = h[k];
      const double frac = (b.t > a.t) ? (t - a.t) / (b.t - a.t) : 1.0;
      return a.w + (b.w - a.w) * frac;
    }
  }
  return h.front().w;
}

void IdealLine::beginStep(double t_new, double) {
  v1h_ = history(w2_, t_new - td_);
  v2h_ = history(w1_, t_new - td_);
}

void IdealLine::stampStatic(StampSystem& sys, double) {
  const std::size_t i1 = branch_offset_;
  const std::size_t i2 = branch_offset_ + 1;
  // Port 1 characteristic: (v1p - v1m) - Zc i1 = v1h.
  addArowNode(sys, i1, p1p_, 1.0);
  addArowNode(sys, i1, p1m_, -1.0);
  sys.add(i1, i1, -zc_);
  // Port 2 characteristic.
  addArowNode(sys, i2, p2p_, 1.0);
  addArowNode(sys, i2, p2m_, -1.0);
  sys.add(i2, i2, -zc_);
  // KCL: i1 flows from p1p into the line, returns at p1m.
  addA(sys, p1p_, i1, +1.0);
  addA(sys, p1m_, i1, -1.0);
  addA(sys, p2p_, i2, +1.0);
  addA(sys, p2m_, i2, -1.0);
}

void IdealLine::stampRhs(Vector& b, double, double) {
  b[branch_offset_] += v1h_;
  b[branch_offset_ + 1] += v2h_;
}

void IdealLine::stampAc(AcStampSystem& sys, double omega, const Vector&) const {
  // Exact frequency-domain Branin equations: the transient history term
  // v1h = w2(t - Td) becomes e^{-j omega Td} (V2 + Zc I2), so
  //   (V1 - Zc I1) - e (V2 + Zc I2) = 0  and symmetrically for port 2.
  // Note the matrix is NOT of the G + j*omega*B form here — this is why
  // the AC engine re-stamps values at every frequency point.
  const std::size_t i1 = branch_offset_;
  const std::size_t i2 = branch_offset_ + 1;
  const std::complex<double> e = std::exp(std::complex<double>(0.0, -omega * td_));
  addArowNode(sys, i1, p1p_, {1.0, 0.0});
  addArowNode(sys, i1, p1m_, {-1.0, 0.0});
  sys.add(i1, i1, {-zc_, 0.0});
  addArowNode(sys, i1, p2p_, -e);
  addArowNode(sys, i1, p2m_, e);
  sys.add(i1, i2, -e * zc_);
  addArowNode(sys, i2, p2p_, {1.0, 0.0});
  addArowNode(sys, i2, p2m_, {-1.0, 0.0});
  sys.add(i2, i2, {-zc_, 0.0});
  addArowNode(sys, i2, p1p_, -e);
  addArowNode(sys, i2, p1m_, e);
  sys.add(i2, i1, -e * zc_);
  addA(sys, p1p_, i1, {1.0, 0.0});
  addA(sys, p1m_, i1, {-1.0, 0.0});
  addA(sys, p2p_, i2, {1.0, 0.0});
  addA(sys, p2m_, i2, {-1.0, 0.0});
}

void IdealLine::endStep(const Vector& x, double t_new, double) {
  const double v1 = nodeV(x, p1p_) - nodeV(x, p1m_);
  const double v2 = nodeV(x, p2p_) - nodeV(x, p2m_);
  const double i1 = x[branch_offset_];
  const double i2 = x[branch_offset_ + 1];
  w1_.push_back({t_new, v1 + zc_ * i1});
  w2_.push_back({t_new, v2 + zc_ * i2});
  // Prune history older than one delay plus slack.
  const double cutoff = t_new - 2.0 * td_;
  while (w1_.size() > 2 && w1_[1].t < cutoff) w1_.pop_front();
  while (w2_.size() > 2 && w2_[1].t < cutoff) w2_.pop_front();
}

// ---------------------------------------------------------- BehavioralPort

BehavioralPort::BehavioralPort(int n1, int n2, PortModelPtr model)
    : n1_(n1), n2_(n2), model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("BehavioralPort: null model");
  ports_ = {{n1, n2}};
}

void BehavioralPort::begin(double dt) { model_->prepare(dt); }

void BehavioralPort::evalPorts(const double* v, double t_new, double* i, double* g) {
  i[0] = model_->current(v[0], t_new, g[0]);
}

void BehavioralPort::endStep(const Vector& x, double t_new, double) {
  model_->commit(nodeV(x, n1_) - nodeV(x, n2_), t_new);
}

}  // namespace fdtdmm
