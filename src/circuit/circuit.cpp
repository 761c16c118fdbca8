#include "circuit/circuit.h"

#include <stdexcept>

#include "math/rng.h"

namespace fdtdmm {

namespace {

// Folds one word into a fingerprint: mix64 of (h xor word), offset by the
// kind's multiple of the golden ratio. mix64 is a bijection, so two folds
// from one h collide only if (h ^ w) - (h ^ w') = (k' - k) * golden ratio
// (mod 2^64): never for one kind and two words, and never for two kinds
// below 16 while node indices stay below 2^26, as the words then differ by
// less than 2^58 and each such multiple exceeds 2^59 in magnitude.
std::uint64_t fold(std::uint64_t h, std::uint64_t kind, std::uint64_t word) {
  return mix64((h ^ word) + kind * 0x9e3779b97f4a7c15ULL);
}

// Two node indices, 32 bits each, in one word.
std::uint64_t nodePair(int a, int b) {
  return std::uint64_t{static_cast<std::uint32_t>(a)} << 32 | static_cast<std::uint32_t>(b);
}

}  // namespace

int Circuit::addNode() { return ++node_count_; }

void Circuit::checkNode(int n) const {
  if (n < 0 || n > node_count_)
    throw std::invalid_argument("Circuit: node index out of range");
}

void Circuit::foldNodePair(Kind kind, int n1, int n2) {
  checkNode(n1);
  checkNode(n2);
  fingerprint_ = fold(fingerprint_, static_cast<std::uint64_t>(kind), nodePair(n1, n2));
}

void Circuit::addResistor(int n1, int n2, double r) {
  foldNodePair(Kind::kResistor, n1, n2);
  elements_.push_back(std::make_unique<Resistor>(n1, n2, r));
}

void Circuit::addCapacitor(int n1, int n2, double c, double v0) {
  foldNodePair(Kind::kCapacitor, n1, n2);
  elements_.push_back(std::make_unique<Capacitor>(n1, n2, c, v0));
}

void Circuit::addInductor(int n1, int n2, double l, double i0) {
  foldNodePair(Kind::kInductor, n1, n2);
  elements_.push_back(std::make_unique<Inductor>(n1, n2, l, i0));
}

void Circuit::addSeriesEmfInductor(int n1, int n2, double l, TimeFn emf) {
  foldNodePair(Kind::kInductor, n1, n2);
  elements_.push_back(std::make_unique<Inductor>(n1, n2, l, std::move(emf)));
}

void Circuit::addCoupledInductors(int a1, int b1, int a2, int b2, double l1,
                                  double l2, double m) {
  foldNodePair(Kind::kCoupledInductors, a1, b1);
  foldNodePair(Kind::kCoupledInductors, a2, b2);
  elements_.push_back(std::make_unique<CoupledInductors>(a1, b1, a2, b2, l1, l2, m));
}

VoltageSource* Circuit::addVoltageSource(int n1, int n2, TimeFn vs) {
  foldNodePair(Kind::kVoltageSource, n1, n2);
  auto src = std::make_unique<VoltageSource>(n1, n2, std::move(vs));
  VoltageSource* handle = src.get();
  elements_.push_back(std::move(src));
  return handle;
}

void Circuit::addCurrentSource(int n1, int n2, TimeFn is) {
  foldNodePair(Kind::kCurrentSource, n1, n2);
  elements_.push_back(std::make_unique<CurrentSource>(n1, n2, std::move(is)));
}

void Circuit::addDiode(int anode, int cathode, const DiodeParams& p) {
  foldNodePair(Kind::kDiode, anode, cathode);
  elements_.push_back(std::make_unique<Diode>(anode, cathode, p));
}

void Circuit::addMosfet(int drain, int gate, int source, const MosfetParams& p) {
  foldNodePair(Kind::kMosfet, drain, gate);
  foldNodePair(Kind::kMosfet, source, kGround);
  elements_.push_back(std::make_unique<Mosfet>(drain, gate, source, p));
}

void Circuit::addIdealLine(int p1p, int p1m, int p2p, int p2m, double zc, double td) {
  foldNodePair(Kind::kIdealLine, p1p, p1m);
  foldNodePair(Kind::kIdealLine, p2p, p2m);
  elements_.push_back(std::make_unique<IdealLine>(p1p, p1m, p2p, p2m, zc, td));
}

void Circuit::addBehavioralPort(int n1, int n2, PortModelPtr model) {
  foldNodePair(Kind::kBehavioralPort, n1, n2);
  elements_.push_back(std::make_unique<BehavioralPort>(n1, n2, std::move(model)));
}

void Circuit::addElement(std::unique_ptr<Element> e) {
  if (!e) throw std::invalid_argument("Circuit::addElement: null element");
  shareable_ = false;
  elements_.push_back(std::move(e));
}

std::optional<std::uint64_t> Circuit::structureClass() const {
  if (!shareable_) return std::nullopt;
  return fold(fingerprint_, static_cast<std::uint64_t>(Kind::kNodeCount),
              static_cast<std::uint64_t>(node_count_));
}

std::size_t Circuit::assignUnknowns() {
  std::size_t next = static_cast<std::size_t>(node_count_);
  for (auto& e : elements_) {
    e->setBranchOffset(next);
    next += static_cast<std::size_t>(e->branchCount());
  }
  return next;
}

}  // namespace fdtdmm
