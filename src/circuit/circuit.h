#pragma once
/// \file circuit.h
/// Netlist container of the MNA engines.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/elements.h"

namespace fdtdmm {

/// A circuit: a set of nodes (0 = ground) and elements. Build the netlist
/// with the add* methods, then run it with runTransient or an AcSession.
///
/// The circuit names its own structure class as it is built: every add*
/// call folds its element kind and node indices into a 64-bit fingerprint
/// (structureClass()). Element values, source waveforms and port models
/// stay out, since no engine's pattern depends on them, so the corners of
/// a sweep that change only values share one class.
class Circuit {
 public:
  /// Ground node index.
  static constexpr int kGround = 0;

  /// Allocates a new node and returns its index (>= 1).
  int addNode();

  /// Number of non-ground nodes.
  int nodeCount() const { return node_count_; }

  // Element builders. All node arguments must be existing node indices
  // (0 = ground); violations throw std::invalid_argument.
  void addResistor(int n1, int n2, double r);
  void addCapacitor(int n1, int n2, double c, double v0 = 0.0);
  void addInductor(int n1, int n2, double l, double i0 = 0.0);
  /// Inductor with a series EMF e(t): v(n1) - v(n2) + e(t) = L di/dt (the
  /// EMF raises the n2-side potential). RHS-only excitation — see Inductor.
  void addSeriesEmfInductor(int n1, int n2, double l, TimeFn emf);
  /// Mutually coupled inductor pair (a1,b1) / (a2,b2); see CoupledInductors.
  void addCoupledInductors(int a1, int b1, int a2, int b2, double l1, double l2,
                           double m);
  /// Returns a handle usable to read the source branch current from the
  /// solution vector after assembly.
  VoltageSource* addVoltageSource(int n1, int n2, TimeFn vs);
  void addCurrentSource(int n1, int n2, TimeFn is);
  void addDiode(int anode, int cathode, const DiodeParams& p = {});
  void addMosfet(int drain, int gate, int source, const MosfetParams& p = {});
  void addIdealLine(int p1p, int p1m, int p2p, int p2m, double zc, double td);
  void addBehavioralPort(int n1, int n2, PortModelPtr model);

  /// Adds a custom element (takes ownership). Its stamps are unknown to
  /// the fingerprint, so the circuit leaves every structure class.
  void addElement(std::unique_ptr<Element> e);

  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }

  /// The structure class: the fingerprint of the add* calls so far, in
  /// order, with the node count folded in. Two circuits of equal class
  /// stamp the same patterns on every engine. Empty after addElement.
  std::optional<std::uint64_t> structureClass() const;

  /// Assigns branch offsets; returns the total number of unknowns
  /// (nodes + branches). Called by the simulator.
  std::size_t assignUnknowns();

 private:
  /// The element kinds the fingerprint tells apart (one per element
  /// class; the series-EMF inductor is an Inductor), plus the node count.
  enum class Kind : std::uint64_t {
    kNodeCount = 1,
    kResistor,
    kCapacitor,
    kInductor,
    kCoupledInductors,
    kVoltageSource,
    kCurrentSource,
    kDiode,
    kMosfet,
    kIdealLine,
    kBehavioralPort,
  };

  void checkNode(int n) const;
  /// Checks two nodes and folds them into the fingerprint under `kind`.
  void foldNodePair(Kind kind, int n1, int n2);

  int node_count_ = 0;
  std::uint64_t fingerprint_ = 0;
  bool shareable_ = true;  ///< no addElement yet
  std::vector<std::unique_ptr<Element>> elements_;
};

}  // namespace fdtdmm
