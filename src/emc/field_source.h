#pragma once
/// \file field_source.h
/// Taylor/Agrawal incident-field sources for the circuit-path EMC
/// subsystem. In Agrawal's scattered-voltage formulation of the
/// field-excited telegrapher equations,
///
///   dVs/ds + R'I + L' dI/dt = E_tan(s, h, t)      (wire height h)
///   dI/ds  + G'Vs + C' dVs/dt = 0
///
/// the line carries the *scattered* voltage Vs, forced by the tangential
/// incident E-field along the wire, and the terminal networks see the
/// *total* voltage V = Vs + Vi, where Vi(s) = -int_0^h Ez(s, z) dz is the
/// incident ("riser") voltage between ground plane and wire at that
/// position. Discretized onto the segmented RLGC ladder this becomes
///   - one series EMF per segment: E_tan at the segment midpoint times the
///     segment length (embedded in the segment inductor, RHS-only), and
///   - one lumped series voltage source per line end carrying Vi(end).
///
/// AgrawalSources precomputes, from the analytic PlaneWave and the trace
/// geometry, a flat list of (coefficient, delay) terms per source — each
/// evaluation is then a handful of pulse-shape lookups g(t - tau), exactly
/// like the FDTD solver's precomputed incident tables; a term whose
/// retarded time lies outside the pulse's support (where g is exactly 0)
/// is skipped without a lookup. When the trace runs
/// over a (modelled-infinite) PEC ground plane, the wave's plane reflection
/// is added by image theory: the image wave is the original evaluated at
/// the z-mirrored point with tangential components negated and the normal
/// component kept, which cancels tangential E on the plane and doubles the
/// normal component.

#include <cstddef>
#include <vector>

#include "emc/trace_geometry.h"
#include "fdtd/incident.h"

namespace fdtdmm {

struct AgrawalOptions {
  /// Trapezoid intervals for the vertical int_0^h Ez dz riser integrals.
  std::size_t riser_quadrature = 8;
  /// Add the PEC ground-plane reflection of the incident wave (image
  /// theory). Off = the wave is taken as the total excitation field, which
  /// is the right setting for validation against free-space closed forms.
  bool ground_reflection = true;
};

/// Precomputed per-segment/per-end source evaluators for one (wave, trace,
/// discretization) triple. Immutable and thread-safe after construction;
/// share one instance across the ladder's TimeFn closures.
class AgrawalSources {
 public:
  /// \throws std::invalid_argument on invalid geometry, zero segments, or
  ///         zero riser quadrature.
  AgrawalSources(const PlaneWave& wave, const TraceGeometry& geom,
                 std::size_t segments, const AgrawalOptions& opt = {});

  std::size_t segments() const { return per_segment_.size(); }

  /// Distributed series EMF of ladder segment `seg` [V]: tangential
  /// incident E at the segment midpoint (wire height) times the segment
  /// length, oriented so positive EMF raises the far-side potential.
  double segmentEmf(std::size_t seg, double t) const {
    return eval(per_segment_[seg], t);
  }

  /// Incident riser voltage Vi = -int_0^h Ez dz at the near / far end [V].
  double incidentVoltageNear(double t) const { return eval(near_riser_, t); }
  double incidentVoltageFar(double t) const { return eval(far_riser_, t); }

 private:
  struct Term {
    double coef;  ///< field coefficient [V] (lengths folded in)
    double tau;   ///< propagation delay at the evaluation point [s]
  };

  /// Sums the terms in their stored order (part of the bit-identical
  /// contract); a skipped term would add exactly ±0 to v.
  double eval(const std::vector<Term>& terms, double t) const {
    double v = 0.0;
    for (const Term& term : terms) {
      const double xi = t - term.tau;
      if (xi < pulse_.supportBegin() || xi > pulse_.supportEnd()) continue;
      v += term.coef * pulse_.g(xi);
    }
    return v;
  }

  /// Appends the direct (and, with ground_reflection, image) terms of one
  /// field component sample at (x, y, z), scaled by `scale`.
  void addTerms(std::vector<Term>& terms, const PlaneWave& wave, Axis comp,
                double x, double y, double z, double z_ground, double scale,
                bool reflect) const;

  GaussianPulse pulse_;
  std::vector<std::vector<Term>> per_segment_;
  std::vector<Term> near_riser_;
  std::vector<Term> far_riser_;
};

}  // namespace fdtdmm
