#include "emc/field_source.h"

#include <stdexcept>

namespace fdtdmm {

void AgrawalSources::addTerms(std::vector<Term>& terms, const PlaneWave& wave,
                              Axis comp, double x, double y, double z,
                              double z_ground, double scale,
                              bool reflect) const {
  const double direct = scale * wave.amplitude() * wave.polarization(comp);
  if (direct != 0.0) terms.push_back({direct, wave.delay(x, y, z)});
  if (!reflect) return;
  // Image wave: evaluate the original wave at the z-mirrored point; the
  // tangential (x, y) components flip sign, the normal (z) one does not.
  const double sign = (comp == Axis::kZ) ? 1.0 : -1.0;
  const double image = sign * direct;
  if (image != 0.0)
    terms.push_back({image, wave.delay(x, y, 2.0 * z_ground - z)});
}

AgrawalSources::AgrawalSources(const PlaneWave& wave,
                               const TraceGeometry& geom,
                               std::size_t segments,
                               const AgrawalOptions& opt)
    : pulse_(wave.pulse()) {
  validateTraceGeometry(geom);
  if (segments == 0)
    throw std::invalid_argument("AgrawalSources: need >= 1 segment");
  if (opt.riser_quadrature == 0)
    throw std::invalid_argument("AgrawalSources: riser_quadrature must be > 0");

  const double length = traceLength(geom);
  const double ds = length / static_cast<double>(segments);

  // Per-segment series EMF: E_tan at the segment midpoint, times ds.
  per_segment_.resize(segments);
  for (std::size_t s = 0; s < segments; ++s) {
    const TraceSample mid =
        sampleTrace(geom, (static_cast<double>(s) + 0.5) * ds);
    addTerms(per_segment_[s], wave, Axis::kX, mid.x, mid.y, mid.z,
             geom.z_ground, ds * mid.ux, opt.ground_reflection);
    addTerms(per_segment_[s], wave, Axis::kY, mid.x, mid.y, mid.z,
             geom.z_ground, ds * mid.uy, opt.ground_reflection);
  }

  // End risers: Vi = -int_{z_ground}^{z_ground+h} Ez dz by the trapezoid
  // rule with riser_quadrature intervals.
  const auto buildRiser = [&](std::vector<Term>& riser, double s_end) {
    const TraceSample end = sampleTrace(geom, s_end);
    const std::size_t q = opt.riser_quadrature;
    const double dzq = geom.height / static_cast<double>(q);
    for (std::size_t k = 0; k <= q; ++k) {
      const double w = (k == 0 || k == q) ? 0.5 * dzq : dzq;
      const double z = geom.z_ground + static_cast<double>(k) * dzq;
      addTerms(riser, wave, Axis::kZ, end.x, end.y, z, geom.z_ground, -w,
               opt.ground_reflection);
    }
  };
  buildRiser(near_riser_, 0.0);
  buildRiser(far_riser_, length);
}

}  // namespace fdtdmm
