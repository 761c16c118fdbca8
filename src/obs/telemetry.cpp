#include "obs/telemetry.h"

#include <algorithm>

namespace fdtdmm {
namespace obs {

void StructureSize::mergeMax(const StructureSize& o) {
  unknowns = std::max(unknowns, o.unknowns);
  nonzeros = std::max(nonzeros, o.nonzeros);
  kl = std::max(kl, o.kl);
  ku = std::max(ku, o.ku);
}

void RunTelemetry::merge(const RunTelemetry& o) {
  phases += o.phases;
  lu_factorizations += o.lu_factorizations;
  newton_iterations += o.newton_iterations;
  max_newton_iterations = std::max(max_newton_iterations, o.max_newton_iterations);
  steps += o.steps;
  transient_runs += o.transient_runs;
  pattern_realignments += o.pattern_realignments;
  shared_symbolic_builds += o.shared_symbolic_builds;
  shared_symbolic_reuses += o.shared_symbolic_reuses;
  rcm_orderings += o.rcm_orderings;
  structure.mergeMax(o.structure);
  wall_seconds += o.wall_seconds;
  health.merge(o.health);
}

}  // namespace obs
}  // namespace fdtdmm
