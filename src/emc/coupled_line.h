#pragma once
/// \file coupled_line.h
/// Circuit realization of the Agrawal field-coupled line (see
/// field_source.h): the scattered-voltage RLGC ladder with per-segment
/// series EMFs embedded in its inductors, plus one lumped series voltage
/// source per end carrying the incident riser voltage, so the terminal
/// nodes presented to the driver/termination carry the *total* voltage.
/// All field excitation enters through stampRhs terms only — a linear
/// field-coupled run performs exactly one LU factorization and one
/// substitution per time point.

#include <memory>

#include "circuit/rlgc_line.h"
#include "emc/field_source.h"

namespace fdtdmm {

/// Builds the field-coupled ladder between terminal nodes (t_near, t_far),
/// both referenced to ground. `src->segments()` must equal `p.segments`.
/// \throws std::invalid_argument on a null source, a segment-count
///         mismatch, or invalid line parameters.
void buildFieldCoupledRlgcLine(Circuit& circuit, int t_near, int t_far,
                               const RlgcParams& p,
                               std::shared_ptr<const AgrawalSources> src);

}  // namespace fdtdmm
