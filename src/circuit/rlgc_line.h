#pragma once
/// \file rlgc_line.h
/// Lossy distributed transmission line as a segmented RLGC ladder for the
/// MNA engine. The paper's ideal-line engines (i)/(ii) assume lossless
/// interconnect; this builder extends the circuit substrate to lossy
/// lines (copper/dielectric loss studies) with a controllable number of
/// segments. For r = g = 0 and enough segments it converges to the
/// Branin ideal line.
///
/// Every element of the ladder (R, L, C) stamps its MNA matrix entries
/// statically, so a transient run over an RLGC line — however many
/// segments — performs a single LU factorization (see transient.h), and
/// its RCM-ordered band stays a few diagonals wide at any length.

#include "circuit/circuit.h"

namespace fdtdmm {

/// Per-unit-length parameters and discretization of an RLGC line.
struct RlgcParams {
  double r = 0.0;      ///< series resistance [ohm/m]
  double l = 2.5e-7;   ///< series inductance [H/m]
  double g = 0.0;      ///< shunt conductance [S/m]
  double c = 1e-10;    ///< shunt capacitance [F/m]
  double length = 0.1; ///< physical length [m]
  std::size_t segments = 32;  ///< LC ladder sections
};

/// Derived quantities.
double rlgcCharacteristicImpedance(const RlgcParams& p);  ///< sqrt(L'/C') [ohm]
double rlgcDelay(const RlgcParams& p);                    ///< length*sqrt(L'C') [s]

/// Builds the ladder between (n1, ref1) and (n2, ref2). Every segment is a
/// series R/2-L-R/2 branch and a shunt C (+ optional G) at its output node.
/// \throws std::invalid_argument on non-positive l/c/length or 0 segments.
void buildRlgcLine(Circuit& circuit, int n1, int ref1, int n2, int ref2,
                   const RlgcParams& p);

/// As buildRlgcLine, but also returns the segment-output nodes (the nodes
/// carrying the shunt elements), near end first; the last entry is n2.
/// Coupled-line builders attach mutual elements to these.
std::vector<int> buildRlgcLineSegments(Circuit& circuit, int n1, int ref1,
                                       int n2, int ref2, const RlgcParams& p);

/// As buildRlgcLineSegments, with a per-segment series EMF embedded in each
/// segment's inductor (oriented so a positive EMF raises the potential
/// toward n2). This is the Taylor/Agrawal distributed-source form of
/// incident-field coupling: `segment_emf[s]` is the induced series voltage
/// of segment s in volts (field integrated over the segment length). EMFs
/// enter only the RHS, so the one-factorization guarantee of linear runs is
/// preserved.
/// \throws std::invalid_argument if segment_emf is non-empty and its size
///         differs from p.segments, or any entry is empty.
std::vector<int> buildRlgcLineSegments(Circuit& circuit, int n1, int ref1,
                                       int n2, int ref2, const RlgcParams& p,
                                       const std::vector<TimeFn>& segment_emf);

/// One series R-parallel-L branch per unit length, synthesized from a
/// skin-effect rational fit (freq/rational_fit.h): below its corner
/// frequency R/L the branch is an inductive short, above it the current is
/// forced through R — the resistance "steps on", which is how a chain of
/// these makes the ladder's series resistance rise like sqrt(f).
struct SeriesRlBranch {
  double r = 0.0;  ///< branch resistance [ohm/m]
  double l = 0.0;  ///< branch inductance [H/m]
};

/// As buildRlgcLineSegments, with `skin_branches` chained in series with
/// each segment's inductor (each branch's R and L scaled by the segment
/// length; entries with r == 0 or l == 0 are degenerate shorts and are
/// skipped). The caller keeps the line's low-frequency inductance budget:
/// the branches add skinFitInductance() below their corners, so reduce
/// p.l by that amount before calling (p.l must stay > 0).
/// All branch values must be >= 0.
std::vector<int> buildRlgcLineSegments(Circuit& circuit, int n1, int ref1,
                                       int n2, int ref2, const RlgcParams& p,
                                       const std::vector<SeriesRlBranch>& skin_branches);

/// Two identical RLGC ladders with segment-wise capacitive and inductive
/// coupling: the crosstalk substrate of the "crosstalk" scenario family.
/// `line.c` is each line's shunt capacitance to ground; `cm` adds a
/// line-to-line capacitance per unit length between corresponding segment
/// nodes, and `lm` a mutual inductance per unit length between
/// corresponding series inductors (CoupledInductors element) — together
/// they capture the capacitive and inductive components of near-/far-end
/// crosstalk.
struct CoupledRlgcParams {
  RlgcParams line;  ///< per-line self parameters (both lines identical)
  double cm = 0.0;  ///< line-to-line mutual capacitance [F/m], >= 0
  double lm = 0.0;  ///< line-to-line mutual inductance [H/m], in [0, line.l)
};

/// Builds the aggressor ladder between (a1, a2) and the victim ladder
/// between (v1, v2), both referenced to ground, with cm/lm coupling.
/// \throws std::invalid_argument on invalid line parameters, cm < 0, or lm
///         outside [0, line.l).
void buildCoupledRlgcLines(Circuit& circuit, int a1, int a2, int v1, int v2,
                           const CoupledRlgcParams& p);

}  // namespace fdtdmm
