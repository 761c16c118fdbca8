// Seeded random-netlist differential suite: the sparse transient session
// (runTransient) against the dense full-restamp oracle of
// tests/dense_oracle.h on randomly generated R/L/C/K/V/I netlists — with
// and without diodes — and on random single and coupled RLGC ladders.
// Every node voltage must agree to kSparseTol at every step, and every
// netlist must run on exactly one LU factorization: a linear one in one
// solve per time point, a diode one through its port reduction. The diode
// netlists also stay within 1e-9 V of the refactoring reference
// (oracle::runBandedReference), in as many Newton iterations wherever the
// reference's clamp never engages. The linear netlists also go through the
// AC engine (AcSession) against the dense AC reference, and the linear and
// diode netlists through dcOperatingPoint against the dense DC reference.
// Each case is a pure function of its seed (math/rng.h), so a failure
// names a reproducible netlist.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/rlgc_line.h"
#include "circuit/transient.h"
#include "dense_oracle.h"
#include "freq/ac_engine.h"
#include "math/low_rank_update.h"
#include "math/rng.h"

namespace fdtdmm {
namespace {

using oracle::kSparseTol;
using oracle::maxAbsDiff;

constexpr double kPi = 3.14159265358979323846;

/// A random smooth excitation: a sine burst or a tanh edge, scaled to
/// `amp` (volts or amperes).
TimeFn randomSource(Rng& rng, double amp) {
  const double a = amp * rng.uniform(0.2, 1.0) * (rng.below(2) ? 1.0 : -1.0);
  if (rng.below(2)) {
    const double f = rng.uniform(2e8, 2e9);
    const double phase = rng.uniform(0.0, 2.0 * kPi);
    return [a, f, phase](double t) { return a * std::sin(2.0 * kPi * f * t + phase); };
  }
  const double t0 = rng.uniform(0.05e-9, 0.5e-9);
  const double tr = rng.uniform(20e-12, 200e-12);
  return [a, t0, tr](double t) { return 0.5 * a * (1.0 + std::tanh((t - t0) / tr)); };
}

/// Log-uniform draw in [lo, hi).
double logUniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/// A pair of distinct nodes in [0, n] (0 = ground allowed for one end).
std::pair<int, int> randomPair(Rng& rng, int n) {
  const int a = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  int b = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  if (b >= a) ++b;  // b in [0, n] \ {a}
  return {a, b};
}

/// One random case: the netlist goes into `c`, the probes (every node
/// voltage) and the time grid into the returned options/probes. The
/// construction is a pure function of `seed`, so calling it twice builds
/// two identical, independent circuits.
struct Case {
  TransientOptions opt;
  std::vector<NodeProbe> probes;
};

/// What buildRandomNetlist adds to its R/L/C/K/V/I netlist.
enum class Junctions {
  kNone,
  kSeries,  ///< one or two diodes, each behind a series resistor
  kBare,    ///< one diode straight across the first voltage source
};

/// R/L/C/K/V/I netlist plus `junctions`. A resistor spanning tree gives
/// every node a DC path to ground, and voltage sources sit on distinct
/// nodes to ground, so no source loop or floating node can make the MNA
/// matrix singular. A kBare netlist is the kNone netlist of its seed plus
/// the junction.
Case buildRandomNetlist(Circuit& c, std::uint64_t seed, Junctions junctions) {
  const bool diodes = junctions == Junctions::kSeries;
  Rng rng(splitStream(seed, fnv1a64("random-netlist"), diodes ? 1 : 0).next());
  const int n = 3 + static_cast<int>(rng.below(6));
  for (int k = 0; k < n; ++k) c.addNode();

  for (int k = 1; k <= n; ++k)
    c.addResistor(k, static_cast<int>(rng.below(static_cast<std::uint64_t>(k))),
                  logUniform(rng, 10.0, 1e3));
  for (int k = static_cast<int>(rng.below(static_cast<std::uint64_t>(n))); k > 0; --k) {
    const auto [a, b] = randomPair(rng, n);
    c.addResistor(a, b, logUniform(rng, 10.0, 1e4));
  }
  for (int k = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n))); k > 0; --k) {
    const auto [a, b] = randomPair(rng, n);
    c.addCapacitor(a, b, logUniform(rng, 0.1e-12, 5e-12));
  }
  for (int k = static_cast<int>(rng.below(4)); k > 0; --k) {
    const auto [a, b] = randomPair(rng, n);
    c.addInductor(a, b, logUniform(rng, 0.5e-9, 10e-9));
  }
  if (rng.below(2)) {
    const auto [a1, b1] = randomPair(rng, n);
    const auto [a2, b2] = randomPair(rng, n);
    const double l1 = logUniform(rng, 1e-9, 10e-9);
    const double l2 = logUniform(rng, 1e-9, 10e-9);
    c.addCoupledInductors(a1, b1, a2, b2, l1, l2, rng.uniform(-0.8, 0.8) * std::sqrt(l1 * l2));
  }
  // Voltage sources on distinct nodes (a Fisher-Yates prefix of 1..n).
  std::vector<int> nodes;
  for (int k = 1; k <= n; ++k) nodes.push_back(k);
  const int n_v = 1 + static_cast<int>(rng.below(2));
  for (int k = 0; k < n_v; ++k) {
    const auto j = static_cast<std::size_t>(k) +
                   rng.below(static_cast<std::uint64_t>(n - k));
    std::swap(nodes[static_cast<std::size_t>(k)], nodes[j]);
    c.addVoltageSource(nodes[static_cast<std::size_t>(k)], Circuit::kGround,
                       randomSource(rng, 2.0));
  }
  for (int k = static_cast<int>(rng.below(3)); k > 0; --k) {
    const auto [a, b] = randomPair(rng, n);
    c.addCurrentSource(a, b, randomSource(rng, 20e-3));
  }
  if (diodes) {
    // Each diode sits behind a series resistor, so these currents stay at
    // milliamperes and the dense oracle's global clamp (one unit per
    // iteration, branch currents included) converges on them. A bare
    // junction across a source (kBare) conducts kiloamperes instead.
    for (int k = 1 + static_cast<int>(rng.below(2)); k > 0; --k) {
      const auto [a, b] = randomPair(rng, n);
      const int junction = c.addNode();
      if (rng.below(2)) {
        c.addDiode(a, junction);
      } else {
        c.addDiode(junction, a);
      }
      c.addResistor(junction, b, logUniform(rng, 10.0, 1e3));
    }
  }
  if (junctions == Junctions::kBare) {
    if (seed % 2 != 0) {
      c.addDiode(nodes[0], Circuit::kGround);
    } else {
      c.addDiode(Circuit::kGround, nodes[0]);
    }
  }

  Case out;
  out.opt.dt = rng.uniform(2e-12, 10e-12);
  out.opt.t_stop = 1e-9;
  for (int k = 1; k <= c.nodeCount(); ++k)
    out.probes.push_back({"v" + std::to_string(k), k, 0});
  return out;
}

/// A random RLGC ladder (optionally a coupled pair, optionally with
/// per-segment field EMFs, optionally with a far-end diode clamp) between
/// a Thevenin source and a resistive/capacitive load. Sets `nonlinear`
/// when the clamp is present.
Case buildRandomLadder(Circuit& c, std::uint64_t seed, bool& nonlinear) {
  Rng rng(splitStream(seed, fnv1a64("random-ladder"), 0).next());
  RlgcParams p;
  p.r = rng.below(2) ? rng.uniform(0.0, 50.0) : 0.0;
  p.g = rng.below(3) == 0 ? rng.uniform(0.0, 1e-3) : 0.0;
  p.l = rng.uniform(1e-7, 5e-7);
  p.c = rng.uniform(0.5e-10, 2e-10);
  p.length = rng.uniform(0.02, 0.2);
  const bool coupled = rng.below(2) == 1;
  p.segments = 2 + rng.below(coupled ? 11 : 23);

  const int src = c.addNode();
  const int near = c.addNode();
  const int far = c.addNode();
  c.addVoltageSource(src, Circuit::kGround, randomSource(rng, 1.8));
  c.addResistor(src, near, rng.uniform(20.0, 100.0));
  Case out;
  out.probes = {{"near", near, 0}, {"far", far, 0}};
  if (coupled) {
    const int vic_near = c.addNode();
    const int vic_far = c.addNode();
    CoupledRlgcParams cp;
    cp.line = p;
    cp.cm = rng.uniform(0.0, 0.3) * p.c;
    cp.lm = rng.uniform(0.0, 0.3) * p.l;
    buildCoupledRlgcLines(c, near, far, vic_near, vic_far, cp);
    c.addResistor(vic_near, Circuit::kGround, rng.uniform(20.0, 200.0));
    c.addResistor(vic_far, Circuit::kGround, rng.uniform(20.0, 200.0));
    out.probes.push_back({"vic_near", vic_near, 0});
    out.probes.push_back({"vic_far", vic_far, 0});
  } else if (rng.below(2)) {
    std::vector<TimeFn> emf;
    for (std::size_t s = 0; s < p.segments; ++s) emf.push_back(randomSource(rng, 0.05));
    buildRlgcLineSegments(c, near, Circuit::kGround, far, Circuit::kGround, p, emf);
  } else {
    buildRlgcLine(c, near, Circuit::kGround, far, Circuit::kGround, p);
  }
  c.addResistor(far, Circuit::kGround, logUniform(rng, 20.0, 500.0));
  if (rng.below(2)) c.addCapacitor(far, Circuit::kGround, logUniform(rng, 0.1e-12, 2e-12));
  nonlinear = rng.below(4) == 0;
  if (nonlinear) {  // clamp diode behind a series resistor, as above
    const int junction = c.addNode();
    c.addDiode(far, junction);
    c.addResistor(junction, Circuit::kGround, logUniform(rng, 5.0, 100.0));
  }

  out.opt.dt = rng.uniform(2e-12, 10e-12);
  out.opt.t_stop = 1.5e-9;
  return out;
}

void expectAgreement(const TransientResult& sp, const TransientResult& ref,
                     const std::string& what) {
  ASSERT_TRUE(ref.converged) << what;
  EXPECT_TRUE(sp.converged) << what;
  ASSERT_EQ(sp.steps, ref.steps) << what;
  for (const auto& [label, wave] : ref.probes)
    EXPECT_LE(maxAbsDiff(sp.at(label), wave), kSparseTol) << what << " probe " << label;
}

TEST(RandomNetlists, LinearRlcKviMatchesDenseOracleOnOneFactorization) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string what = "linear netlist seed " + std::to_string(seed);
    Circuit a, b;
    const Case sp_case = buildRandomNetlist(a, seed, Junctions::kNone);
    const Case ref_case = buildRandomNetlist(b, seed, Junctions::kNone);
    const TransientResult sp = runTransient(a, sp_case.opt, sp_case.probes);
    const TransientResult ref = oracle::runDenseReference(b, ref_case.opt, ref_case.probes);
    expectAgreement(sp, ref, what);
    EXPECT_EQ(sp.lu_factorizations, 1) << what;
    EXPECT_EQ(sp.max_newton_iterations, 1) << what;
  }
}

TEST(RandomNetlists, LinearRlcKviAcMatchesDenseOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string what = "linear netlist seed " + std::to_string(seed);
    Circuit c;
    buildRandomNetlist(c, seed, Junctions::kNone);
    // Seeded AC phasors on every source (un-phasored sources are dark).
    Rng rng(splitStream(seed, fnv1a64("random-netlist-ac"), 0).next());
    const auto phasor = [&rng] {
      return Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    };
    for (const auto& e : c.elements()) {
      if (auto* v = dynamic_cast<VoltageSource*>(e.get())) v->setAcValue(phasor());
      if (auto* i = dynamic_cast<CurrentSource*>(e.get())) i->setAcValue(20e-3 * phasor());
    }
    AcSession session(c, AcOptions{});
    for (int k = 0; k < 3; ++k) {
      const double f = logUniform(rng, 1e6, 1e10);
      const ComplexVector& x = session.solveAt(f);
      EXPECT_LE(oracle::relativeGap(x, oracle::acDenseReference(c, f)), 1e-9)
          << what << " f=" << f;
    }
  }
}

// True when two runs of the same netlist recorded bitwise the same
// waveforms in the same Newton iterations.
bool sameRun(const TransientResult& a, const TransientResult& b) {
  if (a.total_newton_iterations != b.total_newton_iterations) return false;
  for (const auto& [label, wave] : a.probes) {
    if (maxAbsDiff(wave, b.at(label)) != 0.0) return false;
  }
  return true;
}

TEST(RandomNetlists, DiodeNetlistsMatchDenseOracle) {
  int unclamped = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string what = "diode netlist seed " + std::to_string(seed);
    Circuit a, b, c, d;
    const Case sp_case = buildRandomNetlist(a, seed, Junctions::kSeries);
    const Case ref_case = buildRandomNetlist(b, seed, Junctions::kSeries);
    buildRandomNetlist(c, seed, Junctions::kSeries);
    buildRandomNetlist(d, seed, Junctions::kSeries);
    const TransientResult sp = runTransient(a, sp_case.opt, sp_case.probes);
    const TransientResult ref = oracle::runDenseReference(b, ref_case.opt, ref_case.probes);
    expectAgreement(sp, ref, what);
    // One or two diodes are one or two ports: every Newton iteration is a
    // port solve on the one base factorization.
    static_assert(2 <= kMaxUpdateRank, "the diode netlists fit the port reduction");
    EXPECT_EQ(sp.lu_factorizations, 1) << what;
    EXPECT_EQ(sp.low_rank_solves, sp.total_newton_iterations) << what;
    // Within 1e-9 V of the refactoring path; in as many Newton iterations
    // where the reference's global clamp never engages (its run with the
    // clamp off is bitwise the same).
    const TransientResult banded = oracle::runBandedReference(c, ref_case.opt, ref_case.probes);
    for (const auto& [label, wave] : banded.probes)
      EXPECT_LE(maxAbsDiff(sp.at(label), wave), 1e-9) << what << " probe " << label;
    TransientOptions no_clamp = ref_case.opt;
    no_clamp.max_delta_v = 0.0;
    if (sameRun(banded, oracle::runBandedReference(d, no_clamp, ref_case.probes))) {
      ++unclamped;
      EXPECT_EQ(sp.total_newton_iterations, banded.total_newton_iterations) << what;
    }
  }
  EXPECT_GT(unclamped, 20);
}

// A junction straight across a voltage source conducts up to about 1e5 A
// once the source passes its 1 V knee. Limiting acts on port voltages
// only, so the source's branch current is never walked an ampere at a
// time: every step converges on the one base factorization. The dense
// oracle's own clamp limits every unknown, branch currents included, so it
// runs with the clamp off.
TEST(RandomNetlists, BareJunctionAcrossASourceConverges) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string what = "bare junction netlist seed " + std::to_string(seed);
    Circuit a, b;
    const Case sp_case = buildRandomNetlist(a, seed, Junctions::kBare);
    Case ref_case = buildRandomNetlist(b, seed, Junctions::kBare);
    ref_case.opt.max_delta_v = 0.0;
    const TransientResult sp = runTransient(a, sp_case.opt, sp_case.probes);
    const TransientResult ref = oracle::runDenseReference(b, ref_case.opt, ref_case.probes);
    expectAgreement(sp, ref, what);
    EXPECT_EQ(sp.lu_factorizations, 1) << what;
    EXPECT_EQ(sp.low_rank_solves, sp.total_newton_iterations) << what;
  }
}

// dcOperatingPoint (CSR assembly, banded LU) against the dense DC Newton
// reference on the 40 netlists of one kind: both agree within 1e-9
// relative, or both throw. Returns how many converged.
int expectDcAgreement(bool diodes) {
  int converged = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string what =
        std::string(diodes ? "diode" : "linear") + " netlist seed " + std::to_string(seed);
    Circuit a, b;
    buildRandomNetlist(a, seed, diodes ? Junctions::kSeries : Junctions::kNone);
    buildRandomNetlist(b, seed, diodes ? Junctions::kSeries : Junctions::kNone);
    Vector x, ref;
    bool threw = false, ref_threw = false;
    try {
      x = dcOperatingPoint(a);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    try {
      ref = oracle::dcDenseReference(b);
    } catch (const std::runtime_error&) {
      ref_threw = true;
    }
    EXPECT_EQ(threw, ref_threw) << what;
    if (threw || ref_threw) continue;
    EXPECT_LE(oracle::relativeGap(x, ref), 1e-9) << what;
    ++converged;
  }
  return converged;
}

TEST(RandomNetlists, LinearDcOperatingPointMatchesDenseReference) {
  EXPECT_EQ(expectDcAgreement(false), 40);
}

TEST(RandomNetlists, DiodeDcOperatingPointMatchesDenseReference) {
  EXPECT_EQ(expectDcAgreement(true), 40);
}

TEST(RandomNetlists, RlgcLaddersMatchDenseOracle) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string what = "ladder seed " + std::to_string(seed);
    Circuit a, b;
    bool nonlinear = false;
    const Case sp_case = buildRandomLadder(a, seed, nonlinear);
    const Case ref_case = buildRandomLadder(b, seed, nonlinear);
    const TransientResult sp = runTransient(a, sp_case.opt, sp_case.probes);
    const TransientResult ref = oracle::runDenseReference(b, ref_case.opt, ref_case.probes);
    expectAgreement(sp, ref, what);
    if (!nonlinear) {
      EXPECT_EQ(sp.lu_factorizations, 1) << what;
    }
  }
}

}  // namespace
}  // namespace fdtdmm
