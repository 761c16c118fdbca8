// Unit tests of the fixed-port reduction (math/low_rank_update.h): on
// seeded random banded bases with k random ports it must agree with a
// dense LU of A0 + P G P^T, expose the Thevenin view the transient Newton
// runs on, decline port systems that would cancel, and refuse more ports
// than kMaxUpdateRank.
#include "math/low_rank_update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/linear_solve.h"
#include "math/rng.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {
namespace {

constexpr std::size_t kN = 24;

// A random diagonally dominant base with lower/upper bandwidth 2.
SparseMatrix randomBase(Rng& rng) {
  SparseMatrix a(kN);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t c = r >= 2 ? r - 2 : 0; c <= std::min(kN - 1, r + 2); ++c)
      a.add(r, c, r == c ? rng.uniform(4.0, 8.0) : rng.uniform(-1.0, 1.0));
  }
  a.finalize();
  return a;
}

Vector randomVector(Rng& rng) {
  Vector b(kN);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

// Dense A0 + P G P^T for the k x k port conductance g (row-major).
Matrix withPorts(const SparseMatrix& base, const std::vector<PortUnknowns>& ports,
                 const std::vector<double>& g) {
  Matrix a = base.toDense();
  const std::size_t k = ports.size();
  const auto add = [&](std::size_t r, std::size_t c, double v) {
    if (r != kGroundUnknown && c != kGroundUnknown) a(r, c) += v;
  };
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t q = 0; q < k; ++q) {
      const double gpq = g[p * k + q];
      add(ports[p].pos, ports[q].pos, gpq);
      add(ports[p].pos, ports[q].neg, -gpq);
      add(ports[p].neg, ports[q].pos, -gpq);
      add(ports[p].neg, ports[q].neg, gpq);
    }
  }
  return a;
}

// max |x - ref| / max |ref| against a dense LU of `a`.
double gapToDense(const Matrix& a, const Vector& b, const Vector& x) {
  const Vector ref = solveLinear(a, b);
  double gap = 0.0, scale = 0.0;
  for (std::size_t k = 0; k < kN; ++k) {
    gap = std::max(gap, std::abs(x[k] - ref[k]));
    scale = std::max(scale, std::abs(ref[k]));
  }
  return gap / scale;
}

// Solves (A0 + P G P^T) x = b through the reduction, as the transient
// Newton does for a linear port law: the port voltages from
// (I + Zp G) v = P^T y, then x = y - Z (G v). False when the port system
// or the recovery would cancel.
bool solveWithPorts(const LowRankUpdate& update, const Vector& b, const double* g, Vector& x) {
  const std::size_t k = update.rank();
  std::vector<double> v(k), i(k, 0.0);
  Vector y;
  update.openCircuit(b, y, v.data());
  if (update.solvePorts(g, v.data()) != PortSolve::kSolved) return false;
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t q = 0; q < k; ++q) i[p] += g[p * k + q] * v[q];
  }
  update.recover(y, i.data(), x);
  return true;
}

// k ports on distinct unknowns; about one in three terminals is ground.
std::vector<PortUnknowns> randomPorts(Rng& rng, std::size_t k) {
  std::vector<std::size_t> all(kN);
  for (std::size_t j = 0; j < kN; ++j) all[j] = j;
  for (std::size_t j = 0; j < 2 * k; ++j) std::swap(all[j], all[j + rng.below(kN - j)]);
  std::vector<PortUnknowns> ports(k);
  for (std::size_t p = 0; p < k; ++p) {
    ports[p].pos = all[2 * p];
    ports[p].neg = rng.below(3) == 0 ? kGroundUnknown : all[2 * p + 1];
  }
  return ports;
}

TEST(LowRankUpdate, RandomRankKPortsMatchDenseLu) {
  for (std::size_t k = 1; k <= kMaxUpdateRank; ++k) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(splitStream(seed, fnv1a64("low-rank-update"), k).next());
      const SparseMatrix base = randomBase(rng);
      const std::vector<PortUnknowns> ports = randomPorts(rng, k);
      std::vector<double> g(k * k);
      for (double& v : g) v = rng.uniform(-3.0, 3.0);
      BandedLu<double> lu;
      lu.factor(base);
      LowRankUpdate update(lu);
      update.setPorts(ports);
      EXPECT_EQ(update.rank(), k);
      const Vector b = randomVector(rng);
      Vector x;
      ASSERT_TRUE(solveWithPorts(update, b, g.data(), x)) << k << " " << seed;
      EXPECT_LE(gapToDense(withPorts(base, ports, g), b, x), 1e-12) << k << " " << seed;
    }
  }
}

// The pieces the transient Newton uses: the port voltages of y, the port
// impedance, and the column maxima that bound every unknown's response.
TEST(LowRankUpdate, PortImpedanceIsTheTheveninViewOfTheBase) {
  Rng rng(13);
  const SparseMatrix base = randomBase(rng);
  BandedLu<double> lu;
  lu.factor(base);
  const std::vector<PortUnknowns> ports = {{3, kGroundUnknown}, {11, 7}};
  LowRankUpdate update(lu);
  update.setPorts(ports);
  const Vector b = randomVector(rng);
  Vector y;
  double v_oc[2];
  update.openCircuit(b, y, v_oc);
  EXPECT_EQ(y, lu.solve(b));
  EXPECT_DOUBLE_EQ(v_oc[0], y[3]);
  EXPECT_DOUBLE_EQ(v_oc[1], y[11] - y[7]);
  for (std::size_t q = 0; q < 2; ++q) {
    Vector unit(kN, 0.0);
    unit[ports[q].pos] = 1.0;
    if (ports[q].neg != kGroundUnknown) unit[ports[q].neg] = -1.0;
    const Vector z = lu.solve(unit);
    EXPECT_DOUBLE_EQ(update.impedance(0, q), z[3]);
    EXPECT_DOUBLE_EQ(update.impedance(1, q), z[11] - z[7]);
    double z_max = 0.0;
    for (double v : z) z_max = std::max(z_max, std::abs(v));
    EXPECT_DOUBLE_EQ(update.columnMax(q), z_max);
  }
  // recover: x = y - Z i.
  const double i[2] = {0.25, -1.5};
  Vector x;
  update.recover(y, i, x);
  const Vector ref = lu.solve([&] {
    Vector r = b;
    r[3] -= i[0];
    r[11] -= i[1];
    r[7] += i[1];
    return r;
  }());
  for (std::size_t r = 0; r < kN; ++r) EXPECT_NEAR(x[r], ref[r], 1e-14) << r;
}

TEST(LowRankUpdate, NoPortsSolvesOnTheBase) {
  Rng rng(7);
  const SparseMatrix base = randomBase(rng);
  BandedLu<double> lu;
  lu.factor(base);
  LowRankUpdate update(lu);
  update.setPorts({});
  EXPECT_EQ(update.rank(), 0u);
  const Vector b = randomVector(rng);
  Vector x;
  ASSERT_TRUE(solveWithPorts(update, b, nullptr, x));
  EXPECT_EQ(x, lu.solve(b));
}

TEST(LowRankUpdate, RejectsMorePortsThanTheRankCap) {
  Rng rng(3);
  const SparseMatrix base = randomBase(rng);
  BandedLu<double> lu;
  lu.factor(base);
  LowRankUpdate update(lu);
  std::vector<PortUnknowns> ports;
  for (std::size_t p = 0; p <= kMaxUpdateRank; ++p) ports.push_back({2 * p, kGroundUnknown});
  EXPECT_THROW(update.setPorts(ports), std::invalid_argument);
  ports.pop_back();
  EXPECT_NO_THROW(update.setPorts(ports));
  EXPECT_EQ(update.rank(), kMaxUpdateRank);
  EXPECT_THROW(update.setPorts({{kN, kGroundUnknown}}), std::invalid_argument);
}

TEST(LowRankUpdate, DeclinesACancellingRankOneUpdate) {
  Rng rng(11);
  const std::size_t r = 9;
  const SparseMatrix base = randomBase(rng);
  BandedLu<double> lu;
  lu.factor(base);
  LowRankUpdate update(lu);
  const std::vector<PortUnknowns> ports = {{r, kGroundUnknown}};
  update.setPorts(ports);
  const double z = update.impedance(0, 0);  // (A0^-1)_rr
  const Vector b = randomVector(rng);
  Vector x;

  // 1 + g z = 1e-14: the updated matrix is singular to working precision
  // relative to the base.
  const double cancelling = -(1.0 - 1e-14) / z;
  EXPECT_FALSE(solveWithPorts(update, b, &cancelling, x));

  // |g z| = 1e8: the base carries 1e-8 of the updated row, so x = y - Z i
  // would cancel.
  const double dominating = 1e8 / z;
  EXPECT_FALSE(solveWithPorts(update, b, &dominating, x));

  // Moderate changes either way are accepted and exact.
  for (const double gz : {-0.5, 1e3}) {
    const std::vector<double> g = {gz / z};
    ASSERT_TRUE(solveWithPorts(update, b, g.data(), x)) << gz;
    EXPECT_LE(gapToDense(withPorts(base, ports, g), b, x), 1e-12) << gz;
  }
}

}  // namespace
}  // namespace fdtdmm
