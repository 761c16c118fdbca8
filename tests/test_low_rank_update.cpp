// Unit tests of the Woodbury low-rank update (math/low_rank_update.h): on
// seeded random banded bases it must agree with a dense LU of the updated
// matrix, decline changes that are too wide or whose correction cancels,
// and rebuild its cached Z = A0^-1 E_R exactly when the row set changes.
#include "math/low_rank_update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/linear_solve.h"
#include "math/rng.h"

namespace fdtdmm {
namespace {

constexpr std::size_t kN = 24;

// A random diagonally dominant base with lower/upper bandwidth 2, whose
// pattern also holds every entry of `extra` (as structural zeros), so an
// update there stays inside the pattern.
SparseMatrix randomBase(Rng& rng, const std::vector<std::pair<std::size_t, std::size_t>>& extra) {
  SparseMatrix a(kN);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t c = r >= 2 ? r - 2 : 0; c <= std::min(kN - 1, r + 2); ++c)
      a.add(r, c, r == c ? rng.uniform(4.0, 8.0) : rng.uniform(-1.0, 1.0));
  }
  for (const auto& [r, c] : extra) a.add(r, c, 0.0);
  a.finalize();
  return a;
}

Vector randomVector(Rng& rng) {
  Vector b(kN);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

// max |x - ref| / max |ref| against a dense LU of `a`.
double gapToDense(const SparseMatrix& a, const Vector& b, const Vector& x) {
  const Vector ref = solveLinear(a.toDense(), b);
  double gap = 0.0, scale = 0.0;
  for (std::size_t k = 0; k < kN; ++k) {
    gap = std::max(gap, std::abs(x[k] - ref[k]));
    scale = std::max(scale, std::abs(ref[k]));
  }
  return gap / scale;
}

// `count` distinct indices in [0, kN).
std::vector<std::size_t> distinct(Rng& rng, std::size_t count) {
  std::vector<std::size_t> all(kN);
  for (std::size_t k = 0; k < kN; ++k) all[k] = k;
  for (std::size_t k = 0; k < count; ++k)
    std::swap(all[k], all[k + rng.below(kN - k)]);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

TEST(LowRankUpdate, RandomRankKUpdatesMatchDenseLu) {
  for (std::size_t k = 1; k <= kMaxUpdateRank; ++k) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(splitStream(seed, fnv1a64("low-rank-update"), k).next());
      const std::vector<std::size_t> rows = distinct(rng, k);
      const std::vector<std::size_t> cols = distinct(rng, 1 + rng.below(kMaxUpdateRank));
      std::vector<std::pair<std::size_t, std::size_t>> cells;
      for (std::size_t r : rows) {
        for (std::size_t c : cols) cells.emplace_back(r, c);
      }
      const SparseMatrix base = randomBase(rng, cells);
      SparseMatrix updated = base;
      // Every row of R gets at least its first column changed.
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i % cols.size() == 0 || rng.below(2))
          updated.add(cells[i].first, cells[i].second, rng.uniform(-3.0, 3.0));
      }
      BandedLu<double> lu;
      lu.factor(base);
      LowRankUpdate update(lu);
      ASSERT_TRUE(update.setChange(base, updated)) << k << " " << seed;
      EXPECT_EQ(update.rank(), k);
      const Vector b = randomVector(rng);
      Vector x;
      ASSERT_TRUE(update.solve(b, x)) << k << " " << seed;
      EXPECT_LE(gapToDense(updated, b, x), 1e-12) << k << " " << seed;
    }
  }
}

TEST(LowRankUpdate, UnchangedMatrixSolvesOnTheBase) {
  Rng rng(7);
  const SparseMatrix base = randomBase(rng, {});
  const SparseMatrix updated = base;
  BandedLu<double> lu;
  lu.factor(base);
  LowRankUpdate update(lu);
  ASSERT_TRUE(update.setChange(base, updated));
  EXPECT_EQ(update.rank(), 0u);
  const Vector b = randomVector(rng);
  Vector x;
  ASSERT_TRUE(update.solve(b, x));
  EXPECT_EQ(x, lu.solve(b));
  EXPECT_EQ(update.basisBuilds(), 0u);
}

TEST(LowRankUpdate, DeclinesChangesWiderThanTheRankCap) {
  Rng rng(3);
  std::vector<std::pair<std::size_t, std::size_t>> far_cols;
  for (std::size_t j = 0; j < kMaxUpdateRank; ++j) far_cols.emplace_back(0, 10 + j);
  const SparseMatrix base = randomBase(rng, far_cols);
  BandedLu<double> lu;
  lu.factor(base);
  LowRankUpdate update(lu);

  SparseMatrix rows = base;  // kMaxUpdateRank + 1 diagonal entries
  for (std::size_t r = 0; r <= kMaxUpdateRank; ++r) rows.add(2 * r, 2 * r, 1.0);
  EXPECT_FALSE(update.setChange(base, rows));

  SparseMatrix cols = base;  // one row, kMaxUpdateRank columns
  for (const auto& [r, c] : far_cols) cols.add(r, c, 1.0);
  EXPECT_TRUE(update.setChange(base, cols));
  EXPECT_EQ(update.rank(), 1u);
  SparseMatrix wider = cols;  // one column more
  wider.add(0, 0, 1.0);
  EXPECT_FALSE(update.setChange(base, wider));

  SparseMatrix other(kN);
  for (std::size_t r = 0; r < kN; ++r) other.add(r, r, 1.0);
  other.finalize();
  EXPECT_THROW(update.setChange(base, other), std::logic_error);
}

TEST(LowRankUpdate, DeclinesACancellingRankOneUpdate) {
  Rng rng(11);
  const std::size_t r = 9;
  const SparseMatrix base = randomBase(rng, {});
  BandedLu<double> lu;
  lu.factor(base);
  Vector e(kN, 0.0);
  e[r] = 1.0;
  const double z = lu.solve(e)[r];  // (A0^-1)_rr
  const Vector b = randomVector(rng);
  Vector x;

  // 1 + g z = 1e-14: the updated matrix is singular to working precision
  // relative to the base.
  SparseMatrix cancelling = base;
  cancelling.add(r, r, -(1.0 - 1e-14) / z);
  LowRankUpdate update(lu);
  ASSERT_TRUE(update.setChange(base, cancelling));
  EXPECT_EQ(update.rank(), 1u);
  EXPECT_FALSE(update.solve(b, x));

  // |g z| = 1e8: the base carries 1e-8 of the updated row, so x = y - Z w
  // would cancel.
  SparseMatrix dominating = base;
  dominating.add(r, r, 1e8 / z);
  ASSERT_TRUE(update.setChange(base, dominating));
  EXPECT_FALSE(update.solve(b, x));

  // Moderate changes either way are accepted and exact.
  for (const double gz : {-0.5, 1e3}) {
    SparseMatrix moderate = base;
    moderate.add(r, r, gz / z);
    ASSERT_TRUE(update.setChange(base, moderate)) << gz;
    ASSERT_TRUE(update.solve(b, x)) << gz;
    EXPECT_LE(gapToDense(moderate, b, x), 1e-12) << gz;
  }
}

TEST(LowRankUpdate, RebuildsZWhenTheRowSetChanges) {
  Rng rng(5);
  const SparseMatrix base = randomBase(rng, {});
  BandedLu<double> lu;
  lu.factor(base);
  LowRankUpdate update(lu);
  const Vector b = randomVector(rng);
  Vector x;

  const auto solveWith = [&](std::size_t row, double g) {
    SparseMatrix a = base;
    a.add(row, row, g);
    ASSERT_TRUE(update.setChange(base, a));
    ASSERT_TRUE(update.solve(b, x));
    EXPECT_LE(gapToDense(a, b, x), 1e-12) << row << " " << g;
  };
  solveWith(2, 0.5);
  EXPECT_EQ(update.basisBuilds(), 1u);
  solveWith(2, 3.0);  // same row, new value: Z is reused
  EXPECT_EQ(update.basisBuilds(), 1u);
  solveWith(17, 1.5);  // new row: Z is rebuilt
  EXPECT_EQ(update.basisBuilds(), 2u);
  solveWith(2, 0.5);  // and again on the way back
  EXPECT_EQ(update.basisBuilds(), 3u);
}

}  // namespace
}  // namespace fdtdmm
