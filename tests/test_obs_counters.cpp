// Tests for the observability counter/timer registry: thread safety of
// Counters, ScopedTimer accumulation into both sink forms, and the
// disabled-span cost contract (null sink = branch only, cheap enough to
// leave compiled into the solver loops).
#include "obs/counters.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "obs/telemetry.h"

namespace fdtdmm {
namespace obs {
namespace {

TEST(Counters, AddAndReadBack) {
  Counters c;
  EXPECT_EQ(c.count("missing"), 0);
  EXPECT_EQ(c.seconds("missing"), 0.0);
  c.add("events");
  c.add("events", 4);
  c.addSeconds("span", 0.25);
  c.addSeconds("span", 0.5, 2);
  EXPECT_EQ(c.count("events"), 5);
  EXPECT_EQ(c.count("span"), 3);
  EXPECT_DOUBLE_EQ(c.seconds("span"), 0.75);
}

TEST(Counters, SnapshotMergeAndClear) {
  Counters a;
  a.add("x", 2);
  a.addSeconds("t", 1.0);
  Counters b;
  b.add("x", 3);
  b.add("y");
  a.merge(b);
  EXPECT_EQ(a.count("x"), 5);
  EXPECT_EQ(a.count("y"), 1);
  const auto snap = a.snapshot();
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at("x").count, 5);

  Counters copy(a);
  EXPECT_EQ(copy.count("x"), 5);
  a.clear();
  EXPECT_EQ(a.count("x"), 0);
  EXPECT_EQ(copy.count("x"), 5);  // the copy is independent
}

TEST(Counters, ConcurrentIncrementsAreLossless) {
  Counters c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add("shared");
        if ((i & 1023) == 0) c.addSeconds("timed", 1e-6);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.count("shared"), static_cast<long long>(kThreads) * kPerThread);
  EXPECT_GT(c.seconds("timed"), 0.0);
}

TEST(ScopedTimer, AccumulatesIntoDoubleSink) {
  double acc = 0.0;
  {
    ScopedTimer t(&acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(acc, 0.0);
  const double first = acc;
  { ScopedTimer t(&acc); }  // accumulates, never resets
  EXPECT_GE(acc, first);
}

TEST(ScopedTimer, AccumulatesIntoCounters) {
  Counters c;
  {
    ScopedTimer t(&c, "phase");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(c.count("phase"), 1);
  EXPECT_GT(c.seconds("phase"), 0.0);
}

TEST(ScopedTimer, DisabledSpanIsCheap) {
  // The contract that keeps instrumentation compiled into the hot loops:
  // a null sink must cost a branch, not a clock read. 10M disabled spans
  // in ~2 clock reads' worth of budget each would still pass this very
  // generous bound; a clock call per span (~20-30ns) would blow through it
  // on any realistic machine only if the bound were tight, so this is a
  // smoke check against gross regressions (e.g. unconditional now()).
  constexpr long long kSpans = 10'000'000;
  double acc = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (long long i = 0; i < kSpans; ++i) {
    ScopedTimer t(static_cast<double*>(nullptr));
    (void)t;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(acc, 0.0);
  EXPECT_LT(elapsed, 2.0);  // 200 ns per disabled span, debug-build slack
}

TEST(RunTelemetry, MergeIsFieldWise) {
  RunTelemetry a;
  a.phases.factor_seconds = 1.0;
  a.phases.solve_seconds = 2.0;
  a.lu_factorizations = 1;
  a.newton_iterations = 10;
  a.max_newton_iterations = 3;
  a.steps = 100;
  a.transient_runs = 1;
  a.pattern_compiles = 1;
  a.wall_seconds = 0.5;

  RunTelemetry b;
  b.phases.factor_seconds = 0.25;
  b.lu_factorizations = 2;
  b.newton_iterations = 5;
  b.max_newton_iterations = 7;
  b.steps = 50;
  b.transient_runs = 1;
  b.pattern_compiles = 2;
  b.wall_seconds = 0.25;

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.phases.factor_seconds, 1.25);
  EXPECT_DOUBLE_EQ(a.phases.solve_seconds, 2.0);
  EXPECT_EQ(a.lu_factorizations, 3);
  EXPECT_EQ(a.newton_iterations, 15);
  EXPECT_EQ(a.max_newton_iterations, 7);  // max, not sum
  EXPECT_EQ(a.steps, 150);
  EXPECT_EQ(a.transient_runs, 2);
  EXPECT_EQ(a.pattern_compiles, 3);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);
}

}  // namespace
}  // namespace obs
}  // namespace fdtdmm
