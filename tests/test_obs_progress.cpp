// Tests for the live sweep progress surface (obs/progress.h): throttling,
// the guaranteed final emission, counting of done/failed corners
// and health severities, the stats hook, and the formatted line contract
// (`# progress: ...`, negative rates omitted) that the CI smoke run greps
// out of a real example's stderr.
#include "obs/progress.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace fdtdmm {
namespace obs {
namespace {

// Sink that captures every snapshot, for asserting on emission behavior.
struct CaptureSink {
  std::vector<ProgressSnapshot> snaps;
  ProgressOptions options(double min_interval = 0.0) {
    ProgressOptions opt;
    opt.enabled = true;
    opt.min_interval_seconds = min_interval;
    opt.sink = [this](const ProgressSnapshot& s) { snaps.push_back(s); };
    return opt;
  }
};

TEST(Progress, DisabledReporterNeverEmits) {
  CaptureSink cap;
  ProgressOptions opt = cap.options();
  opt.enabled = false;
  ProgressReporter rep(opt, 10);
  EXPECT_FALSE(rep.enabled());
  rep.taskDone(true, HealthSeverity::kOk);
  rep.taskDone(false, HealthSeverity::kCritical);
  rep.finish();
  EXPECT_TRUE(cap.snaps.empty());
}

TEST(Progress, ZeroIntervalEmitsEveryTaskPlusFinal) {
  CaptureSink cap;
  ProgressReporter rep(cap.options(0.0), 3);
  EXPECT_TRUE(rep.enabled());
  rep.taskDone(true, HealthSeverity::kOk);
  rep.taskDone(true, HealthSeverity::kOk);
  rep.taskDone(false, HealthSeverity::kCritical);
  rep.finish();
  ASSERT_EQ(cap.snaps.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cap.snaps[i].done, i + 1);
    EXPECT_EQ(cap.snaps[i].total, 3u);
    EXPECT_FALSE(cap.snaps[i].final);
  }
  const ProgressSnapshot& last = cap.snaps.back();
  EXPECT_TRUE(last.final);
  EXPECT_EQ(last.done, 3u);
  EXPECT_EQ(last.failed, 1u);
  EXPECT_EQ(last.health_critical, 1);
}

TEST(Progress, LongIntervalThrottlesDownToTheFinalEmission) {
  CaptureSink cap;
  ProgressReporter rep(cap.options(/*min_interval=*/3600.0), 100);
  for (int i = 0; i < 100; ++i) rep.taskDone(true, HealthSeverity::kOk);
  EXPECT_TRUE(cap.snaps.empty());  // all suppressed by the interval
  rep.finish();                    // forced, unthrottled
  ASSERT_EQ(cap.snaps.size(), 1u);
  EXPECT_TRUE(cap.snaps[0].final);
  EXPECT_EQ(cap.snaps[0].done, 100u);
}

TEST(Progress, FinishIsIdempotent) {
  CaptureSink cap;
  ProgressReporter rep(cap.options(0.0), 1);
  rep.taskDone(true, HealthSeverity::kOk);
  rep.finish();
  rep.finish();
  rep.finish();
  ASSERT_EQ(cap.snaps.size(), 2u);  // one task emission + ONE final
  EXPECT_TRUE(cap.snaps.back().final);
}

TEST(Progress, CountsFailuresAndSeverities) {
  CaptureSink cap;
  ProgressReporter rep(cap.options(0.0), 4);
  rep.taskDone(true, HealthSeverity::kOk);
  rep.taskDone(true, HealthSeverity::kWarn);
  rep.taskDone(false, HealthSeverity::kCritical);
  rep.taskDone(true, HealthSeverity::kOk);
  rep.finish();
  const ProgressSnapshot& last = cap.snaps.back();
  EXPECT_EQ(last.done, 4u);
  EXPECT_EQ(last.failed, 1u);
  EXPECT_EQ(last.health_warn, 1);
  EXPECT_EQ(last.health_critical, 1);
}

TEST(Progress, ReportsAreThreadSafe) {
  CaptureSink cap;
  constexpr std::size_t kThreads = 8, kPerThread = 500;
  ProgressReporter rep(cap.options(0.0), kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rep] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        rep.taskDone(true, HealthSeverity::kOk);
    });
  }
  for (std::thread& th : threads) th.join();
  rep.finish();
  EXPECT_EQ(cap.snaps.back().done, kThreads * kPerThread);
  EXPECT_EQ(cap.snaps.size(), kThreads * kPerThread + 1);  // none lost
}

TEST(Progress, StatsHookFillsRatesAtEmissionTime) {
  CaptureSink cap;
  ProgressReporter rep(cap.options(0.0), 2, [](ProgressSnapshot& s) {
    s.worker_utilization = 0.75;
    s.solver_cache_hit_rate = 0.5;
  });
  rep.taskDone(true, HealthSeverity::kOk);
  rep.finish();
  for (const ProgressSnapshot& s : cap.snaps) {
    EXPECT_DOUBLE_EQ(s.worker_utilization, 0.75);
    EXPECT_DOUBLE_EQ(s.solver_cache_hit_rate, 0.5);
  }
}

TEST(Progress, RateAndEtaAreSane) {
  CaptureSink cap;
  ProgressReporter rep(cap.options(0.0), 10);
  for (int i = 0; i < 5; ++i) rep.taskDone(true, HealthSeverity::kOk);
  rep.finish();
  const ProgressSnapshot& last = cap.snaps.back();
  EXPECT_GE(last.elapsed_seconds, 0.0);
  EXPECT_GE(last.corners_per_second, 0.0);
  // Once a positive rate exists, every non-final snapshot carries a
  // nonnegative ETA (remaining / rate).
  for (const ProgressSnapshot& s : cap.snaps) {
    if (!s.final && s.corners_per_second > 0.0) {
      EXPECT_GE(s.eta_seconds, 0.0);
    }
  }
}

TEST(Progress, FormatLineCarriesTheGreppableShape) {
  ProgressSnapshot s;
  s.done = 37;
  s.total = 114;
  s.corners_per_second = 12.3;
  s.eta_seconds = 6.0;
  s.health_warn = 2;
  s.health_critical = 0;
  const std::string line = formatProgressLine(s);
  // The `# progress:` prefix and done/total are the CI smoke-run grep
  // targets — pinned here so the workflow and the formatter cannot drift.
  EXPECT_EQ(line.rfind("# progress: 37/114 corners (32.5%)", 0), 0u) << line;
  EXPECT_NE(line.find("12.3/s"), std::string::npos) << line;
  EXPECT_NE(line.find("eta 6s"), std::string::npos) << line;
  EXPECT_NE(line.find("health 2 warn / 0 critical"), std::string::npos) << line;
  // Rates the runner could not supply are negative and omitted entirely.
  EXPECT_EQ(line.find("util"), std::string::npos) << line;
  EXPECT_EQ(line.find("cache"), std::string::npos) << line;
  EXPECT_EQ(line.find("failed"), std::string::npos) << line;
}

TEST(Progress, FormatLineFinalAndRatesAndFailures) {
  ProgressSnapshot s;
  s.done = 114;
  s.total = 114;
  s.failed = 3;
  s.elapsed_seconds = 9.25;
  s.worker_utilization = 0.87;
  s.solver_cache_hit_rate = 0.0;
  s.final = true;
  const std::string line = formatProgressLine(s);
  EXPECT_EQ(line.rfind("# progress: 114/114 corners (100.0%)", 0), 0u) << line;
  EXPECT_NE(line.find("done in 9.2s"), std::string::npos) << line;
  EXPECT_NE(line.find("util 87%"), std::string::npos) << line;
  // A known-zero rate is information, not absence: it must be printed.
  EXPECT_NE(line.find("solver-cache 0%"), std::string::npos) << line;
  EXPECT_NE(line.find("3 failed"), std::string::npos) << line;
  EXPECT_EQ(line.find("eta"), std::string::npos) << line;  // final: no eta
}

TEST(Progress, EmptySweepFinishesCleanly) {
  CaptureSink cap;
  ProgressReporter rep(cap.options(0.0), 0);
  rep.finish();
  ASSERT_EQ(cap.snaps.size(), 1u);
  EXPECT_EQ(cap.snaps[0].done, 0u);
  EXPECT_EQ(cap.snaps[0].total, 0u);
  EXPECT_TRUE(cap.snaps[0].final);
}

}  // namespace
}  // namespace obs
}  // namespace fdtdmm
