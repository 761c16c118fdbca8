// Concurrency hammering for the engine's two shared caches. The sweep
// engine's economics rest on exactly-once semantics under contention: many
// workers asking for the same model / solver state must trigger exactly
// one identification / symbolic build, with no torn statistics. These
// tests throw a thread barrage at each cache and assert the counters add
// up exactly. They are also the designated prey of the CI ThreadSanitizer
// job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/model_cache.h"
#include "engine/solver_state_cache.h"

namespace fdtdmm {
namespace {

constexpr int kThreads = 8;
constexpr int kLookupsPerThread = 16;

// Launches `n` threads on `fn(thread_index)` and joins them all. The
// barrier-ish start (threads spin up before any returns) maximizes real
// contention on the cache locks.
void hammer(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

TEST(EngineCaches, ModelCacheConcurrentFirstLookupIdentifiesOnce) {
  ModelCache cache;
  std::vector<std::shared_ptr<const RbfDriverModel>> seen(kThreads);
  hammer(kThreads, [&](int t) {
    // Every thread races the FIRST resolution of "default": the built-in
    // identification must run exactly once, under the cache lock.
    for (int i = 0; i < kLookupsPerThread; ++i)
      seen[static_cast<std::size_t>(t)] = cache.driver("default");
  });
  for (const auto& model : seen) {
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model, seen.front());  // one instance, shared by all
  }
  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.hits, static_cast<long long>(kThreads) * kLookupsPerThread - 1);
}

TEST(EngineCaches, SolverStateCacheBuildsSymbolicExactlyOnce) {
  SolverStateCache cache;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const SolverSymbolic>> seen(kThreads);
  hammer(kThreads, [&](int t) {
    for (int i = 0; i < kLookupsPerThread; ++i) {
      seen[static_cast<std::size_t>(t)] = cache.symbolic("class-a", [&] {
        ++builds;
        // Stretch the build window so every other thread is parked on the
        // entry mutex while the builder runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_shared<SolverSymbolic>();
      });
    }
  });
  EXPECT_EQ(builds.load(), 1);
  for (const auto& sym : seen) {
    ASSERT_NE(sym, nullptr);
    EXPECT_EQ(sym, seen.front());
  }
  const SolverStateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.symbolic_misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.symbolic_hits,
            static_cast<long long>(kThreads) * kLookupsPerThread - 1);
  EXPECT_EQ(cache.structureClassCount(), 1u);
}

TEST(EngineCaches, SolverStateCacheDistinctKeysBuildConcurrently) {
  SolverStateCache cache;
  std::atomic<int> builds{0};
  hammer(kThreads, [&](int t) {
    const std::string key = "class-" + std::to_string(t % 4);
    for (int i = 0; i < kLookupsPerThread; ++i) {
      auto sym = cache.symbolic(key, [&] {
        ++builds;
        auto s = std::make_shared<SolverSymbolic>();
        s->pattern.n = static_cast<std::size_t>(t % 4);
        return s;
      });
      ASSERT_NE(sym, nullptr);
      EXPECT_EQ(sym->pattern.n, static_cast<std::size_t>(t % 4));
    }
  });
  EXPECT_EQ(builds.load(), 4);
  const SolverStateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.symbolic_misses, 4);
  EXPECT_EQ(stats.inserts, 4);
  EXPECT_EQ(stats.symbolic_hits,
            static_cast<long long>(kThreads) * kLookupsPerThread - 4);
  EXPECT_EQ(cache.structureClassCount(), 4u);
}

TEST(EngineCaches, SolverStateCacheThrowingBuilderPublishesNothing) {
  SolverStateCache cache;
  EXPECT_THROW(cache.symbolic("bad",
                              []() -> std::shared_ptr<const SolverSymbolic> {
                                throw std::runtime_error("singular");
                              }),
               std::runtime_error);
  EXPECT_EQ(cache.structureClassCount(), 0u);
  // The next caller retries the build and can succeed.
  auto sym = cache.symbolic("bad", [] { return std::make_shared<SolverSymbolic>(); });
  EXPECT_NE(sym, nullptr);
  const SolverStateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.symbolic_misses, 2);  // the failed attempt counts as a miss
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(cache.structureClassCount(), 1u);
}

}  // namespace
}  // namespace fdtdmm
