#pragma once
/// \file result_cache.h
/// Content-addressed cache of finished sweep-run records. Scenario runs
/// are pure functions of their parameters and models (the scenario.h
/// determinism contract), so a record computed for one task answers every
/// later task with the same content — repeated corners across sweeps (or
/// within one, e.g. a redundant grid) become O(1) lookups instead of
/// transient runs.
///
/// The key is the full content of the task: family, driver/receiver model
/// names, and every parameter descriptor's current value (numbers in
/// round-trip-exact %.17g, so two corners differing in the 17th digit
/// never collide), plus the eye-measurement options the metrics were
/// computed with. Task index and label are NOT part of the key — a hit is
/// replayed under the asking task's index/label.
///
/// Only successful (ok) records are cached, with waveforms stripped:
/// errors may be transient (missing model registered later) and waveforms
/// are memory-heavy and only requested via keep_waveforms — the runner
/// bypasses this cache entirely when waveforms are requested.

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/sim_task.h"
#include "signal/eye.h"

namespace fdtdmm {

struct SweepRunRecord;  // engine/sweep_result.h (which includes this header)

/// Effectiveness counters of a ResultCache (cumulative; snapshot deltas
/// per sweep, the ModelCacheStats convention).
struct ResultCacheStats {
  long long hits = 0;     ///< find() calls that returned a record
  long long misses = 0;   ///< find() calls that returned null
  long long inserts = 0;  ///< records stored
};

/// The full-content key of a task (+ eye options). Deterministic: equal
/// tasks produce equal keys on every platform.
std::string resultCacheKey(const SimulationTask& task, const EyeOptions& eye);

class ResultCache {
 public:
  /// Returns the cached record for `key`, or null (counting a hit/miss).
  std::shared_ptr<const SweepRunRecord> find(const std::string& key);

  /// Stores `record` under `key` unless the slot is already filled
  /// (first-wins: records for equal keys are interchangeable by the
  /// determinism contract). Failed records are ignored.
  void put(const std::string& key, const SweepRunRecord& record);

  /// Snapshot of the hit/miss/insert counters.
  ResultCacheStats stats() const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const SweepRunRecord>> records_;
  ResultCacheStats stats_;  // guarded by mu_
};

}  // namespace fdtdmm
