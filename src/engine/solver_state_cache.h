#pragma once
/// \file solver_state_cache.h
/// Thread-safe SolverStateProvider shared by all sweep workers: the
/// ModelCache economics (identify once, simulate everywhere) applied to
/// the solver itself. Corners whose netlists have the same structure class
/// (Circuit::structureClass, per engine) share one symbolic analysis (the
/// compiled sparse pattern and its RCM ordering), regardless of worker
/// count; every corner stamps its own values into that pattern and
/// factors its own base matrix.
///
/// Exactly-once contract (per class): the first caller runs the builder
/// under that class's entry mutex; concurrent callers with the same class
/// block on the entry mutex — NOT on the whole cache — and receive the
/// published value. Different classes build concurrently. A builder that
/// throws publishes nothing; the next caller retries. Values are immutable
/// (shared_ptr<const ...>), so workers factor with the same ordering
/// concurrently without copies.

#include <map>
#include <memory>
#include <mutex>

#include "circuit/solver_state.h"

namespace fdtdmm {

/// Effectiveness counters of a SolverStateCache (see stats()). Cumulative
/// over the cache's lifetime; per-sweep deltas come from snapshotting
/// before and after (the ModelCacheStats convention).
struct SolverStateCacheStats {
  long long symbolic_hits = 0;    ///< symbolic() calls answered from the map
  long long symbolic_misses = 0;  ///< symbolic() calls that ran the builder
  /// Always 0: the cache shares no numeric state. perfbench/sweep_bench.cpp
  /// still reads these two fields; they go with the next benchmark change.
  long long numeric_hits = 0;
  long long numeric_misses = 0;
  long long inserts = 0;  ///< values published (successful builds)
};

class SolverStateCache final : public SolverStateProvider {
 public:
  std::shared_ptr<const SolverSymbolic> symbolic(const StructureClass& key,
                                                 const SymbolicBuilder& build) override;

  /// Snapshot of the hit/miss/insert counters.
  SolverStateCacheStats stats() const;

  /// Distinct structure classes resolved so far.
  std::size_t structureClassCount() const;

 private:
  /// One class's slot: value plus the mutex that serializes its build.
  struct Entry {
    std::mutex build_mu;
    std::shared_ptr<const SolverSymbolic> value;  // guarded by the outer mu_ for reads
  };

  mutable std::mutex mu_;
  std::map<StructureClass, std::shared_ptr<Entry>> symbolic_;
  SolverStateCacheStats stats_;  // guarded by mu_
};

}  // namespace fdtdmm
