#include "engine/solver_state_cache.h"

namespace fdtdmm {

std::shared_ptr<const SolverSymbolic> SolverStateCache::symbolic(
    const StructureClass& key, const SymbolicBuilder& build) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = symbolic_.find(key);
    if (it == symbolic_.end()) it = symbolic_.emplace(key, std::make_shared<Entry>()).first;
    entry = it->second;
    if (entry->value) {
      ++stats_.symbolic_hits;
      return entry->value;
    }
  }
  // Build outside the cache lock but inside the entry lock: one builder
  // per class at a time, other classes fully concurrent. Re-check after
  // acquiring — a concurrent caller may have published while we waited.
  std::lock_guard<std::mutex> build_lock(entry->build_mu);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->value) {
      ++stats_.symbolic_hits;
      return entry->value;
    }
    ++stats_.symbolic_misses;
  }
  std::shared_ptr<const SolverSymbolic> value = build();  // may throw: nothing published
  std::lock_guard<std::mutex> lock(mu_);
  if (value) {
    entry->value = value;
    ++stats_.inserts;
  }
  return value;
}

SolverStateCacheStats SolverStateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SolverStateCache::structureClassCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Count only published values: a class whose builder threw (or is still
  // running) is not a resolved class.
  std::size_t n = 0;
  for (const auto& kv : symbolic_)
    if (kv.second->value) ++n;
  return n;
}

}  // namespace fdtdmm
