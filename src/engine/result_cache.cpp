#include "engine/result_cache.h"

#include "circuit/solver_state.h"
#include "core/scenario.h"
#include "engine/sweep_result.h"

namespace fdtdmm {

namespace {

// Numbers round-trip exactly (solverKeyNum): %g would collapse distinct
// doubles into one key and replay the wrong corner.
std::string keyValue(const ParamValue& value) {
  if (std::holds_alternative<bool>(value))
    return std::get<bool>(value) ? "true" : "false";
  if (std::holds_alternative<double>(value)) return solverKeyNum(std::get<double>(value));
  return std::get<std::string>(value);
}

}  // namespace

std::string resultCacheKey(const SimulationTask& task, const EyeOptions& eye) {
  std::string key = task.scenario->family();
  key += "|drv=" + task.driver + "|rcv=" + task.receiver;
  // Descriptor order is stable family API, so equal configurations always
  // serialize identically.
  for (const ParamDescriptor& d : task.scenario->descriptors())
    key += "|" + d.name + "=" + keyValue(task.scenario->get(d.name));
  key += "|eye=" + solverKeyNum(eye.window_start) + "," +
         solverKeyNum(eye.window_width) + "," + std::to_string(eye.skip_bits);
  return key;
}

std::shared_ptr<const SweepRunRecord> ResultCache::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(key);
  if (it == records_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

void ResultCache::put(const std::string& key, const SweepRunRecord& record) {
  if (!record.ok) return;
  auto stored = std::make_shared<SweepRunRecord>(record);
  stored->waves = TaskWaveforms{};  // strip memory-heavy waveforms
  std::lock_guard<std::mutex> lock(mu_);
  // First wins: records for equal keys are interchangeable.
  if (records_.emplace(key, std::move(stored)).second) ++stats_.inserts;
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

}  // namespace fdtdmm
