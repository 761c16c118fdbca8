#pragma once
// The sharing-free reference of a sweep: every task run alone, in task
// order, through runSimulationTask with a default SolverSharing (no
// solver-state cache, no thread pool), its metrics computed as SweepRunner
// computes them. A runner's CSV export must match this reference byte for
// byte, and so must its JSON export from "runs" on (the header records the
// worker count).

#include <utility>
#include <vector>

#include "engine/model_cache.h"
#include "engine/sweep_result.h"
#include "signal/bit_pattern.h"

namespace fdtdmm {
namespace testmodels {

/// \throws whatever a task throws: the reference expects every corner to run.
inline SweepResult sharingFreeSweep(const std::vector<SimulationTask>& tasks,
                                    ModelCache& models) {
  SweepResult result;
  for (const SimulationTask& task : tasks) {
    const Scenario& sc = *task.scenario;
    const TaskWaveforms waves = runSimulationTask(
        task, sc.needsDriver() ? models.driver(task.driver) : nullptr,
        sc.needsReceiver() ? models.receiver(task.receiver) : nullptr);
    SweepRunRecord rec;
    rec.index = task.index;
    rec.label = task.label;
    rec.ok = true;
    rec.metrics = computeRunMetrics(waves, BitPattern(sc.pattern(), sc.bitTime()));
    result.runs.push_back(std::move(rec));
  }
  return result;
}

}  // namespace testmodels
}  // namespace fdtdmm
