#pragma once
/// \file sim_task.h
/// Uniform run()-able task over the open scenario API. A SimulationTask
/// freezes one fully-configured Scenario (any registered family) plus the
/// names of the macromodels it needs, so higher layers (the sweep engine in
/// src/engine) can treat every workload as "resolve models, run the
/// scenario, collect waveforms" without knowing which family it is. Sweep
/// expansion builds tasks from (scenario name, parameter bindings); nothing
/// above this line dispatches on a closed list of families.

#include <cstddef>
#include <memory>
#include <string>

#include "circuit/solver_state.h"
#include "core/scenario.h"

namespace fdtdmm {

/// One concrete, self-contained simulation job.
struct SimulationTask {
  std::size_t index = 0;   ///< position in the sweep (stable result order)
  std::string label;       ///< human-readable parameter summary
  /// The frozen, validated workload. Immutable and shareable: run() is
  /// const and deterministic, so copies of a task are interchangeable.
  std::shared_ptr<const Scenario> scenario;
  std::string driver = "default";    ///< model-cache component name
  std::string receiver = "default";  ///< model-cache component name
};

/// Runs the task's scenario with already-resolved models, forwarding
/// `sharing` so the solver can check symbolic state out of a
/// SolverStateProvider. Deterministic for fixed inputs (wall_seconds
/// aside): the same task with the same models produces bit-identical
/// waveforms on every call, and for any `sharing` under an honest key,
/// which is what lets the sweep engine promise thread-count-independent
/// results.
/// \throws std::invalid_argument on a task without a scenario, null
///         required models, or invalid scenario options.
TaskWaveforms runSimulationTask(const SimulationTask& task,
                                std::shared_ptr<const RbfDriverModel> driver,
                                std::shared_ptr<const RbfReceiverModel> receiver,
                                const SolverSharing& sharing = {});

}  // namespace fdtdmm
