#include "core/sim_task.h"

#include <stdexcept>

namespace fdtdmm {

TaskWaveforms runSimulationTask(const SimulationTask& task,
                                std::shared_ptr<const RbfDriverModel> driver,
                                std::shared_ptr<const RbfReceiverModel> receiver,
                                const SolverSharing& sharing) {
  if (!task.scenario)
    throw std::invalid_argument("runSimulationTask: task has no scenario");
  return task.scenario->run(std::move(driver), std::move(receiver), sharing);
}

}  // namespace fdtdmm
