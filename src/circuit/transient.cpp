#include "circuit/transient.h"

#include "circuit/solver_session.h"

namespace fdtdmm {

// The transient engine proper lives in SolverSession (circuit/
// solver_session.h), which splits the solver state into symbolic /
// numeric-base / per-run pieces so the engine layer can share the first
// two across sweep corners. This wrapper is the one-shot API; with default
// TransientOptions::sharing every piece is private to the run.
TransientResult runTransient(Circuit& circuit, const TransientOptions& opt,
                             const std::vector<NodeProbe>& probes,
                             const std::vector<BranchProbe>& branch_probes) {
  SolverSession session(circuit, opt);
  return session.run(probes, branch_probes);
}

}  // namespace fdtdmm
