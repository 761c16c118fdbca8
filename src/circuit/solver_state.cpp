#include "circuit/solver_state.h"

#include "math/banded_lu.h"
#include "obs/trace.h"

namespace fdtdmm {

// Out-of-line destructor anchors the provider's vtable in the circuit
// library (implementations live in the engine layer).
SolverStateProvider::~SolverStateProvider() = default;

std::shared_ptr<const SolverSymbolic> resolveSymbolic(const SolverSharing& sharing,
                                                      const SparseMatrix& pattern,
                                                      obs::RunTelemetry* tel) {
  const std::size_t n = pattern.dim();
  const auto order = [&pattern, n] {
    auto s = std::make_shared<SolverSymbolic>();
    s->n = n;
    s->rcm_order = reverseCuthillMcKee(pattern);
    return s;
  };
  // The ordering is a pure function of the pattern, so every run of a
  // structure class computes the identical one — which is what makes the
  // exactly-once provider contract safe, and the factorizations
  // bit-identical whichever run built it.
  if (sharing.shareSymbolic()) {
    bool built = false;
    auto sym = sharing.provider->symbolic(sharing.structure_key, [&] {
      built = true;
      return order();
    });
    if (sym && sym->n == n && sym->rcm_order.size() == n) {
      if (built) {
        if (tel) {
          ++tel->rcm_orderings;
          ++tel->shared_symbolic_builds;
        }
      } else {
        if (tel) ++tel->shared_symbolic_reuses;
        obs::traceInstant("shared_symbolic_reuse", "solver");
      }
      return sym;
    }
  }
  if (tel) ++tel->rcm_orderings;
  return order();
}

}  // namespace fdtdmm
