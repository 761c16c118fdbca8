#include "circuit/solver_state.h"

#include <stdexcept>

#include "circuit/circuit.h"
#include "math/banded_lu.h"
#include "obs/trace.h"

namespace fdtdmm {

// Out-of-line destructor anchors the provider's vtable in the circuit
// library (implementations live in the engine layer).
SolverStateProvider::~SolverStateProvider() = default;

template <typename Scalar>
std::shared_ptr<const SolverSymbolic> resolveSymbolic(const SolverSharing& sharing,
                                                      const Circuit& circuit,
                                                      SolverEngine engine, std::size_t n,
                                                      const PatternStamp<Scalar>& stamp,
                                                      CsrMatrix<Scalar>& target,
                                                      obs::RunTelemetry* tel) {
  const auto compile = [&] {
    target.reset(n);
    stamp(target);
    target.finalize();
    if (tel) {
      ++tel->pattern_compiles;
      ++tel->rcm_orderings;
    }
    auto s = std::make_shared<SolverSymbolic>();
    s->pattern = target.pattern();
    s->rcm_order = reverseCuthillMcKee(target);
    return s;
  };
  // The pattern and its ordering are pure functions of the stamps, so
  // every run of a structure class compiles the identical ones — which is
  // what makes the exactly-once provider contract safe, and the
  // factorizations bit-identical whichever run built them.
  const std::optional<std::uint64_t> fingerprint = circuit.structureClass();
  std::shared_ptr<const SolverSymbolic> sym;
  if (sharing.provider != nullptr && fingerprint) {
    bool built = false;
    sym = sharing.provider->symbolic({*fingerprint, engine}, [&] {
      built = true;
      return compile();
    });
    if (!sym || sym->pattern.n != n || sym->rcm_order.size() != n)
      throw std::logic_error(
          "resolveSymbolic: the checked-out structure class has another dimension");
    if (built) {
      if (tel) ++tel->shared_symbolic_builds;
    } else {
      if (tel) ++tel->shared_symbolic_reuses;
      obs::traceInstant("shared_symbolic_reuse", "solver");
    }
  } else {
    sym = compile();
  }
  target.adoptPattern(sym->pattern);
  return sym;
}

template std::shared_ptr<const SolverSymbolic> resolveSymbolic(const SolverSharing&,
                                                               const Circuit&, SolverEngine,
                                                               std::size_t,
                                                               const PatternStamp<double>&,
                                                               CsrMatrix<double>&,
                                                               obs::RunTelemetry*);
template std::shared_ptr<const SolverSymbolic> resolveSymbolic(const SolverSharing&,
                                                               const Circuit&, SolverEngine,
                                                               std::size_t,
                                                               const PatternStamp<Complex>&,
                                                               CsrMatrix<Complex>&,
                                                               obs::RunTelemetry*);

}  // namespace fdtdmm
