#pragma once
/// \file solver_session.h
/// SolverSession: the transient engine's solver state as an explicit
/// object instead of `runTransient`-local variables. One session = one
/// transient run of one Circuit on the sparse path (CSR assembly +
/// RCM-ordered banded LU, see circuit/transient.h), with its state split
/// along the two lifetimes of circuit/solver_state.h:
///
///   - symbolic state      — the compiled CSR base pattern and its RCM
///                           ordering, checked out once per run (compiled
///                           by the run itself unless its class shares
///                           them) and used by every factorization of that
///                           pattern;
///   - per-run numeric     — the assembled static base matrix and its
///     state                 BandedLu factorization (factored once, at the
///                           first time point), the port reduction built on
///                           it (Z = A0^-1 P, math/low_rank_update.h), the
///                           solution and port vectors, and the fallback
///                           refactorization — never shared.
///
/// Every time point stamps the RHS once and substitutes once on the base
/// for the open-circuit response y. A linear circuit is then solved; a
/// nonlinear one runs Newton on its k port equations v = P^T y - Zp i(v)
/// and recovers the unknowns as x = y - Z i. An iteration refactors the
/// base plus the port linearization instead when (a) the circuit has more
/// than kMaxUpdateRank ports (every iteration), (b) the base alone is
/// singular (every iteration of the run), or (c) the k x k port system
/// would cancel (that iteration).
///
/// runTransient is a thin wrapper that constructs a session and runs it.
/// With TransientOptions::sharing set, the session checks its pattern and
/// ordering out of a SolverStateProvider: the first run of a structure
/// class compiles them from its own (identical) stamps and publishes them,
/// every later run adopts the pattern, stamps its static values straight
/// into it and skips the compile and the RCM analysis entirely — its base
/// factorization and its fallback refactorizations all use the
/// checked-out ordering.

#include <memory>
#include <vector>

#include "circuit/solver_state.h"
#include "circuit/transient.h"
#include "math/banded_lu.h"
#include "math/low_rank_update.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {

/// One transient run with explicit, separable solver state. Construction
/// validates the options; run() validates the probes, assembles, and
/// integrates. A session is single-use: elements accumulate companion
/// history across the run, so call run() exactly once.
class SolverSession {
 public:
  /// \throws std::invalid_argument on bad options (non-positive dt/t_stop,
  ///         negative settle_time) — the same messages runTransient throws.
  SolverSession(Circuit& circuit, const TransientOptions& opt);

  /// Runs the transient analysis (see runTransient for the error
  /// contract; all its validation and exceptions happen here).
  TransientResult run(const std::vector<NodeProbe>& probes,
                      const std::vector<BranchProbe>& branch_probes = {});

 private:
  /// A nonlinear element's share of the run's port arrays: its ports start
  /// at `port`, its k x k conductance block at `g`.
  struct Device {
    Element* element = nullptr;
    std::size_t port = 0;
    std::size_t k = 0;
    std::size_t g = 0;
  };

  void validateProbes(const std::vector<NodeProbe>& probes,
                      const std::vector<BranchProbe>& branch_probes) const;
  /// Gathers the port laws of the circuit's nonlinear elements.
  void collectPorts();
  /// One-time static assembly: checks the base pattern and its RCM
  /// ordering out (resolveSymbolic: shared checkout, build-and-publish, or
  /// private), then stamps the static values and reserves every port
  /// stencil in the adopted pattern.
  void assembleStatic(double* t_static, obs::RunTelemetry* tel);
  /// Picks the run's solve path at its first time point: factors the base
  /// and builds the port reduction, or leaves every iteration to refactor
  /// (more than kMaxUpdateRank ports, or a singular base with ports).
  /// \throws std::runtime_error when a circuit without ports has a
  ///         singular base.
  void prepareSolve(TransientResult& result);
  /// Factors the static base from base_sp_, counted and health-recorded
  /// like every LU. \throws std::runtime_error when the base is singular.
  void factorBase(TransientResult& result);
  /// Solves one time point whose RHS is in b_, starting from the previous
  /// solution in x_ and leaving the accepted one there. Returns the Newton
  /// iterations taken; `converged` is false when the cap was hit.
  int solveTimePoint(double t_new, TransientResult& result, bool& converged);
  /// The port laws at the port voltages v_: currents into i_, conductance
  /// blocks into g_.
  void evalPorts(double t_new);
  /// Refactors the base plus the port laws linearized at v_ and solves the
  /// time point's system into x_new_.
  void refactorSolve(TransientResult& result);
  /// End-of-run health probes (obs/health.h): one relative residual of the
  /// final solution against the system of its last iteration, and
  /// (optionally) one Hager condition estimate on whichever factorization
  /// is cached — never a refactorization. `any_solve` gates the residual.
  void collectEndOfRunHealth(const obs::HealthOptions& hopt, obs::NumericalHealth& h,
                             bool any_solve);

  Circuit& circuit_;
  TransientOptions opt_;
  std::size_t n_unknowns_ = 0;
  // Telemetry sinks: null when not collected (one branch per site).
  double* t_factor_ = nullptr;
  double* t_solve_ = nullptr;
  obs::NumericalHealth* health_ = nullptr;

  // --- symbolic piece: base pattern + ordering ---
  SparseMatrix base_sp_;  ///< finalized static base (pattern + values)
  /// Pattern and ordering of the static base (checked out, built or
  /// private); every factorization uses its ordering.
  std::shared_ptr<const SolverSymbolic> symbolic_;

  // --- per-run numeric state: never shared ---
  BandedLu<double> base_lu_;  ///< static base, factored once
  LowRankUpdate reduction_{base_lu_};  ///< the ports' view of base_lu_
  bool prepared_ = false;  ///< prepareSolve ran
  bool refactor_ = false;  ///< every iteration refactors, cases (a) and (b)
  Vector b_;      ///< RHS of the current time point
  Vector x_;       ///< accepted solution
  Vector x_new_;   ///< this iteration's solution, when formed
  Vector x_iter_;  ///< the previous iteration's solution, when formed
  Vector y_;      ///< response A0^-1 (b_ - P i_drawn_)
  StampSystem sys_;           ///< working system of the refactoring path
  SparseMatrix work_sp_;      ///< base plus the port linearization
  BandedLu<double> work_lu_;  ///< refactored on the fallbacks (a)-(c)
  /// Most recent factorization used.
  const BandedLu<double>* last_lu_ = nullptr;

  // --- port laws: one entry per port (g_: one k x k block per device) ---
  std::vector<Device> devices_;
  std::vector<PortUnknowns> port_unknowns_;
  Vector v_;      ///< port voltages the laws are evaluated at
  Vector v_oc_;   ///< open-circuit port voltages P^T y
  Vector i_;      ///< law currents at v_
  Vector g_;      ///< law conductance blocks at v_
  Vector gk_;     ///< the same as one k x k matrix, for the port system
  Vector dv_;     ///< Newton step of the port voltages
  Vector i_lin_;  ///< port currents of the current iterate, i_ + g_ dv_
  Vector i_lin_next_;
  /// Port currents of the laws at the previous solution, which the time
  /// point's substitution draws from the ports: y_ is then the response
  /// with them in place and the reduction handles only their change, so y_
  /// stays near the solution even where the open-circuit voltage of a
  /// current-fed port node is far from it.
  Vector i_drawn_;
  Vector di_;  ///< scratch: a change of the port currents
  /// The update of each Newton iteration of the current time point, kept
  /// only under health collection (storage reused across the run).
  std::vector<double> newton_traj_;
};

}  // namespace fdtdmm
