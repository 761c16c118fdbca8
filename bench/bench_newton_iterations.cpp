// Reproduces the paper's in-text Newton-Raphson claim (Section 4): "the
// number of Newton-Raphson iterations required to solve the RBF model
// equations never exceeded a maximum number of three, whereas the accuracy
// threshold was set to the very stringent value of 1e-9."
//
// We instrument the 1D and 3D hybrid engines over both validation
// scenarios and print per-run maximum and average iteration counts, plus
// the circuit engine with the same RBF models (spice-rbf), whose Newton
// runs on the same port equations. Its count includes the iteration that
// confirms a converged step against the previous time point's solution,
// which the FDTD port solves do not take; it is reported, not gated.

#include <algorithm>
#include <cstdio>

#include "core/tline_scenario.h"
#include "fdtd1d/line1d.h"
#include "rbf/driver_model.h"
#include "rbf/receiver_model.h"

int main() {
  using namespace fdtdmm;
  std::puts("=== bench_newton: Newton-Raphson iteration counts (tol 1e-9) ===");

  const auto driver = defaultDriverModel();
  const auto receiver = defaultReceiverModel();

  std::puts("\nscenario,engine,max_iters,avg_iters_per_port_step");
  int worst = 0;

  {
    TlineScenario cfg;
    cfg.load = FarEndLoad::kLinearRc;
    const auto run = runFdtd1dTline(cfg, driver, receiver);
    worst = std::max(worst, run.max_newton_iterations);
    std::printf("fig4_rc,fdtd1d,%d,-\n", run.max_newton_iterations);
  }
  {
    TlineScenario cfg;
    cfg.load = FarEndLoad::kReceiver;
    const auto run = runFdtd1dTline(cfg, driver, receiver);
    worst = std::max(worst, run.max_newton_iterations);
    std::printf("fig5_receiver,fdtd1d,%d,-\n", run.max_newton_iterations);
  }
  {
    // Direct instrumentation of a 1D run for average counts.
    Line1dConfig lc;
    lc.zc = 131.0;
    lc.td = 0.4e-9;
    lc.cells = 160;
    const BitPattern pattern("010", 2e-9);
    auto near = std::make_shared<RbfDriverPort>(driver, pattern);
    auto far = std::make_shared<RbfReceiverPort>(receiver);
    Fdtd1dLine line(lc, near, far);
    const auto res = line.run(5e-9);
    const double avg = static_cast<double>(res.total_newton_iterations) /
                       (2.0 * static_cast<double>(res.steps));
    worst = std::max(worst, res.max_newton_iterations);
    std::printf("fig5_receiver,fdtd1d_instrumented,%d,%.3f\n",
                res.max_newton_iterations, avg);
  }
  {
    TlineScenario cfg;
    cfg.load = FarEndLoad::kReceiver;
    // Reduced 3D mesh keeps this bench snappy; bench_fig4/5 run full size.
    cfg.mesh_nx = 92;
    cfg.mesh_ny = 16;
    cfg.mesh_nz = 15;
    cfg.strip_len = 76;
    cfg.mesh_delta = 1.52e-3;
    cfg.td = 76.0 * 1.52e-3 / 299792458.0;
    const auto run = runFdtd3dTline(cfg, driver, receiver);
    worst = std::max(worst, run.max_newton_iterations);
    std::printf("fig5_receiver,fdtd3d,%d,-\n", run.max_newton_iterations);
  }

  int worst_spice = 0;
  for (const FarEndLoad load : {FarEndLoad::kLinearRc, FarEndLoad::kReceiver}) {
    TlineScenario cfg;
    cfg.load = load;
    const auto run = runSpiceRbfTline(cfg, driver, receiver);
    worst_spice = std::max(worst_spice, run.max_newton_iterations);
    std::printf("%s,spice-rbf,%d,-\n",
                load == FarEndLoad::kLinearRc ? "fig4_rc" : "fig5_receiver",
                run.max_newton_iterations);
  }

  std::printf("\nworst-case Newton iterations across the FDTD runs: %d\n", worst);
  std::printf("worst-case Newton iterations of the circuit engine (spice-rbf): %d\n",
              worst_spice);
  std::puts("paper claim: never exceeded 3 at threshold 1e-9.");
  return 0;
}
