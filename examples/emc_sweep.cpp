// EMC immunity sweep: plane-wave angle x amplitude grid over the "emc"
// scenario family, batched by the parallel sweep engine. This is the
// workload the ROADMAP's "EMC susceptibility family" item asked for: the
// paper's one-at-a-time incident-field board runs become a declarative
// grid at MNA speed (a quiescent victim trace needs no macromodels at
// all, so every corner is a pure field-coupled transient).
//
// Build & run:  ./example_emc_sweep [--trace=trace.json] [--progress] [--health]
// Outputs:      emc_results.csv, emc_results.json, emc_telemetry.json
//               (+ optional Chrome trace)

#include <cmath>
#include <cstdio>

#include "engine/sweep_runner.h"
#include "sweep_cli.h"

int main(int argc, char** argv) {
  using namespace fdtdmm;

  sweepcli::Cli cli = sweepcli::init(argc, argv);

  std::puts("# emc sweep: incidence angle x amplitude (quiescent victim trace)");

  SweepSpec spec;
  spec.scenario = "emc";
  spec.set("drive", std::string("none"));  // quiescent line: no macromodels
  spec.set("t_stop", 6e-9);
  spec.set("segments", 32.0);
  spec.set("pulse_t0", 2e-9);
  spec.axis("theta", {20.0, 40.0, 60.0, 90.0});
  spec.axis("amplitude", {500.0, 1000.0, 2000.0});
  std::printf("# grid: %zu simulation tasks\n", spec.count());

  SweepRunnerOptions opt;
  opt.workers = 0;  // all hardware threads
  cli.apply(opt);
  SweepRunner runner(opt);
  const SweepResult result = runner.run(spec);

  std::printf("# %zu/%zu runs ok on %zu workers in %.2f s\n", result.okCount(),
              result.runs.size(), result.workers, result.wall_seconds);
  std::puts("index,induced_peak_mV,label");
  for (const SweepRunRecord& run : result.runs) {
    if (!run.ok) {
      std::printf("%zu,FAILED: %s\n", run.index, run.error.c_str());
      continue;
    }
    const double peak = 1e3 * std::max(std::abs(run.metrics.v_far_max),
                                       std::abs(run.metrics.v_far_min));
    std::printf("%zu,%.2f,\"%s\"\n", run.index, peak, run.label.c_str());
  }

  // Where the solver time went, per corner (shared exporter): these are
  // linear runs, and amplitude/theta only reach the RHS — so with solver-
  // state sharing (default-on) the grid factors its base exactly once: one
  // corner shows lu=1, every other corner shows lu=0 and rides the shared
  // factorization.
  sweepcli::printPhaseTable(result);

  // The sweep-wide view of the same economy.
  std::printf("# solver cache: %lld base factorizations shared across %lld reuses\n",
              result.solver_cache.numeric_misses, result.solver_cache.numeric_hits);

  sweepcli::exportAndFinish(result, "emc", cli);
  return 0;
}
