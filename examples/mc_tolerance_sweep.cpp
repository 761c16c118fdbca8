// Monte Carlo sweeps end to end, on the two workloads the stochastic axes
// were built for:
//
//  1. Manufacturing tolerance (signal integrity): the coupled-line
//     crosstalk scenario under Latin-hypercube draws of its fabrication-
//     sensitive parameters (line length, coupling, terminations), grouped
//     by nominal coupling corner. The ensemble layer reports quantiles of
//     the victim's crosstalk peak and the probability of exceeding a
//     200 mV noise budget — the yield-style answer a worst-case corner
//     sweep cannot give.
//
//  2. Random illumination (EMC immunity): the quiescent-line
//     susceptibility scenario under uniform draws of the incident wave's
//     arrival angles and polarization, with common random numbers pairing
//     the draws across the two amplitude corners so their comparison is
//     sampling-noise-free. The incident field enters the MNA system
//     through RHS sources only, so the WHOLE ensemble is one structure
//     class sharing one RCM ordering, and each linear corner factors
//     exactly once — the run fails otherwise.
//
// Build & run:  ./example_mc_tolerance_sweep [--trace=trace.json] [--progress] [--health]
// Outputs:      mc_results.csv, mc_results.json, mc_telemetry.json,
//               mc_ensemble.csv, mc_ensemble.json,
//               mc_emc_ensemble.csv, mc_emc_ensemble.json
//               (+ optional Chrome trace)

#include <cstdio>

#include "engine/ensemble_stats.h"
#include "engine/sweep_runner.h"
#include "sweep_cli.h"

int main(int argc, char** argv) {
  using namespace fdtdmm;

  sweepcli::Cli cli = sweepcli::init(argc, argv);

  // --- Part 1: crosstalk manufacturing-tolerance ensemble ---------------
  std::puts("# mc sweep 1: crosstalk yield under manufacturing tolerance");

  SweepSpec spec;
  spec.scenario = "crosstalk";
  spec.set("pattern", std::string("010"));
  spec.set("bit_time", 2e-9);
  spec.set("t_stop", 6e-9);
  spec.set("segments", 16.0);
  spec.axis("coupling", {0.1, 0.3});  // nominal coupling corners (grouping)
  StochasticAxis tol;
  tol.name = "tol";
  tol.params = {
      // +/- 5% line length at 3 sigma, fab spread of the terminations.
      truncatedNormalParam("line_length", 0.1, 0.0017, 0.095, 0.105),
      truncatedNormalParam("victim_r_far", 50.0, 2.5, 40.0, 60.0),
      uniformParam("agg_load_c", 0.5e-12, 2e-12),
  };
  tol.samples = 25;
  tol.seed = 2026;
  tol.sampling = McSampling::kLatinHypercube;
  spec.stochasticAxis(tol);

  const ExpandedSweep expanded = spec.expandDetailed();
  std::printf("# ensemble: %zu samples x %zu corners = %zu tasks\n",
              tol.samples, expanded.group_count, expanded.tasks.size());

  std::puts("# identifying the driver macromodel once (shared)...");
  SweepRunnerOptions opt;
  opt.workers = 0;  // all hardware threads
  cli.apply(opt);
  SweepRunner runner(opt);
  const SweepResult result = runner.run(expanded.tasks);
  std::printf("# %zu/%zu runs ok on %zu workers in %.2f s\n", result.okCount(),
              result.runs.size(), result.workers, result.wall_seconds);

  EnsembleOptions eopt;
  eopt.metrics = {"v_far_abs_peak", "settling_time"};
  eopt.quantiles = {0.05, 0.5, 0.95};
  eopt.exceedances = {{"v_far_abs_peak", 0.2, /*above=*/true}};
  const EnsembleStats stats = computeEnsembleStats(result, expanded, eopt);
  writeEnsembleCsv(stats, "mc_ensemble.csv");
  writeEnsembleJson(stats, "mc_ensemble.json");
  std::puts("# wrote mc_ensemble.csv, mc_ensemble.json");

  std::puts("corner,samples,xtalk_q05_mV,xtalk_med_mV,xtalk_q95_mV,P[>200mV]");
  for (const GroupEnsemble& g : stats.groups) {
    const MetricEnsemble& peak = g.metrics[0];
    std::printf("\"%s\",%zu,%.2f,%.2f,%.2f,%.2f\n", g.label.c_str(), g.samples,
                1e3 * peak.quantile_values[0], 1e3 * peak.quantile_values[1],
                1e3 * peak.quantile_values[2], g.exceedances[0].probability);
  }

  // --- Part 2: EMC random-illumination immunity (one factorization) -----
  std::puts("# mc sweep 2: quiescent-line immunity under random illumination");

  SweepSpec emc;
  emc.scenario = "emc";
  emc.set("pattern", std::string("010"));
  emc.set("bit_time", 1e-9);
  emc.set("t_stop", 4e-9);
  emc.set("dt", 10e-12);
  emc.set("segments", 16.0);
  emc.set("pulse_t0", 1.5e-9);
  emc.set("bandwidth", 4e9);
  emc.set("drive", std::string("none"));  // quiescent line: victim only
  emc.axis("amplitude", {1e3, 2e3});      // immunity vs field strength
  StochasticAxis field;
  field.name = "field";
  field.params = {uniformParam("theta", 20.0, 160.0),
                  uniformParam("phi", 0.0, 360.0),
                  uniformParam("pol_theta", 0.05, 1.0)};
  field.samples = 32;
  field.seed = 7;
  field.sampling = McSampling::kLatinHypercube;
  // Same illumination draws for both amplitude corners: their immunity
  // comparison differences out the sampling noise entirely.
  field.common_random_numbers = true;
  emc.stochasticAxis(field);

  const ExpandedSweep emc_expanded = emc.expandDetailed();
  std::printf("# ensemble: %zu illuminations x %zu amplitudes = %zu tasks\n",
              field.samples, emc_expanded.group_count,
              emc_expanded.tasks.size());

  SweepRunnerOptions emc_opt;
  emc_opt.workers = 0;
  emc_opt.model_cache = runner.cache();  // share the identified models
  cli.apply(emc_opt);
  SweepRunner emc_runner(emc_opt);
  const SweepResult emc_result = emc_runner.run(emc_expanded.tasks);
  std::printf("# %zu/%zu runs ok on %zu workers in %.2f s\n",
              emc_result.okCount(), emc_result.runs.size(), emc_result.workers,
              emc_result.wall_seconds);

  EnsembleOptions emc_eopt;
  emc_eopt.metrics = {"v_far_abs_peak"};
  emc_eopt.quantiles = {0.5, 0.95};
  emc_eopt.exceedances = {{"v_far_abs_peak", 2.0, /*above=*/true}};
  const EnsembleStats emc_stats =
      computeEnsembleStats(emc_result, emc_expanded, emc_eopt);
  writeEnsembleCsv(emc_stats, "mc_emc_ensemble.csv");
  writeEnsembleJson(emc_stats, "mc_emc_ensemble.json");
  std::puts("# wrote mc_emc_ensemble.csv, mc_emc_ensemble.json");

  std::puts("corner,samples,noise_med_mV,noise_q95_mV,P[>2V]");
  for (const GroupEnsemble& g : emc_stats.groups) {
    const MetricEnsemble& peak = g.metrics[0];
    std::printf("\"%s\",%zu,%.2f,%.2f,%.2f\n", g.label.c_str(), g.samples,
                1e3 * peak.quantile_values[0], 1e3 * peak.quantile_values[1],
                g.exceedances[0].probability);
  }

  // The field corners differ only in RHS sources, so the whole 64-task
  // illumination ensemble is one structure class (ONE RCM ordering), and
  // every linear corner factors its base exactly once.
  std::size_t one_lu_corners = 0;
  for (const SweepRunRecord& run : emc_result.runs)
    if (run.telemetry.lu_factorizations == 1) ++one_lu_corners;
  std::printf("# emc solver cache: %zu/%zu corners with lu=1, %lld symbolic miss(es), "
              "%lld reuses\n",
              one_lu_corners, emc_result.runs.size(),
              emc_result.solver_cache.symbolic_misses,
              emc_result.solver_cache.symbolic_hits);
  const bool invariant_ok = one_lu_corners == emc_result.runs.size() &&
                            emc_result.solver_cache.symbolic_misses == 1;
  if (!invariant_ok)
    std::puts("# ERROR: illumination ensemble broke the one-LU-per-corner / "
              "one-ordering invariant");

  sweepcli::exportAndFinish(result, "mc", cli);
  return invariant_ok ? 0 : 1;
}
