// Frequency-domain sweep: log-spaced frequency axis over the "ac" scenario
// family (complex MNA, S-parameters), batched by the same parallel sweep
// engine as every transient family. The matched lossless ladder has the
// closed form H = 0.5 e^{-j w Td}, so the printed |H| column should sit at
// 0.5 across the band — and because frequency only changes matrix VALUES,
// all corners of one line share a single complex symbolic analysis.
//
// Build & run:  ./example_ac_sweep [--trace=trace.json] [--progress] [--health]
// Outputs:      ac_results.csv, ac_results.json, ac_telemetry.json
//               (+ optional Chrome trace)

#include <cmath>
#include <cstdio>
#include <vector>

#include "engine/sweep_runner.h"
#include "sweep_cli.h"

int main(int argc, char** argv) {
  using namespace fdtdmm;

  sweepcli::Cli cli = sweepcli::init(argc, argv);

  std::puts("# ac sweep: log-spaced frequency axis, matched 50-ohm line");

  // 13 points, 1 MHz .. 1 GHz (the 32-segment ladder is a faithful line
  // model well past 1 GHz for the default 10 cm geometry).
  std::vector<double> freqs;
  for (int k = 0; k <= 12; ++k) freqs.push_back(1e6 * std::pow(10.0, k / 4.0));

  SweepSpec spec;
  spec.scenario = "ac";
  spec.axis("frequency", freqs);
  std::printf("# grid: %zu simulation tasks\n", spec.count());

  SweepRunnerOptions opt;
  opt.workers = 0;  // all hardware threads
  cli.apply(opt);
  SweepRunner runner(opt);
  const SweepResult result = runner.run(spec);

  std::printf("# %zu/%zu runs ok on %zu workers in %.2f s\n", result.okCount(),
              result.runs.size(), result.workers, result.wall_seconds);

  // v_far carries |H|; the victims waveforms carry Re/Im of H and the
  // four S-parameters (ac_family.h's waveform mapping).
  std::puts("index,|H|,label");
  for (const SweepRunRecord& run : result.runs) {
    if (!run.ok) {
      std::printf("%zu,FAILED: %s\n", run.index, run.error.c_str());
      continue;
    }
    std::printf("%zu,%.6f,\"%s\"\n", run.index, run.metrics.v_far_max,
                run.label.c_str());
  }

  // The sharing economy at AC: all corners form one structure class and
  // perform ONE complex symbolic analysis between them; every other
  // frequency point reuses it.
  std::printf("# solver cache: %lld symbolic analyses shared across %lld reuses\n",
              result.solver_cache.symbolic_misses, result.solver_cache.symbolic_hits);

  sweepcli::exportAndFinish(result, "ac", cli);
  return 0;
}
