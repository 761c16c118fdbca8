// EMC susceptibility throughput bench: the circuit-path (Taylor/Agrawal
// MNA) field-coupled line against the matched 3D FDTD incident run — the
// speedup that makes immunity *sweeps* practical. One FDTD reference run
// is timed against the same trace solved by runEmcScenario, the peak
// induced voltages are cross-checked (the physics gate), and a 12-corner
// angle x amplitude sweep is pushed through the parallel engine to report
// batched throughput; the sweep's counter and histogram block rides along
// in the JSON artifact.
//
// Exit status is nonzero (Release builds) if the per-scenario speedup of
// the circuit path falls below the floor (default 10x; override with
// --min-speedup=<x> / FDTDMM_BENCH_MIN_EMC_SPEEDUP for noisy CI runners),
// or — in any build — if the two engines' peak induced voltages disagree
// beyond the documented cross-validation tolerance. Writes BENCH_emc.json
// for the CI bench job's artifact trail.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "emc/fdtd_reference.h"
#include "engine/sweep_runner.h"

namespace {

using namespace fdtdmm;
using Clock = std::chrono::steady_clock;

double peakAbs(const Waveform& w) {
  double peak = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k)
    peak = std::max(peak, std::abs(w[k]));
  return peak;
}

}  // namespace

int main(int argc, char** argv) {
  std::puts("=== bench_emc_sweep: circuit-path EMC vs 3D FDTD incident run ===");
  const double min_speedup =
      benchutil::minSpeedup(argc, argv, "FDTDMM_BENCH_MIN_EMC_SPEEDUP", 10.0);
  int failures = 0;

  // --- One matched scenario: FDTD reference vs circuit path. ------------
  EmcFdtdReference ref;  // 24-cell trace over an infinite ground plane
  const EmcFdtdReferenceRun fdtd = runEmcFdtdReference(ref);
  const EmcScenario matched = matchedEmcScenario(ref);

  // Best of 3 for the (fast) circuit path; the FDTD run dominates anyway.
  double mna_seconds = 1e9;
  TaskWaveforms mna;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    mna = runEmcScenario(matched, nullptr, nullptr);
    mna_seconds = std::min(
        mna_seconds, std::chrono::duration<double>(Clock::now() - start).count());
  }

  const double speedup = fdtd.wall_seconds / mna_seconds;
  const double far_ratio = peakAbs(mna.v_far) / peakAbs(fdtd.v_far);
  const double near_ratio = peakAbs(mna.v_near) / peakAbs(fdtd.v_near);
  std::printf("  3D FDTD reference: %8.3f s   (grid incident run)\n",
              fdtd.wall_seconds);
  std::printf("  circuit-path MNA:  %8.4f s   -> %.0fx per scenario\n",
              mna_seconds, speedup);
  std::printf("  peak induced voltage ratio (MNA/FDTD): near %.3f, far %.3f\n",
              near_ratio, far_ratio);

  // Physics gate, always on: the cross-validation tolerance of
  // tests/test_emc_fdtd_xval.cpp with bench-level slack.
  if (!(far_ratio > 0.7 && far_ratio < 1.4) ||
      !(near_ratio > 0.7 && near_ratio < 1.4)) {
    std::puts("FAIL: circuit-path and FDTD induced peaks disagree beyond 40%");
    ++failures;
  }
#ifdef NDEBUG
  if (speedup < min_speedup) {
    std::printf("FAIL: expected >= %.1fx per-scenario speedup\n", min_speedup);
    ++failures;
  }
#else
  std::puts("(non-optimized build: speedup reported, not gated)");
#endif

  // --- Batched sweep throughput (the point of the family). --------------
  SweepSpec spec;
  spec.scenario = "emc";
  spec.set("drive", std::string("none"));
  spec.set("t_stop", 6e-9);
  spec.set("segments", 32.0);
  spec.set("pulse_t0", 2e-9);
  spec.axis("theta", {20.0, 40.0, 60.0, 90.0});
  spec.axis("amplitude", {500.0, 1000.0, 2000.0});
  SweepRunnerOptions opt;
  opt.workers = 0;
  SweepRunner runner(opt);
  const SweepResult sweep = runner.run(spec);
  if (sweep.okCount() != sweep.runs.size()) {
    std::puts("FAIL: sweep corners failed");
    ++failures;
  }
  const double per_corner = sweep.wall_seconds / static_cast<double>(sweep.runs.size());
  std::printf("  sweep: %zu corners on %zu workers in %.2f s (%.1f ms/corner)\n",
              sweep.runs.size(), sweep.workers, sweep.wall_seconds,
              1e3 * per_corner);
  std::printf("  the same grid at 3D FDTD cost would take ~%.0f s\n",
              fdtd.wall_seconds * static_cast<double>(sweep.runs.size()));

  const bool pass = failures == 0;
  using benchutil::num;
  const std::string json = std::string("{\n") +
      "  \"bench\": \"emc_sweep\",\n" +
      "  \"build\": \"" + benchutil::buildKind() + "\",\n" +
      "  \"min_speedup\": " + num(min_speedup) + ",\n" +
      "  \"fdtd_seconds\": " + num(fdtd.wall_seconds) + ",\n" +
      "  \"mna_seconds\": " + num(mna_seconds) + ",\n" +
      "  \"speedup\": " + num(speedup) + ",\n" +
      "  \"peak_ratio_near\": " + num(near_ratio) + ",\n" +
      "  \"peak_ratio_far\": " + num(far_ratio) + ",\n" +
      "  \"sweep_corners\": " + std::to_string(sweep.runs.size()) + ",\n" +
      "  \"sweep_seconds\": " + num(sweep.wall_seconds) + ",\n" +
      "  \"seconds_per_corner\": " + num(per_corner) + ",\n" +
      "  \"sweep_observability\": " + benchutil::sweepObservabilityJson(sweep) +
      ",\n" +
      "  \"pass\": " + (pass ? "true" : "false") + "\n}\n";
  if (!benchutil::writeFile("BENCH_emc.json", json)) ++failures;
  std::puts("\nwrote BENCH_emc.json");

  if (failures == 0) std::puts("all checks passed");
  return failures == 0 ? 0 : 1;
}
