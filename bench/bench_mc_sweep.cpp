// Benchmark of the Monte Carlo sweep subsystem's sample-efficiency claim:
// Latin-hypercube sampling reaches a target quantile-estimate accuracy
// with at least 2x fewer samples than i.i.d. sampling. Measured on the
// real expansion machinery (expandDetailed() draws) against a closed-form
// response with a known exact quantile, replicated over many seeds — fully
// deterministic, gated in every build. (That a random-illumination EMC
// ensemble factors its base matrix once is pinned by tests/test_mc_sweep.)
//
// Writes BENCH_mc.json for the CI bench job's artifact trail.

#include <cmath>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "bench_json.h"
#include "engine/sweep_spec.h"
#include "math/stats.h"

namespace {

using namespace fdtdmm;

// The response surface: Y = zc + load_r / 10 over zc ~ U[50, 150),
// load_r ~ U[100, 900) is trapezoidal on [60, 240], symmetric about its
// exact median 150 — the target quantile the two sampling modes race to
// estimate. (Stratification helps every quantile, but the margin is
// widest away from the distribution tails, so the median makes the
// 2x-fewer-samples gate deterministic rather than borderline.)
constexpr double kTargetQuantile = 0.50;
constexpr double kExactQuantile = 150.0;

double estimateQuantile(std::size_t samples, std::uint64_t seed,
                        McSampling mode) {
  SweepSpec spec;
  spec.scenario = "tline";
  StochasticAxis mc;
  mc.name = "mc";
  mc.params = {uniformParam("zc", 50.0, 150.0),
               uniformParam("load_r", 100.0, 900.0)};
  mc.samples = samples;
  mc.seed = seed;
  mc.sampling = mode;
  spec.stochasticAxis(mc);

  std::vector<double> y;
  for (const TaskProvenance& prov : spec.expandDetailed().provenance) {
    double zc = 0.0, load_r = 0.0;
    for (const ParamBinding& b : prov.sampled) {
      if (b.param == "zc") zc = std::get<double>(b.value);
      if (b.param == "load_r") load_r = std::get<double>(b.value);
    }
    y.push_back(zc + load_r / 10.0);
  }
  return quantile(y, kTargetQuantile);
}

double rmsQuantileError(std::size_t samples, McSampling mode,
                        std::size_t seeds) {
  double sum_sq = 0.0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const double err = estimateQuantile(samples, seed, mode) - kExactQuantile;
    sum_sq += err * err;
  }
  return std::sqrt(sum_sq / static_cast<double>(seeds));
}

}  // namespace

int main() {
  std::puts("=== bench_mc_sweep: LHS sample efficiency ===");
  int failures = 0;

  // Quantile accuracy: LHS at N/2 vs i.i.d. at N.
  constexpr std::size_t kIidSamples = 128;
  constexpr std::size_t kSeeds = 50;
  const double iid_err =
      rmsQuantileError(kIidSamples, McSampling::kIid, kSeeds);
  const double lhs_err =
      rmsQuantileError(kIidSamples / 2, McSampling::kLatinHypercube, kSeeds);
  std::printf("q%.2f RMS error over %zu seeds: iid(N=%zu) %.4f, "
              "lhs(N=%zu) %.4f\n",
              kTargetQuantile, kSeeds, kIidSamples, iid_err, kIidSamples / 2,
              lhs_err);
  if (!(lhs_err < iid_err)) {
    std::puts("FAIL: LHS at half the samples should beat i.i.d. accuracy");
    ++failures;
  }

  const bool pass = failures == 0;
  using benchutil::num;
  const std::string json = std::string("{\n") +
      "  \"bench\": \"mc_sweep\",\n" +
      "  \"build\": \"" + benchutil::buildKind() + "\",\n" +
      "  \"target_quantile\": " + num(kTargetQuantile) + ",\n" +
      "  \"iid_samples\": " + std::to_string(kIidSamples) + ",\n" +
      "  \"lhs_samples\": " + std::to_string(kIidSamples / 2) + ",\n" +
      "  \"replicate_seeds\": " + std::to_string(kSeeds) + ",\n" +
      "  \"iid_rms_error\": " + num(iid_err) + ",\n" +
      "  \"lhs_rms_error\": " + num(lhs_err) + ",\n" +
      "  \"lhs_sample_efficiency_ok\": " +
      (lhs_err < iid_err ? "true" : "false") + ",\n" +
      "  \"pass\": " + (pass ? "true" : "false") + "\n}\n";
  if (!benchutil::writeFile("BENCH_mc.json", json)) ++failures;
  std::puts("\nwrote BENCH_mc.json");

  if (failures == 0) std::puts("all checks passed");
  return failures == 0 ? 0 : 1;
}
