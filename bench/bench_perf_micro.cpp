// Micro-benchmarks (google-benchmark) of the computational kernels behind
// the hybrid solver: Yee cell updates, Gaussian RBF evaluation, resampled
// state commit, the coupled port Newton solve, and the MNA step.

#include <benchmark/benchmark.h>

#include <memory>

#include "circuit/rlgc_line.h"
#include "circuit/transient.h"
#include "fdtd/solver.h"
#include "math/newton.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rbf/resampling.h"
#include "rbf/submodel.h"
#include "signal/linear_ports.h"

namespace {

using namespace fdtdmm;

void BM_FdtdStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GridSpec s;
  s.nx = s.ny = s.nz = n;
  s.dx = s.dy = s.dz = 1e-3;
  Grid3 g(s);
  g.pecPlateZ(n / 2, 1, n - 1, 1, n - 1);  // something to scatter off
  g.bake();
  FdtdSolver solver(std::move(g));
  solver.run(2);  // warm up / first-step init
  for (auto _ : state) {
    solver.run(1);
  }
  const double cells = static_cast<double>(n) * n * n;
  state.counters["Mcells/s"] = benchmark::Counter(
      cells * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FdtdStep)->Arg(16)->Arg(32)->Arg(64);

GaussianRbfParams benchRbfParams(std::size_t centers) {
  GaussianRbfParams p;
  p.order = 2;
  p.ts = 50e-12;
  p.beta = 0.5;
  p.i_scale = 100.0;
  p.theta.assign(centers, 0.001);
  p.c0.assign(centers, 0.0);
  p.cv.assign(centers, Vector{0.0, 0.0});
  p.ci.assign(centers, Vector{0.0, 0.0});
  for (std::size_t l = 0; l < centers; ++l) {
    p.c0[l] = -0.5 + 2.8 * static_cast<double>(l) / static_cast<double>(centers);
    p.cv[l] = {p.c0[l], p.c0[l]};
    p.ci[l] = {0.01 * static_cast<double>(l % 7), 0.0};
  }
  return p;
}

void BM_RbfEval(benchmark::State& state) {
  GaussianRbfSubmodel m(benchRbfParams(static_cast<std::size_t>(state.range(0))));
  const Vector xv{0.9, 0.85}, xi{0.002, 0.0015};
  double v = 0.9;
  for (auto _ : state) {
    double didv = 0.0;
    benchmark::DoNotOptimize(m.eval(v, xv, xi, &didv));
    v = v < 1.7 ? v + 1e-4 : 0.1;
  }
  state.counters["evals/s"] =
      benchmark::Counter(1, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RbfEval)->Arg(10)->Arg(40)->Arg(160);

void BM_ResampledCommit(benchmark::State& state) {
  GaussianRbfSubmodel m(benchRbfParams(40));
  ResampledSubmodelState st(&m, 1.4e-12);  // FDTD-like tau ~ 0.028
  st.reset(0.0);
  double v = 0.0;
  for (auto _ : state) {
    st.commit(v);
    v = v < 1.7 ? v + 1e-5 : 0.0;
  }
}
BENCHMARK(BM_ResampledCommit);

void BM_PortNewtonSolve(benchmark::State& state) {
  // The scalar Eq. (8) solve with an RBF-like device at realistic alphas.
  GaussianRbfSubmodel m(benchRbfParams(40));
  ResampledSubmodelState st(&m, 1.4e-12);
  st.reset(0.0);
  const double a0 = 1.0, a3 = 113.0;
  double v = 0.5;
  for (auto _ : state) {
    const double rhs = 0.7;
    auto f = [&](double vx, double& df) {
      double didv = 0.0;
      const double idev = st.eval(vx, didv);
      df = a0 + a3 * didv;
      return a0 * vx + a3 * idev - rhs;
    };
    NewtonOptions opt;
    opt.tolerance = 1e-9;
    newtonScalar(f, v, opt);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_PortNewtonSolve);

void BM_MnaTransientStep(benchmark::State& state) {
  // Cost of one SPICE step on a small nonlinear circuit, amortized.
  for (auto _ : state) {
    Circuit c;
    const int a = c.addNode();
    const int b = c.addNode();
    c.addVoltageSource(a, Circuit::kGround, [](double) { return 1.8; });
    c.addResistor(a, b, 50.0);
    c.addDiode(b, Circuit::kGround);
    c.addCapacitor(b, Circuit::kGround, 1e-12);
    TransientOptions opt;
    opt.dt = 1e-12;
    opt.t_stop = 100e-12;
    benchmark::DoNotOptimize(runTransient(c, opt, {{"v", b, 0}}));
  }
  state.counters["steps/s"] =
      benchmark::Counter(100, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MnaTransientStep);

void BM_MnaLinearTlineStep(benchmark::State& state) {
  // The linear-dominated hot path of the sweep engine: a lossy RLGC ladder
  // where the stamp split turns every Newton iteration into a pure
  // forward/back substitution.
  for (auto _ : state) {
    Circuit c;
    const int src = c.addNode();
    const int in = c.addNode();
    const int out = c.addNode();
    c.addVoltageSource(src, Circuit::kGround, [](double t) { return t >= 0.0 ? 1.8 : 0.0; });
    c.addResistor(src, in, 60.0);
    RlgcParams p;
    p.r = 4.0;
    p.segments = 24;
    buildRlgcLine(c, in, Circuit::kGround, out, Circuit::kGround, p);
    c.addResistor(out, Circuit::kGround, 500.0);
    TransientOptions opt;
    opt.dt = 2e-12;
    opt.t_stop = 200e-12;
    benchmark::DoNotOptimize(runTransient(c, opt, {{"v", out, 0}}));
  }
  state.counters["steps/s"] =
      benchmark::Counter(100, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MnaLinearTlineStep);

void BM_MnaTelemetryOverhead(benchmark::State& state) {
  // The observability overhead claim, measured: the same linear ladder as
  // BM_MnaLinearTlineStep with telemetry collection off (Arg 0) vs on
  // (Arg 1). Off leaves every phase timer a dead branch; the two variants
  // must stay within a few percent of each other (tracing stays disabled
  // in both — no writer is installed).
  const bool collect = state.range(0) != 0;
  obs::RunTelemetry tel;
  for (auto _ : state) {
    Circuit c;
    const int src = c.addNode();
    const int in = c.addNode();
    const int out = c.addNode();
    c.addVoltageSource(src, Circuit::kGround, [](double t) { return t >= 0.0 ? 1.8 : 0.0; });
    c.addResistor(src, in, 60.0);
    RlgcParams p;
    p.r = 4.0;
    p.segments = 24;
    buildRlgcLine(c, in, Circuit::kGround, out, Circuit::kGround, p);
    c.addResistor(out, Circuit::kGround, 500.0);
    TransientOptions opt;
    opt.dt = 2e-12;
    opt.t_stop = 200e-12;
    opt.telemetry = collect ? &tel : nullptr;
    benchmark::DoNotOptimize(runTransient(c, opt, {{"v", out, 0}}));
  }
  state.counters["steps/s"] =
      benchmark::Counter(100, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MnaTelemetryOverhead)->Arg(0)->Arg(1);

void BM_MnaHealthOverhead(benchmark::State& state) {
  // The numerical-health overhead claim, measured: the same ladder with
  // telemetry on in both variants, health collection off (Arg 0) vs on
  // (Arg 1). Off must be indistinguishable from plain telemetry (every
  // health site is one branch); on adds the per-factorization pivot
  // copies, the Newton trajectories, and the end-of-run residual +
  // condition estimate.
  const bool collect = state.range(0) != 0;
  obs::RunTelemetry tel;
  for (auto _ : state) {
    Circuit c;
    const int src = c.addNode();
    const int in = c.addNode();
    const int out = c.addNode();
    c.addVoltageSource(src, Circuit::kGround, [](double t) { return t >= 0.0 ? 1.8 : 0.0; });
    c.addResistor(src, in, 60.0);
    RlgcParams p;
    p.r = 4.0;
    p.segments = 24;
    buildRlgcLine(c, in, Circuit::kGround, out, Circuit::kGround, p);
    c.addResistor(out, Circuit::kGround, 500.0);
    TransientOptions opt;
    opt.dt = 2e-12;
    opt.t_stop = 200e-12;
    opt.telemetry = &tel;
    opt.health.collect = collect;
    benchmark::DoNotOptimize(runTransient(c, opt, {{"v", out, 0}}));
  }
  state.counters["steps/s"] =
      benchmark::Counter(100, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MnaHealthOverhead)->Arg(0)->Arg(1);

void BM_HistogramRecord(benchmark::State& state) {
  // One log-bucket increment: ln, scale, bucket add. This is the per-sample
  // cost of the sweep latency histograms.
  obs::Histogram h;
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;
    benchmark::DoNotOptimize(&h);
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramRegistryRecord(benchmark::State& state) {
  // The registry path the sweep workers use: thread-shard lookup + named
  // histogram lookup + record.
  obs::HistogramRegistry reg;
  double v = 1e-6;
  for (auto _ : state) {
    reg.record("corner_wall_seconds", v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;
  }
}
BENCHMARK(BM_HistogramRegistryRecord);

void BM_DisabledTraceSpan(benchmark::State& state) {
  // Cost of a TraceSpan in the no-writer case: one atomic load and a
  // branch at each end. This is what every instrumented hot path pays
  // when tracing is off.
  for (auto _ : state) {
    obs::TraceSpan span("bench", "obs");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_DisabledTraceSpan);

}  // namespace

BENCHMARK_MAIN();
