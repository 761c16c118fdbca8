// The AC engine's per-thread workspace (freq/ac_engine.h): the numeric
// storage a finished AcSession leaves to the next session on its thread.
// Its own binary, because it replaces the global operator new to count
// the allocations of a session.
//
//  - a session that takes its thread's kept workspace and checks its
//    structure class out allocates no large block: it refactors in the
//    arrays of the session before it;
//  - only capacity carries over: sessions that alternate classes, with a
//    second netlist of the same dimension between them, solve bitwise as
//    on fresh threads;
//  - a pooled AC sweep (4 workers, the concurrent case the per-thread
//    workspaces exist for) exports the same metrics at 1 and 4 workers and
//    reports a kept workspace taken by every corner but each worker's first.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "circuit/rlgc_line.h"
#include "engine/solver_state_cache.h"
#include "engine/sweep_runner.h"
#include "freq/ac_engine.h"
#include "freq/rational_fit.h"

namespace {

// Blocks of at least this size come from mmap under glibc's default
// threshold, so each one costs a map and an unmap.
constexpr std::size_t kLargeBlock = 128 * 1024;

std::atomic<bool> g_counting{false};
std::atomic<long long> g_large_blocks{0};
std::atomic<long long> g_large_bytes{0};

}  // namespace

// Every plain and nothrow form, scalar and array, is replaced, so each
// block is taken from malloc() and given back to free() whichever form a
// library call pairs (std::get_temporary_buffer allocates nothrow and
// frees sized). They stay out of line, so the compiler never pairs an
// inlined malloc() or free() with an operator new or delete
// (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (size >= kLargeBlock && g_counting.load(std::memory_order_relaxed)) {
    g_large_blocks.fetch_add(1, std::memory_order_relaxed);
    g_large_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }

namespace fdtdmm {
namespace {

// Counts the large blocks allocated while it lives.
class LargeAllocationCount {
 public:
  LargeAllocationCount() {
    g_large_blocks = 0;
    g_large_bytes = 0;
    g_counting = true;
  }
  ~LargeAllocationCount() { g_counting = false; }
  LargeAllocationCount(const LargeAllocationCount&) = delete;
  LargeAllocationCount& operator=(const LargeAllocationCount&) = delete;
  long long blocks() const { return g_large_blocks; }
  long long bytes() const { return g_large_bytes; }
};

// The "ac" family's two-port fixture (freq/ac_family.h) on the benchmark's
// skin-effect line: a 1 V Thevenin source with 50 ohm at each port of a
// 5 ohm/m ladder whose segments each chain the four R-parallel-L branches
// of the k_skin = 2e-4 fit. At 1200 segments it has 14405 unknowns.
// `bridge` adds a capacitor across two inner nodes: the same unknowns on a
// wider pattern.
struct TwoPort {
  Circuit circuit;
  VoltageSource* src1 = nullptr;
  VoltageSource* src2 = nullptr;

  explicit TwoPort(std::size_t segments, bool bridge = false) {
    const int p1 = circuit.addNode();
    const int p2 = circuit.addNode();
    const int s1 = circuit.addNode();
    const int s2 = circuit.addNode();
    const TimeFn dark = [](double) { return 0.0; };
    src1 = circuit.addVoltageSource(s1, Circuit::kGround, dark);
    circuit.addResistor(s1, p1, 50.0);
    src2 = circuit.addVoltageSource(s2, Circuit::kGround, dark);
    circuit.addResistor(s2, p2, 50.0);
    RlgcParams line;
    line.r = 5.0;
    line.segments = segments;
    const SkinEffectFit fit = fitSkinEffect(line.r, 2e-4, 1e6, 1e10, 4);
    line.l -= skinFitInductance(fit);
    std::vector<SeriesRlBranch> branches;
    for (const SkinBranch& b : fit.branches)
      if (b.r > 0.0 && b.l > 0.0) branches.push_back({b.r, b.l});
    const std::vector<int> nodes = buildRlgcLineSegments(
        circuit, p1, Circuit::kGround, p2, Circuit::kGround, line, branches);
    if (bridge) circuit.addCapacitor(nodes[1], nodes[6], 1e-12);
  }
};

// The forward and reverse solutions of one S-parameter point, as the "ac"
// family takes them: one session, port 1 then port 2 excited.
struct Solutions {
  ComplexVector forward;
  ComplexVector reverse;
};

Solutions solveBothWays(TwoPort& fx, const AcOptions& opt, double f_hz) {
  AcSession session(fx.circuit, opt);
  Solutions s;
  fx.src1->setAcValue(Complex(1.0, 0.0));
  fx.src2->setAcValue(Complex(0.0, 0.0));
  s.forward = session.solveAt(f_hz);
  fx.src1->setAcValue(Complex(0.0, 0.0));
  fx.src2->setAcValue(Complex(1.0, 0.0));
  s.reverse = session.solveAt(f_hz);
  return s;
}

// The second session of a structure class on one thread takes the first
// one's workspace and checks the class out: it adopts the pattern and
// keeps the LU analysis it already holds, so it allocates no large block.
// On fresh storage the same session allocates six (about 3.6 MB): the CSR
// values and column indices, the LU band and its solve scratch, b and x.
// The circuit build lies outside the counted window.
TEST(AcWorkspace, SecondSessionOfAClassAllocatesNoLargeBlock) {
  long long blocks = -1;
  long long bytes = -1;
  obs::RunTelemetry first_tel, second_tel;
  std::thread([&] {
    SolverStateCache cache;
    AcOptions opt;
    opt.sharing.provider = &cache;
    opt.telemetry = &first_tel;
    {
      TwoPort first(1200);
      solveBothWays(first, opt, 1e8);
    }
    TwoPort second(1200);
    opt.telemetry = &second_tel;
    const LargeAllocationCount count;
    {
      AcSession session(second.circuit, opt);
      session.solveAt(3e8);
      second.src1->setAcValue(Complex(0.0, 0.0));
      second.src2->setAcValue(Complex(1.0, 0.0));
      session.solveAt(3e8);
    }
    blocks = count.blocks();
    bytes = count.bytes();
  }).join();
  EXPECT_EQ(first_tel.workspace_reuses, 0);
  EXPECT_EQ(first_tel.shared_symbolic_builds, 1);
  EXPECT_EQ(second_tel.workspace_reuses, 1);
  EXPECT_EQ(second_tel.shared_symbolic_reuses, 1);
  EXPECT_EQ(second_tel.structure.unknowns, 14405);
  EXPECT_EQ(second_tel.lu_factorizations, 1);
  EXPECT_EQ(blocks, 0) << bytes << " bytes";
}

// One step of the sequence below: a ladder and a frequency.
struct Step {
  std::size_t segments;
  bool bridge;
  double f_hz;
};

// Runs `steps` in order against one cache, each session on `run_on`'s
// choice of thread, and returns every solution plus the summed telemetry.
template <typename RunOn>
std::vector<Solutions> runSteps(const std::vector<Step>& steps, RunOn run_on,
                                obs::RunTelemetry& tel) {
  SolverStateCache cache;
  std::vector<Solutions> out(steps.size());
  for (std::size_t k = 0; k < steps.size(); ++k) {
    run_on([&, k] {
      const Step& s = steps[k];
      TwoPort fx(s.segments, s.bridge);
      AcOptions opt;
      opt.sharing.provider = &cache;
      opt.telemetry = &tel;
      out[k] = solveBothWays(fx, opt, s.f_hz);
    });
  }
  return out;
}

// Sessions that alternate two structure classes (different segment
// counts, so different dimensions and patterns) on one thread, with a
// third class between them (the bridged 40-segment ladder: the same
// dimension on a wider pattern), take one another's workspaces. Their
// solutions are bitwise those of the same sessions each run on a fresh
// thread, i.e. on fresh storage.
TEST(AcWorkspace, AlternatingClassesOnOneThreadMatchFreshThreadsBitwise) {
  const std::vector<Step> steps = {
      {40, false, 1e8}, {24, false, 2e8}, {40, false, 3e8}, {40, true, 3e8},
      {24, false, 1e9}, {40, false, 1e8}, {24, false, 2e8},
  };
  obs::RunTelemetry shared_tel, fresh_tel;
  std::vector<Solutions> one_thread;
  std::thread([&] {
    one_thread = runSteps(steps, [](const auto& body) { body(); }, shared_tel);
  }).join();
  const std::vector<Solutions> fresh = runSteps(
      steps, [](const auto& body) { std::thread(body).join(); }, fresh_tel);

  ASSERT_EQ(one_thread.size(), fresh.size());
  for (std::size_t k = 0; k < steps.size(); ++k) {
    EXPECT_EQ(one_thread[k].forward, fresh[k].forward) << k;
    EXPECT_EQ(one_thread[k].reverse, fresh[k].reverse) << k;
  }
  EXPECT_EQ(shared_tel.workspace_reuses, static_cast<long long>(steps.size()) - 1);
  EXPECT_EQ(fresh_tel.workspace_reuses, 0);
  // One compile per class, on either storage.
  EXPECT_EQ(shared_tel.pattern_compiles, 3);
  EXPECT_EQ(fresh_tel.pattern_compiles, 3);
  EXPECT_EQ(shared_tel.shared_symbolic_reuses, 4);
}

// A pooled AC sweep: every worker keeps its own workspace, so the
// metrics are byte-identical at 1 and 4 workers and every corner but each
// worker's first takes a kept workspace.
TEST(AcWorkspace, PooledSweepKeepsOneWorkspacePerWorker) {
  SweepSpec spec;
  spec.scenario = "ac";
  spec.set("segments", 64.0);
  spec.set("line_r", 5.0);
  spec.set("k_skin", 2e-4);
  std::vector<double> f;
  for (int k = 0; k < 24; ++k) f.push_back(1e6 * std::pow(10.0, 0.15 * k));
  spec.axis("frequency", f);

  const auto run = [&](std::size_t workers) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    opt.keep_waveforms = true;
    return SweepRunner(opt).run(spec);
  };
  const SweepResult serial = run(1);
  const SweepResult pooled = run(4);
  ASSERT_EQ(serial.okCount(), f.size());
  ASSERT_EQ(pooled.okCount(), f.size());
  long long serial_reuses = 0, pooled_reuses = 0;
  for (std::size_t k = 0; k < f.size(); ++k) {
    // H and the four S-parameters, Re and Im.
    const std::vector<Waveform>& a = serial.runs[k].waves.victims;
    const std::vector<Waveform>& b = pooled.runs[k].waves.victims;
    ASSERT_EQ(a.size(), 10u) << k;
    ASSERT_EQ(b.size(), a.size()) << k;
    for (std::size_t v = 0; v < a.size(); ++v)
      EXPECT_EQ(b[v].samples(), a[v].samples()) << k << "/" << v;
    serial_reuses += serial.runs[k].telemetry.workspace_reuses;
    pooled_reuses += pooled.runs[k].telemetry.workspace_reuses;
  }
  EXPECT_EQ(serial_reuses, static_cast<long long>(f.size()) - 1);
  EXPECT_GE(pooled_reuses, static_cast<long long>(f.size()) - 4);
  EXPECT_LE(pooled_reuses, static_cast<long long>(f.size()) - 1);
}

}  // namespace
}  // namespace fdtdmm
