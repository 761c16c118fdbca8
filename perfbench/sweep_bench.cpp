// Sweep benchmark driver. Builds one named workload through the public
// sweep API (SweepSpec -> ModelCache::preload -> SweepRunner::run) and
// measures it in one of three modes; run.py orchestrates the modes and turns
// their JSON output into the benchmark's metrics.
//
//   sweep_bench --mode setup  --workload W --seed N [--tiny]
//       One cold set-up: ModelCache::preload (which runs macromodel
//       identification) plus the mean time of SweepSpec::expandDetailed.
//       Preload is cold only once per process, because the built-in models
//       are cached process-wide.
//   sweep_bench --mode timed  --workload W --seed N --seconds S --workers K
//               --csv F [--tiny]
//       One cold set-up, then back-to-back sweeps of the expanded tasks, each
//       on a fresh SweepRunner (fresh solver-state and result caches, the
//       preloaded model cache shared), until S seconds have passed. Writes
//       the first sweep's metrics CSV to F and compares every later sweep's
//       CSV with it row by row.
//   sweep_bench --mode traced --workload W --seed N --csv F --trace-file T
//               [--tiny]
//       Per-layer run on 1 worker with keep_waveforms: pairs of the same
//       sweep untraced and under an active obs::TraceWriter, with a span
//       around each call into a layer. Writes the first traced sweep's CSV
//       to F and the Chrome trace to T.
//
// Every mode prints exactly one JSON object on stdout and exits 0; a usage
// or set-up error exits 2 with a message on stderr.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/model_cache.h"
#include "engine/sweep_result.h"
#include "engine/sweep_runner.h"
#include "engine/sweep_spec.h"
#include "fdtd/grid.h"
#include "math/rng.h"
#include "obs/trace.h"
#include "signal/bit_pattern.h"

namespace {

using namespace fdtdmm;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t workers = 4;
  std::string csv;
  std::string trace_file;
  bool tiny = false;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--mode") a.mode = val;
    else if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--workers") a.workers = std::stoul(val);
    else if (key == "--csv") a.csv = val;
    else if (key == "--trace-file") a.trace_file = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.mode != "setup" && a.mode != "timed" && a.mode != "traced")
    throw std::invalid_argument("--mode must be setup, timed or traced");
  if (a.workers == 0) throw std::invalid_argument("--workers must be >= 1");
  if (a.mode != "setup" && a.csv.empty()) throw std::invalid_argument("--csv is required");
  if (a.mode == "traced" && a.trace_file.empty())
    throw std::invalid_argument("--trace-file is required");
  return a;
}

// ---------------------------------------------------------------------------
// Workloads. Only the parameters that define a workload are bound; every
// other parameter (the transient solver mode included) keeps its family
// default, so the benchmark measures what a user of the defaults gets.
// ---------------------------------------------------------------------------

/// Seeded uniform draw in [0, 1) for workload-level choices that are not a
/// StochasticAxis (frequency-grid phase, illumination angles).
double seededUniform(std::uint64_t seed, const std::string& stream, std::uint64_t draw) {
  return splitStream(seed, fnv1a64(stream), draw).uniform();
}

/// Crosstalk tolerance ensemble: nonlinear RBF driver, Latin hypercube over
/// four fabrication-sensitive parameters.
SweepSpec xtalkSpec(std::uint64_t seed, bool tiny) {
  SweepSpec s;
  s.scenario = "crosstalk";
  s.set("segments", tiny ? 8.0 : 48.0);
  StochasticAxis tol;
  tol.name = "tol";
  tol.params = {
      uniformParam("coupling", 0.1, 0.3),
      truncatedNormalParam("line_length", 0.1, 0.0017, 0.095, 0.105),
      truncatedNormalParam("victim_r_far", 50.0, 2.5, 40.0, 60.0),
      uniformParam("agg_load_c", 0.5e-12, 2e-12),
  };
  tol.samples = tiny ? 4 : 16;
  tol.seed = seed;
  tol.sampling = McSampling::kLatinHypercube;
  s.stochasticAxis(tol);
  return s;
}

/// Quiescent-line immunity ensemble: random illumination of a resistively
/// terminated trace; the corners differ only in right-hand-side sources.
SweepSpec emcSpec(std::uint64_t seed, bool tiny) {
  SweepSpec s;
  s.scenario = "emc";
  s.set("drive", std::string("none"));
  s.set("segments", tiny ? 16.0 : 400.0);
  StochasticAxis field;
  field.name = "field";
  field.params = {
      uniformParam("theta", 20.0, 160.0),
      uniformParam("phi", 0.0, 360.0),
      uniformParam("pol_theta", 0.05, 1.0),
      uniformParam("amplitude", 500.0, 2000.0),
  };
  field.samples = tiny ? 4 : 12;
  field.seed = seed;
  field.sampling = McSampling::kLatinHypercube;
  s.stochasticAxis(field);
  return s;
}

/// Skin-effect line over a log-spaced frequency axis; the seed shifts the
/// grid by a fraction of one step.
SweepSpec acSpec(std::uint64_t seed, bool tiny) {
  SweepSpec s;
  s.scenario = "ac";
  s.set("segments", tiny ? 32.0 : 1200.0);
  s.set("line_r", 5.0);
  s.set("k_skin", 2e-4);
  const std::size_t n = tiny ? 8 : 200;
  const double phase = seededUniform(seed, "ac_skin_sweep/frequency", 0);
  std::vector<double> f(n);
  for (std::size_t i = 0; i < n; ++i)
    f[i] = std::pow(10.0, 6.0 + 4.0 * (static_cast<double>(i) + phase) /
                                    static_cast<double>(n));
  s.axis("frequency", f);
  return s;
}

/// Reduced Fig. 6/7 board on the 3D FDTD engine: one clean corner plus a
/// few plane-wave corners at seeded, stratified incidence angles.
SweepSpec pcbSpec(std::uint64_t seed, bool tiny) {
  SweepSpec s;
  s.scenario = "pcb";
  s.set("board_cells", tiny ? 24.0 : 60.0);
  s.set("strip_len", tiny ? 12.0 : 44.0);
  s.set("margin", tiny ? 4.0 : 8.0);
  s.set("cell", 0.8e-3);
  const std::size_t field_corners = 3;
  ParamAxis corners;
  corners.name = "illumination";
  corners.points.push_back({{{"with_incident", ParamValue{false}}}});
  for (std::size_t k = 0; k < field_corners; ++k) {
    const double u = seededUniform(seed, "pcb_fdtd/inc_theta_deg", k);
    const double theta =
        30.0 + 120.0 * (static_cast<double>(k) + u) / static_cast<double>(field_corners);
    corners.points.push_back(
        {{{"with_incident", ParamValue{true}}, {"inc_theta_deg", ParamValue{theta}}}});
  }
  s.axis(corners);
  return s;
}

SweepSpec workloadSpec(const std::string& name, std::uint64_t seed, bool tiny) {
  if (name == "xtalk_mc") return xtalkSpec(seed, tiny);
  if (name == "emc_immunity_mc") return emcSpec(seed, tiny);
  if (name == "ac_skin_sweep") return acSpec(seed, tiny);
  if (name == "pcb_fdtd") return pcbSpec(seed, tiny);
  throw std::invalid_argument("unknown workload " + name);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Minimal JSON object writer for the one-line reports.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s_ << '"' << key << "\": " << buf;
    return *this;
  }
  JsonOut& raw(const std::string& key, const std::string& json) {
    sep();
    s_ << '"' << key << "\": " << json;
    return *this;
  }
  std::string str() const { return "{" + s_.str() + "}"; }

 private:
  void sep() {
    if (!first_) s_ << ", ";
    first_ = false;
  }
  std::ostringstream s_;
  bool first_ = true;
};

std::string numList(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string readFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) out.push_back(l);
  return out;
}

/// Rows (header excluded) of `b` that differ from the same row of `a`,
/// counting rows present in only one of them.
long long differingRows(const std::string& a, const std::string& b) {
  const std::vector<std::string> la = lines(a), lb = lines(b);
  long long diff = 0;
  const std::size_t n = std::max(la.size(), lb.size());
  for (std::size_t i = 1; i < n; ++i)
    if (i >= la.size() || i >= lb.size() || la[i] != lb[i]) ++diff;
  return diff;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Setup {
  ExpandedSweep expanded;
  std::shared_ptr<ModelCache> cache = std::make_shared<ModelCache>();
  double setup_s = 0.0;  ///< cold preload + mean expansion wall time
};

/// Expansion is repeated for at least this long and its mean taken: one
/// expansion of a model-free workload takes well under a millisecond, too
/// short to time against scheduler noise.
constexpr double kExpandSeconds = 0.05;

/// Mean wall time of SweepSpec::expandDetailed. Expansion is not cached, so
/// every call does the full work.
double meanExpandSeconds(const SweepSpec& spec) {
  std::size_t calls = 0, tasks = 0;
  const auto t0 = Clock::now();
  double total = 0.0;
  do {
    tasks += spec.expandDetailed().tasks.size();
    ++calls;
    total = since(t0);
  } while (total < kExpandSeconds);
  if (tasks == 0) throw std::runtime_error("workload expands to no tasks");
  return total / static_cast<double>(calls);
}

/// Cold set-up: expansion, then preload on the cache the runners share.
/// Preload is cold once per process and timed once; expansion is timed as a
/// mean over repeated calls.
Setup coldSetup(const SweepSpec& spec) {
  Setup s;
  s.expanded = spec.expandDetailed();
  const auto t0 = Clock::now();
  s.cache->preload(s.expanded.tasks);
  s.setup_s = since(t0) + meanExpandSeconds(spec);
  return s;
}

/// Totals of the deterministic per-corner counters of one sweep.
struct SweepCounts {
  long long ok = 0, lu = 0, newton = 0, steps = 0;
};

SweepCounts countsOf(const SweepResult& r) {
  SweepCounts c;
  for (const SweepRunRecord& rec : r.runs) {
    if (rec.ok) ++c.ok;
    c.lu += rec.telemetry.lu_factorizations;
    c.newton += rec.telemetry.newton_iterations;
    c.steps += rec.telemetry.steps;
  }
  return c;
}

std::string countsJson(const SweepCounts& c) {
  return JsonOut()
      .num("ok", static_cast<double>(c.ok))
      .num("lu", static_cast<double>(c.lu))
      .num("newton", static_cast<double>(c.newton))
      .num("steps", static_cast<double>(c.steps))
      .str();
}

SweepResult runSweep(const Setup& setup, std::size_t workers, bool keep_waveforms) {
  SweepRunnerOptions opt;
  opt.workers = workers;
  opt.keep_waveforms = keep_waveforms;
  opt.model_cache = setup.cache;
  SweepRunner runner(opt);
  return runner.run(setup.expanded.tasks);
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

int modeSetup(const Args& a) {
  const Setup s = coldSetup(workloadSpec(a.workload, a.seed, a.tiny));
  std::puts(JsonOut().num("setup_s", s.setup_s).str().c_str());
  return 0;
}

int modeTimed(const Args& a) {
  const Setup setup = coldSetup(workloadSpec(a.workload, a.seed, a.tiny));
  const std::string next_csv = a.csv + ".next";
  std::string first_csv;
  std::vector<std::string> sweeps;
  std::vector<double> corner_wall;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    const SweepResult r = runSweep(setup, a.workers, /*keep_waveforms=*/false);
    const double wall = since(t0);
    long long rows_differ = 0;
    if (sweeps.empty()) {
      writeSweepCsv(r, a.csv);
      first_csv = readFile(a.csv);
    } else {
      writeSweepCsv(r, next_csv);
      rows_differ = differingRows(first_csv, readFile(next_csv));
    }
    double slowest = 0.0;
    for (const SweepRunRecord& rec : r.runs) {
      if (!rec.ok) continue;
      corner_wall.push_back(rec.wall_seconds);
      slowest = std::max(slowest, rec.wall_seconds);
    }
    const SolverStateCacheStats& sc = r.solver_cache;
    sweeps.push_back(
        JsonOut()
            .num("wall_s", wall)
            .num("slowest_corner_s", slowest)
            .num("attempted", static_cast<double>(r.runs.size()))
            .raw("counts", countsJson(countsOf(r)))
            .num("rows_differ", static_cast<double>(rows_differ))
            .num("result_cache_hits", static_cast<double>(r.result_cache.hits))
            .num("busy_s", r.pool.busy_seconds)
            .num("workers", static_cast<double>(r.workers))
            .num("solver_hits", static_cast<double>(sc.symbolic_hits + sc.numeric_hits))
            .num("solver_misses",
                 static_cast<double>(sc.symbolic_misses + sc.numeric_misses))
            .str());
  } while (since(start) < a.seconds);
  std::remove(next_csv.c_str());

  std::string sweeps_json = "[";
  for (std::size_t i = 0; i < sweeps.size(); ++i) sweeps_json += (i ? ", " : "") + sweeps[i];
  sweeps_json += "]";
  std::puts(JsonOut()
                .num("setup_s", setup.setup_s)
                .raw("sweeps", sweeps_json)
                .raw("corner_wall_s", numList(corner_wall))
                .num("peak_rss_mb", peakRssMb())
                .str()
                .c_str());
  return 0;
}

/// FDTD work of one "pcb" corner, computed from the family's public
/// parameters through the same Grid3(GridSpec) the scenario builds.
struct FdtdWork {
  double cells = 0.0;
  double steps = 0.0;
};

FdtdWork pcbWork(const Scenario& sc) {
  obs::TraceSpan span("bench:fdtd.grid", "bench");
  const auto num = [&sc](const char* p) { return std::get<double>(sc.get(p)); };
  const std::size_t b = static_cast<std::size_t>(num("board_cells"));
  const std::size_t m = static_cast<std::size_t>(num("margin"));
  GridSpec spec;  // mirrors runPcbScenario's mesh
  spec.nx = spec.ny = b + 2 * m;
  spec.nz = 3 + 2 * m;
  spec.dx = spec.dy = spec.dz = num("cell");
  const Grid3 grid(spec);
  FdtdWork w;
  w.cells = static_cast<double>(grid.nx() * grid.ny() * grid.nz());
  // FdtdSolver::runUntil steps while step * dt < t_stop.
  const double t_stop = num("t_stop");
  while (w.steps * grid.dt() < t_stop) w.steps += 1.0;
  return w;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Untraced/traced sweep pairs of the traced mode: at least kMinPairs, then
/// more while fewer than kPairSeconds have passed, at most kMaxPairs. The
/// long pcb_fdtd sweeps get two pairs, the short ones up to six.
constexpr std::size_t kMinPairs = 2;
constexpr std::size_t kMaxPairs = 6;
constexpr double kPairSeconds = 30.0;

int modeTraced(const Args& a) {
  const SweepSpec spec = workloadSpec(a.workload, a.seed, a.tiny);
  obs::TraceWriter writer(a.trace_file);
  obs::TraceWriter::setActive(&writer);

  // Set-up, one span per layer call: expansion (timed as a mean, as in
  // coldSetup), then each identification on its own (the preload afterwards
  // only hits the cache).
  Setup setup;
  double expand_s = 0.0;
  {
    obs::TraceSpan span("bench:engine.expand", "bench");
    expand_s = meanExpandSeconds(spec);
    setup.expanded = spec.expandDetailed();
  }
  bool needs_driver = false, needs_receiver = false;
  for (const SimulationTask& t : setup.expanded.tasks) {
    needs_driver = needs_driver || t.scenario->needsDriver();
    needs_receiver = needs_receiver || t.scenario->needsReceiver();
  }
  double ident_driver_s = 0.0, ident_receiver_s = 0.0;
  if (needs_driver) {
    obs::TraceSpan span("bench:rbf.identify_driver", "bench");
    const auto t0 = Clock::now();
    setup.cache->driver("default");
    ident_driver_s = since(t0);
  }
  if (needs_receiver) {
    obs::TraceSpan span("bench:rbf.identify_receiver", "bench");
    const auto t0 = Clock::now();
    setup.cache->receiver("default");
    ident_receiver_s = since(t0);
  }
  {
    obs::TraceSpan span("bench:engine.preload", "bench");
    setup.cache->preload(setup.expanded.tasks);
  }

  // Pairs of 1-worker sweeps, one untraced and one traced. Which side runs
  // first alternates from pair to pair, so neither always runs in the warmer
  // process; trace_overhead_frac is the median of the per-pair ratios. The
  // first untraced sweep gives the serial corner times, the first traced
  // sweep the layer metrics.
  SweepResult untraced, r;
  std::vector<double> overhead;
  const auto pairs_start = Clock::now();
  while (overhead.size() < kMinPairs ||
         (overhead.size() < kMaxPairs && since(pairs_start) < kPairSeconds)) {
    const bool traced_first = overhead.size() % 2 == 1;
    double wall[2] = {0.0, 0.0};  // untraced, traced
    for (const bool traced : {traced_first, !traced_first}) {
      obs::TraceWriter::setActive(traced ? &writer : nullptr);
      SweepResult res;
      {
        obs::TraceSpan span("bench:engine.sweep", "bench");
        const auto t0 = Clock::now();
        res = runSweep(setup, 1, /*keep_waveforms=*/true);
        wall[traced] = since(t0);
      }
      if (overhead.empty()) (traced ? r : untraced) = std::move(res);
    }
    overhead.push_back(wall[1] / wall[0] - 1.0);
  }
  obs::TraceWriter::setActive(&writer);
  writeSweepCsv(r, a.csv);

  // Signal layer: computeRunMetrics on the kept waveforms, timed here
  // because the runner's corner clock does not include it.
  std::vector<double> metrics_s, corner_s;
  double attributed_s = 0.0, corner_total_s = 0.0;  // for core.unattributed_frac
  obs::TransientPhases phases;
  long long mismatched_metrics = 0;
  double ok = 0.0;
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    const SweepRunRecord& rec = r.runs[i];
    if (!rec.ok) continue;
    ok += 1.0;
    const Scenario& sc = *setup.expanded.tasks[i].scenario;
    const BitPattern pattern(sc.pattern(), sc.bitTime());
    RunMetrics m;
    double dt = 0.0;
    {
      obs::TraceSpan span("bench:signal.metrics", "bench");
      const auto t0 = Clock::now();
      m = computeRunMetrics(rec.waves, pattern, EyeOptions{});  // the runner's default
      dt = since(t0);
    }
    if (m.v_far_max != rec.metrics.v_far_max || m.settling_time != rec.metrics.settling_time)
      ++mismatched_metrics;
    metrics_s.push_back(dt);
    corner_s.push_back(rec.wall_seconds);
    const obs::TransientPhases& ph = rec.telemetry.phases;
    phases += ph;
    // Newton contains factor, RHS stamping and substitution on transient
    // paths; the AC path has no Newton loop and reports factor + solve.
    const double loop = ph.newton_seconds > 0.0
                            ? ph.newton_seconds
                            : ph.factor_seconds + ph.rhs_stamp_seconds + ph.solve_seconds;
    attributed_s += ph.stamp_static_seconds + loop + dt;
    corner_total_s += rec.wall_seconds + dt;
  }
  const SweepCounts counts = countsOf(r);

  // FDTD layer (pcb only): computed cell-update throughput and the extra
  // cost of the incident field over the clean corner of the same board.
  double cell_updates = 0.0, fdtd_wall = 0.0, clean_wall = -1.0, fdtd_cells = 0.0,
         fdtd_steps = 0.0;
  std::vector<double> field_wall;
  if (a.workload == "pcb_fdtd") {
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
      const SweepRunRecord& rec = r.runs[i];
      if (!rec.ok) continue;
      const Scenario& sc = *setup.expanded.tasks[i].scenario;
      const FdtdWork w = pcbWork(sc);
      fdtd_cells = w.cells;
      fdtd_steps = w.steps;
      cell_updates += w.cells * w.steps;
      fdtd_wall += rec.wall_seconds;
      if (std::get<bool>(sc.get("with_incident")))
        field_wall.push_back(rec.wall_seconds);
      else
        clean_wall = rec.wall_seconds;
    }
  }
  obs::TraceWriter::setActive(nullptr);
  writer.flush();

  const auto perCorner = [ok](double v) { return ok > 0.0 ? v / ok : 0.0; };
  const auto ratio = [](double n, double d) { return d > 0.0 ? n / d : 0.0; };
  double serial_corner_s = 0.0;
  for (const SweepRunRecord& rec : untraced.runs) serial_corner_s += rec.wall_seconds;

  JsonOut layers;
  layers.num("rbf.identify_driver_s", ident_driver_s)
      .num("rbf.identify_receiver_s", ident_receiver_s)
      .num("engine.expand_s", expand_s)
      .num("core.corner_s", median(corner_s))
      .num("core.unattributed_frac",
           corner_total_s > 0.0 ? 1.0 - attributed_s / corner_total_s : 0.0)
      .num("circuit.newton_s", perCorner(phases.newton_seconds))
      .num("circuit.rhs_stamp_s", perCorner(phases.rhs_stamp_seconds))
      .num("circuit.stamp_static_s", perCorner(phases.stamp_static_seconds))
      .num("circuit.newton_per_step",
           ratio(static_cast<double>(counts.newton), static_cast<double>(counts.steps)))
      .num("circuit.newton_count", static_cast<double>(counts.newton))
      .num("circuit.step_count", static_cast<double>(counts.steps))
      .num("math.factor_s", perCorner(phases.factor_seconds))
      .num("math.solve_s", perCorner(phases.solve_seconds))
      .num("math.lu_per_corner", perCorner(static_cast<double>(counts.lu)))
      .num("math.lu_per_newton",
           ratio(static_cast<double>(counts.lu), static_cast<double>(counts.newton)))
      .num("math.lu_count", static_cast<double>(counts.lu))
      .num("signal.metrics_s", median(metrics_s))
      .num("fdtd.cell_updates_per_s", ratio(cell_updates, fdtd_wall))
      .num("fdtd.incident_extra_s",
           field_wall.empty() || clean_wall < 0.0 ? 0.0 : median(field_wall) - clean_wall)
      .num("fdtd.cell_count", fdtd_cells)
      .num("fdtd.step_count", fdtd_steps)
      .num("trace_overhead_frac", median(overhead));

  std::puts(JsonOut()
                .num("attempted", static_cast<double>(r.runs.size()))
                .raw("counts", countsJson(counts))
                .num("metrics_mismatched", static_cast<double>(mismatched_metrics))
                .num("result_cache_hits", static_cast<double>(r.result_cache.hits))
                .num("serial_corner_s", serial_corner_s)
                .num("trace_events", static_cast<double>(writer.eventCount()))
                .num("overhead_pairs", static_cast<double>(overhead.size()))
                .raw("layers", layers.str())
                .str()
                .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parseArgs(argc, argv);
    if (a.mode == "setup") return modeSetup(a);
    if (a.mode == "timed") return modeTimed(a);
    return modeTraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_bench: %s\n", e.what());
    return 2;
  }
}
