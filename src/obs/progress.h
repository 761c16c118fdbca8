#pragma once
/// \file progress.h
/// Throttled live progress/health stream for long sweeps.
///
/// A 1000-sample Monte Carlo ensemble is a black box until it finishes:
/// telemetry JSON and metrics files only exist afterwards. ProgressReporter
/// is the *during* surface — worker threads report each completed corner,
/// and at most once per min_interval_seconds (plus one guaranteed final
/// emission) a ProgressSnapshot goes to a sink: corners done/total,
/// EMA-smoothed corners/s and ETA, worker utilization, the solver-cache
/// hit rate, and running health warn/critical counts (obs/health.h).
///
/// The default sink prints `# progress: ...` lines to stderr — on stderr so
/// piping an example's stdout (metrics, telemetry) stays clean, and in the
/// same `#`-prefixed style as the examples' stats footers. A custom sink
/// callback is the streaming hook for ROADMAP's sweep-server: the same
/// snapshots, forwarded to clients instead of a TTY.
///
/// Thread-safe: taskDone may be called from any worker thread;
/// the sink runs under the reporter's mutex (keep sinks cheap — the default
/// one is a single fprintf). Disabled reporters (ProgressOptions::enabled
/// false) cost one branch per call.

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>

#include "obs/health.h"

namespace fdtdmm {
namespace obs {

/// One progress emission. Rates that the runner could not supply (no
/// stats hook installed, or no corner has looked the solver cache up yet)
/// are negative and omitted from the formatted line.
struct ProgressSnapshot {
  std::size_t done = 0;   ///< corners finished (ok + failed)
  std::size_t total = 0;
  std::size_t failed = 0;
  double elapsed_seconds = 0.0;
  double corners_per_second = 0.0;  ///< EMA-smoothed completion rate
  double eta_seconds = -1.0;        ///< remaining / rate; <0 if unknown
  double worker_utilization = -1.0;     ///< busy / (workers * elapsed), 0..1
  double solver_cache_hit_rate = -1.0;  ///< symbolic hits / lookups
  long long health_warn = 0;      ///< corners graded warn so far
  long long health_critical = 0;  ///< corners graded critical so far
  bool final = false;             ///< true for the finish() emission
};

/// Configuration, carried by SweepRunnerOptions::progress.
struct ProgressOptions {
  bool enabled = false;
  /// Minimum seconds between emissions (finish() always emits).
  double min_interval_seconds = 0.5;
  /// EMA smoothing factor for corners/s (1 = instantaneous, ~0.3 settles
  /// in a few emissions without jittering on scheduler noise).
  double ema_alpha = 0.3;
  /// Destination; defaults to `# progress: ...` lines on stderr.
  std::function<void(const ProgressSnapshot&)> sink;
};

/// Formats a snapshot as the default single-line form (no newline):
/// `# progress: 37/114 corners (32.5%) | 12.3/s | eta 6s | util 87% | ...`.
std::string formatProgressLine(const ProgressSnapshot& s);

/// The reporter; see the file comment. Constructed by SweepRunner with the
/// task total and a stats hook that fills the utilization and cache-hit
/// fields from ThreadPool::stats() and the cache counters at emission time.
class ProgressReporter {
 public:
  using StatsFn = std::function<void(ProgressSnapshot&)>;

  ProgressReporter(const ProgressOptions& opt, std::size_t total,
                   StatsFn stats = {});

  bool enabled() const { return opt_.enabled; }

  /// Reports one corner finished by a worker (ok or failed), with its
  /// graded severity. May emit (throttled).
  void taskDone(bool ok, HealthSeverity severity);

  /// Emits the final unthrottled snapshot (flagged final). Idempotent.
  void finish();

 private:
  void maybeEmit(bool force);

  ProgressOptions opt_;
  StatsFn stats_;
  std::mutex mu_;
  std::size_t total_ = 0;
  std::size_t done_ = 0;
  std::size_t failed_ = 0;
  long long health_warn_ = 0;
  long long health_critical_ = 0;
  double start_seconds_ = 0.0;      ///< steady-clock origin
  double last_emit_seconds_ = 0.0;  ///< elapsed at last emission
  std::size_t last_emit_done_ = 0;
  double ema_rate_ = -1.0;
  bool finished_ = false;
};

}  // namespace obs
}  // namespace fdtdmm
