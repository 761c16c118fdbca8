#include "obs/progress.h"

#include <chrono>
#include <cstdio>

namespace fdtdmm {
namespace obs {

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void appendPercent(std::string& out, const char* label, double rate) {
  if (rate < 0.0) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, " | %s %.0f%%", label, rate * 100.0);
  out += buf;
}

}  // namespace

std::string formatProgressLine(const ProgressSnapshot& s) {
  char buf[128];
  const double pct =
      s.total > 0 ? 100.0 * static_cast<double>(s.done) / static_cast<double>(s.total)
                  : 0.0;
  std::snprintf(buf, sizeof buf, "# progress: %zu/%zu corners (%.1f%%)", s.done,
                s.total, pct);
  std::string out = buf;
  if (s.corners_per_second > 0.0) {
    std::snprintf(buf, sizeof buf, " | %.1f/s", s.corners_per_second);
    out += buf;
  }
  if (s.final) {
    std::snprintf(buf, sizeof buf, " | done in %.1fs", s.elapsed_seconds);
    out += buf;
  } else if (s.eta_seconds >= 0.0) {
    std::snprintf(buf, sizeof buf, " | eta %.0fs", s.eta_seconds);
    out += buf;
  }
  appendPercent(out, "util", s.worker_utilization);
  appendPercent(out, "solver-cache", s.solver_cache_hit_rate);
  std::snprintf(buf, sizeof buf, " | health %lld warn / %lld critical",
                s.health_warn, s.health_critical);
  out += buf;
  if (s.failed > 0) {
    std::snprintf(buf, sizeof buf, " | %zu failed", s.failed);
    out += buf;
  }
  return out;
}

ProgressReporter::ProgressReporter(const ProgressOptions& opt, std::size_t total,
                                   StatsFn stats)
    : opt_(opt), stats_(std::move(stats)), total_(total) {
  if (!opt_.sink) {
    opt_.sink = [](const ProgressSnapshot& s) {
      std::fprintf(stderr, "%s\n", formatProgressLine(s).c_str());
    };
  }
  start_seconds_ = nowSeconds();
}

void ProgressReporter::taskDone(bool ok, HealthSeverity severity) {
  if (!opt_.enabled) return;
  std::lock_guard<std::mutex> lk(mu_);
  ++done_;
  if (!ok) ++failed_;
  if (severity == HealthSeverity::kWarn) ++health_warn_;
  if (severity == HealthSeverity::kCritical) ++health_critical_;
  maybeEmit(false);
}

void ProgressReporter::finish() {
  if (!opt_.enabled) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (finished_) return;
  finished_ = true;
  maybeEmit(true);
}

void ProgressReporter::maybeEmit(bool force) {
  const double elapsed = nowSeconds() - start_seconds_;
  if (!force && elapsed - last_emit_seconds_ < opt_.min_interval_seconds) return;

  // Completion rate: EMA over the per-interval instantaneous rate, so a
  // slow corner mid-sweep drags the ETA up gradually instead of whipping
  // it around.
  const double dt = elapsed - last_emit_seconds_;
  if (dt > 0.0 && done_ > last_emit_done_) {
    const double inst = static_cast<double>(done_ - last_emit_done_) / dt;
    ema_rate_ = ema_rate_ < 0.0 ? inst
                                : opt_.ema_alpha * inst + (1.0 - opt_.ema_alpha) * ema_rate_;
  }
  last_emit_seconds_ = elapsed;
  last_emit_done_ = done_;

  ProgressSnapshot s;
  s.done = done_;
  s.total = total_;
  s.failed = failed_;
  s.elapsed_seconds = elapsed;
  s.corners_per_second = ema_rate_ > 0.0 ? ema_rate_ : 0.0;
  if (ema_rate_ > 0.0 && total_ >= done_)
    s.eta_seconds = static_cast<double>(total_ - done_) / ema_rate_;
  s.health_warn = health_warn_;
  s.health_critical = health_critical_;
  s.final = finished_;
  if (stats_) stats_(s);
  opt_.sink(s);
}

}  // namespace obs
}  // namespace fdtdmm
