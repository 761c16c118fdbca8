#pragma once
// Shared helpers for the solver benches' machine-readable output: the CI
// bench job parses/archives the BENCH_*.json files these produce and gates
// on the benches' exit status, so thresholds must be overridable per runner
// (shared CI machines are noisy) without editing code. Precedence:
// --min-speedup=<x> flag, then the given env var, then the built-in floor.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "engine/sweep_telemetry.h"
#include "obs/histogram.h"

namespace benchutil {

/// Threshold from `--min-speedup=<x>` argv, env var, or fallback.
inline double minSpeedup(int argc, char** argv, const char* env_name,
                         double fallback) {
  double value = fallback;
  if (const char* env = std::getenv(env_name)) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0) value = v;
  }
  const char* prefix = "--min-speedup=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      char* end = nullptr;
      const double v = std::strtod(argv[i] + std::strlen(prefix), &end);
      if (end != argv[i] + std::strlen(prefix) && v > 0.0) value = v;
    }
  }
  return value;
}

/// Compact JSON number formatting: 9 significant digits, plenty for the
/// wall-clock measurements these files carry (not full round-tripping).
inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Writes `content` to `path`; returns false (with a message) on failure.
inline bool writeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

/// Percentile summary of a sweep's latency histograms (SweepResult::
/// histograms): count + p50/p95/p99 per distribution, compact enough for
/// the BENCH_*.json artifacts CI archives per run.
inline std::string histogramsJson(
    const std::map<std::string, fdtdmm::obs::Histogram>& hists) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, h] : hists) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"count\": " + std::to_string(h.count()) +
           ", \"p50\": " + num(h.percentile(0.50)) +
           ", \"p95\": " + num(h.percentile(0.95)) +
           ", \"p99\": " + num(h.percentile(0.99)) + "}";
  }
  return out + "}";
}

/// One sweep's observability block for BENCH_*.json: the canonical counter
/// document (the same obs::countersJson slots as the telemetry export and
/// the examples' footers) plus the histogram percentile summary.
inline std::string sweepObservabilityJson(const fdtdmm::SweepResult& r) {
  return std::string("{\"counters\": ") +
         fdtdmm::obs::countersJson(fdtdmm::sweepCounters(r)) +
         ", \"histograms\": " + histogramsJson(r.histograms) + "}";
}

inline const char* buildKind() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

}  // namespace benchutil
