#pragma once
/// \file scenario.h
/// Open scenario API: the polymorphic Scenario interface, its parameter
/// descriptor machinery, and the named ScenarioRegistry.
///
/// A Scenario is one *family* of simulation workloads (the paper's t-line
/// validation structure, the PCB field-coupling application, a coupled-line
/// crosstalk pair, ...). Each family declares its parameters through a
/// descriptor table (name, kind, allowed range, default), is configured
/// through the uniform `set(name, value)` interface, and knows how to run
/// itself against resolved macromodels. Higher layers — sweep expansion,
/// the parallel runner, metric export — never dispatch on a closed enum of
/// families: they see only this interface, so adding a workload family is
/// additive (implement Scenario, register a factory under a new name).
///
/// Determinism contract: a Scenario's run() must be a pure function of its
/// parameters and the supplied models (wall_seconds aside) — bit-identical
/// waveforms on every call, whatever SolverSharing it is handed — because
/// the sweep engine promises worker-count-independent exported metrics on
/// top of it.

#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "obs/telemetry.h"
#include "signal/waveform.h"

namespace fdtdmm {

struct RbfDriverModel;
struct RbfReceiverModel;
struct SolverSharing;

// ---------------------------------------------------------------------------
// Parameter values and descriptors
// ---------------------------------------------------------------------------

/// One scenario parameter value: a bool, a number (integers included), or a
/// string. The alternative order is part of the API (std::variant equality
/// compares the active alternative).
using ParamValue = std::variant<bool, double, std::string>;

/// What a descriptor accepts. kInt is stored as a double in ParamValue but
/// must be integral and is range-checked like kDouble.
enum class ParamKind { kBool, kInt, kDouble, kString };

/// Diagnostic name of a kind ("bool", "int", "double", "string").
const char* paramKindName(ParamKind kind);

/// Formats a double with printf %g — the one number convention shared by
/// task labels and error messages (families must use it in label() so a
/// format change cannot drift between them).
std::string formatDouble(double v);

/// Formats a value for labels and error messages (numbers via
/// formatDouble).
std::string formatParamValue(const ParamValue& value);

/// Declares one parameter of a scenario family.
struct ParamDescriptor {
  std::string name;
  ParamKind kind = ParamKind::kDouble;
  /// Numeric range, inclusive unless *_exclusive (kInt/kDouble only).
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  bool min_exclusive = false;
  bool max_exclusive = false;
  /// kString: allowed values; empty means any non-empty string.
  std::vector<std::string> choices;
  std::string doc;
};

// Descriptor shorthands for the common constraint shapes.
ParamDescriptor boolParam(std::string name, std::string doc);
ParamDescriptor intParam(std::string name, double min_value, std::string doc);
ParamDescriptor positiveParam(std::string name, std::string doc);     ///< double > 0
ParamDescriptor nonNegativeParam(std::string name, std::string doc);  ///< double >= 0
ParamDescriptor unboundedParam(std::string name, std::string doc);    ///< any double
ParamDescriptor stringParam(std::string name, std::vector<std::string> choices,
                            std::string doc);

/// Checks `value` against `desc` (kind match, range, integrality, choices).
/// \throws std::invalid_argument with a message prefixed by `scenario`.
void checkParamValue(const std::string& scenario, const ParamDescriptor& desc,
                     const ParamValue& value);

/// One (parameter name, value) assignment; the currency of scenario
/// configuration, sweep bases, and sweep axes.
struct ParamBinding {
  std::string param;
  ParamValue value;
};

// ---------------------------------------------------------------------------
// Scenario interface
// ---------------------------------------------------------------------------

/// Uniform result shape across scenario families. What v_near / v_far /
/// victims mean is documented per family; by convention v_far is the
/// waveform the metric layer analyzes (eye, overshoot, delay).
struct TaskWaveforms {
  Waveform v_near;  ///< driver-side observable
  Waveform v_far;   ///< the analyzed far-end observable
  std::vector<Waveform> victims;  ///< family-specific extra observables
  int max_newton_iterations = 0;
  double wall_seconds = 0.0;
  /// Solver telemetry aggregated over every transient this run performed
  /// (phase timings, LU/Newton counts — see obs/telemetry.h). Families
  /// running on non-MNA engines (e.g. the 1D/3D FDTD paths) leave the
  /// phases at zero. Purely informational: never part of the metric
  /// determinism contract.
  obs::RunTelemetry telemetry;
};

/// One configurable simulation workload family. See the file comment for
/// the openness and determinism contracts.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Registry name of the family ("tline", "pcb", "crosstalk", ...).
  virtual const std::string& family() const = 0;

  /// Parameter table: every settable parameter with kind and range. Order
  /// is stable and part of the family's documented API.
  virtual const std::vector<ParamDescriptor>& descriptors() const = 0;

  /// Sets one parameter. \throws std::invalid_argument on an unknown name
  /// or a value that fails its descriptor's kind/range check.
  virtual void set(const std::string& param, const ParamValue& value) = 0;

  /// Reads one parameter back. \throws std::invalid_argument on unknown.
  virtual ParamValue get(const std::string& param) const = 0;

  /// Cross-field validation (per-parameter range checks already happened in
  /// set()): geometric consistency, load-dependent requirements, ...
  /// \throws std::invalid_argument on an unrunnable configuration.
  virtual void validate() const = 0;

  /// Deterministic human-readable parameter summary used as the task label.
  virtual std::string label() const = 0;

  /// The transmitted bit pattern / bit time / stop time (metric layers and
  /// the runner's eye analysis need these regardless of family).
  virtual std::string pattern() const = 0;
  virtual double bitTime() const = 0;
  virtual double tStop() const = 0;

  /// Whether run() touches the driver / receiver macromodels. Model
  /// resolution and preloading must agree with run() on these (a family
  /// that needs no macromodel at all overrides needsDriver to false).
  virtual bool needsDriver() const { return true; }
  virtual bool needsReceiver() const = 0;

  /// Deep copy (sweep expansion clones a configured prototype per point).
  virtual std::unique_ptr<Scenario> clone() const = 0;

  /// Runs the workload with already-resolved models. `receiver` may be null
  /// when needsReceiver() is false. A family that runs the MNA solvers
  /// threads `sharing` into its solver options, so sweep corners whose
  /// netlists have one structure class (circuit/solver_state.h) reuse one
  /// symbolic analysis; other families ignore it. The waveforms are
  /// bit-identical for any `sharing` (a default SolverSharing shares
  /// nothing).
  /// \throws std::invalid_argument on null required models or invalid
  ///         configuration.
  virtual TaskWaveforms run(std::shared_ptr<const RbfDriverModel> driver,
                            std::shared_ptr<const RbfReceiverModel> receiver,
                            const SolverSharing& sharing) const = 0;

  /// Descriptor lookup by name; nullptr when absent.
  const ParamDescriptor* findParam(const std::string& name) const;

  /// Applies a list of bindings in order (each via set()).
  void apply(const std::vector<ParamBinding>& bindings);
};

// ---------------------------------------------------------------------------
// ParamTable: descriptor-driven set/get for struct-backed families
// ---------------------------------------------------------------------------

/// Maps parameter names onto accessors of a family's config struct, with
/// the kind/range checks applied centrally. Families hold one static table
/// and delegate set()/get()/descriptors() to it.
template <typename Config>
class ParamTable {
 public:
  struct Entry {
    ParamDescriptor desc;
    ParamValue (*get)(const Config&);
    void (*set)(Config&, const ParamValue&);  ///< called after checkParamValue
  };

  ParamTable(std::string scenario, std::vector<Entry> entries)
      : scenario_(std::move(scenario)), entries_(std::move(entries)) {
    descs_.reserve(entries_.size());
    for (const Entry& e : entries_) descs_.push_back(e.desc);
  }

  const std::vector<ParamDescriptor>& descriptors() const { return descs_; }

  void set(Config& cfg, const std::string& name, const ParamValue& value) const {
    const Entry& e = find(name);
    checkParamValue(scenario_, e.desc, value);
    e.set(cfg, value);
  }

  ParamValue get(const Config& cfg, const std::string& name) const {
    return find(name).get(cfg);
  }

 private:
  const Entry& find(const std::string& name) const;

  std::string scenario_;
  std::vector<Entry> entries_;
  std::vector<ParamDescriptor> descs_;
};

/// \throws std::invalid_argument naming the scenario and the parameter.
[[noreturn]] void throwUnknownParam(const std::string& scenario,
                                    const std::string& param);

template <typename Config>
const typename ParamTable<Config>::Entry& ParamTable<Config>::find(
    const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.desc.name == name) return e;
  throwUnknownParam(scenario_, name);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Thread-safe name -> factory map of scenario families. The process-wide
/// instance (global()) comes with the built-in families ("tline", "pcb",
/// "crosstalk", "emc", "ac") pre-registered; extensions add factories under new
/// names at startup and are immediately sweepable.
class ScenarioRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Scenario>()>;

  ScenarioRegistry() = default;

  /// Registers a family. \throws std::invalid_argument on a null factory,
  /// an empty name, or a name that is already registered (silent
  /// replacement would make sweep specs mean different things depending on
  /// link order).
  void add(const std::string& name, Factory factory);

  bool has(const std::string& name) const;

  /// Creates a fresh default-configured scenario.
  /// \throws std::invalid_argument on an unknown name (the message lists
  ///         the registered families).
  std::unique_ptr<Scenario> create(const std::string& name) const;

  /// Registered family names, sorted.
  std::vector<std::string> names() const;

  /// The process-wide registry with built-ins pre-registered.
  static ScenarioRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

}  // namespace fdtdmm
