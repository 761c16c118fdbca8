#pragma once
/// \file sweep_spec.h
/// Declarative parameter sweeps over the open scenario API. A SweepSpec
/// names a scenario family from the ScenarioRegistry, overrides its base
/// parameters, and declares generic axes; expand() takes the cartesian
/// product of the non-empty axes and emits one fully-specified
/// SimulationTask per grid point. Any registered family — built-in or
/// user-added — is sweepable with no engine changes.
///
/// Expansion rules (all deterministic — no RNG, no iteration-order
/// surprises):
///   - Axis nesting order is the axis *declaration order*, outermost to
///     innermost. Task `index` follows that order.
///   - An axis with no points means "keep the base value" and contributes
///     a factor of 1 to the grid size.
///   - Each axis point may bind several parameters at once (a "corner",
///     e.g. an RC load binding load_r and load_c together).
///   - A conditional axis (only_when_param set) applies only to grid
///     points where that parameter — resolved from outer axes, the base
///     overrides, or the family default — equals only_when_value; other
///     points ignore the axis (factor 1) instead of emitting duplicates.
///     The condition parameter's own axis, if any, must be declared
///     earlier (outer); expand() throws otherwise.
///   - Axes are checked against the target family's descriptors before
///     anything runs: an unknown parameter name, a kind mismatch, or an
///     out-of-range value fails at count()/expand() time, not mid-sweep.
///   - A parameter may be bound by at most one axis (the inner axis would
///     silently overwrite the outer at every grid point); conditional axes
///     with mutually exclusive conditions are the one exception.
///   - When an axis sweeps a parameter the family label omits, expand()
///     appends the grid point's axis bindings to colliding labels so
///     exported rows stay humanly distinguishable; sweeps whose labels are
///     already unique are untouched.
///
/// ## Stochastic axes (Monte Carlo sweeps)
///
/// A StochasticAxis perturbs double-valued parameters by a seeded
/// distribution instead of enumerating points. Expansion stays fully
/// deterministic: every draw is a pure function of (axis seed, parameter
/// name, draw counter) through math/rng.h's counter-based splitStream, so
/// the same spec expands to bit-identical tasks on any machine, worker
/// count, or expansion order. Rules:
///   - Stochastic axes nest INSIDE all deterministic axes (the sample loop
///     is the innermost loop), in declaration order among themselves; each
///     contributes a factor of `samples` to the grid (0 = keep base,
///     factor 1).
///   - All parameters of one axis are sampled jointly: sample s assigns
///     draw s of every declared parameter (Latin-hypercube stratification
///     spans exactly this joint set).
///   - i.i.d. sampling draws fresh values for every deterministic corner;
///     common_random_numbers reuses ONE draw sequence across all corners so
///     paired corner comparisons cancel sampling noise (and the result
///     cache can replay corners whose non-stochastic parameters coincide).
///   - Sampling is inverse-CDF (exactly one uniform per draw), which is
///     what makes Latin-hypercube stratification exact per parameter.
///   - Task labels get a " | <axis>#<draw>@<seed>" tag so exported rows,
///     ResultCache keys, and ensemble grouping can identify samples.
///   - Out-of-range draws fail expansion with the family's descriptor
///     message — bound normal perturbations of a bounded parameter with
///     truncatedNormalParam instead of relying on luck.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_task.h"

namespace fdtdmm {

/// One grid point of an axis: the parameter assignments applied together.
struct AxisPoint {
  std::vector<ParamBinding> bindings;
};

/// One sweep axis: an ordered list of points, optionally conditional on
/// another parameter's resolved value.
struct ParamAxis {
  std::string name;               ///< diagnostic name (defaults to the bound parameter)
  std::vector<AxisPoint> points;  ///< empty = keep base value (factor 1)
  std::string only_when_param;    ///< empty = unconditional
  ParamValue only_when_value{};   ///< compared with the resolved value
};

/// Distribution of one stochastic parameter.
enum class McDistribution {
  kUniform,          ///< uniform over [a, b)
  kNormal,           ///< normal(mean = a, stddev = b)
  kTruncatedNormal,  ///< normal(a, b) conditioned on [lo, hi]
};

/// How one stochastic axis fills its sample budget.
enum class McSampling {
  kIid,             ///< independent draws
  kLatinHypercube,  ///< one draw per stratum, per-parameter random pairing
};

/// One stochastically perturbed parameter. Use the three factories below
/// instead of aggregate-initializing (a/b mean different things per
/// distribution).
struct StochasticParam {
  std::string param;
  McDistribution dist = McDistribution::kUniform;
  double a = 0.0;  ///< uniform: lower bound; (truncated) normal: mean
  double b = 0.0;  ///< uniform: upper bound; (truncated) normal: stddev
  double lo = 0.0;  ///< truncated normal only: lower truncation bound
  double hi = 0.0;  ///< truncated normal only: upper truncation bound
};

StochasticParam uniformParam(std::string param, double lo, double hi);
StochasticParam normalParam(std::string param, double mean, double stddev);
StochasticParam truncatedNormalParam(std::string param, double mean,
                                     double stddev, double lo, double hi);

/// A seeded distribution axis: `samples` joint draws of `params`.
struct StochasticAxis {
  std::string name = "mc";  ///< label tag + stream identity (keep it stable)
  std::vector<StochasticParam> params;
  std::size_t samples = 0;  ///< 0 = keep base values (factor 1)
  std::uint64_t seed = 1;
  McSampling sampling = McSampling::kIid;
  /// Reuse one draw sequence across ALL deterministic corners (paired
  /// comparisons cancel sampling noise). Off = fresh draws per corner.
  bool common_random_numbers = false;
};

/// Which sample of which stochastic axis produced a task (one entry per
/// stochastic axis with samples > 0, in axis declaration order).
struct StochasticDraw {
  std::size_t axis = 0;    ///< index into SweepSpec::stochastic
  std::uint64_t seed = 0;  ///< that axis's seed (exported for provenance)
  std::size_t draw = 0;    ///< sample index within the axis
};

/// Provenance of one expanded task: which deterministic corner it belongs
/// to and which stochastic draws produced it. The ensemble statistics
/// layer groups samples by `group`.
struct TaskProvenance {
  std::size_t group = 0;    ///< deterministic-corner ordinal
  std::string group_label;  ///< deterministic axis bindings ("base" if none)
  std::vector<StochasticDraw> draws;
  std::vector<ParamBinding> sampled;  ///< concrete sampled values, axis order
};

/// expand() result with per-task provenance (tasks[i] <-> provenance[i]).
struct ExpandedSweep {
  std::vector<SimulationTask> tasks;
  std::vector<TaskProvenance> provenance;
  std::size_t group_count = 0;  ///< number of deterministic corners
};

struct SweepSpec {
  /// ScenarioRegistry::global() family name ("tline", "pcb", "crosstalk",
  /// or anything registered by the application).
  std::string scenario = "tline";
  /// Base parameter overrides, applied in order to the family's defaults
  /// before any axis; per-point overrides start from this.
  std::vector<ParamBinding> base;
  /// Sweep axes, outermost first.
  std::vector<ParamAxis> axes;
  /// Stochastic (Monte Carlo) axes; nest inside all deterministic axes.
  std::vector<StochasticAxis> stochastic;
  std::string driver = "default";    ///< model-cache component name
  std::string receiver = "default";  ///< model-cache component name

  /// Fluent base override. Note: wrap string literals in std::string() —
  /// a bare char pointer would pick ParamValue's bool alternative on some
  /// standard libraries.
  SweepSpec& set(const std::string& param, ParamValue value);

  /// Fluent single-parameter axis (one point per value, declaration order
  /// = nesting order). One spelling per value kind keeps brace-list call
  /// sites unambiguous; axisValues is the any-kind spelling.
  SweepSpec& axis(const std::string& param, const std::vector<double>& values);
  SweepSpec& axisStrings(const std::string& param, const std::vector<std::string>& values);
  SweepSpec& axisBool(const std::string& param, const std::vector<bool>& values);
  SweepSpec& axisValues(const std::string& param, std::vector<ParamValue> values);

  /// Fluent multi-parameter / conditional axis.
  SweepSpec& axis(ParamAxis a);

  /// Fluent stochastic axis.
  SweepSpec& stochasticAxis(StochasticAxis a);

  /// Number of tasks expand() will produce. count() and expand() walk the
  /// same grid-shape helper, so they cannot disagree.
  std::size_t count() const;

  /// Expands the grid into concrete, validated tasks with stable indices
  /// and the family's human-readable labels.
  /// \throws std::invalid_argument on an unknown scenario name, axes that
  ///         fail the family's descriptor checks, a conditional axis whose
  ///         condition parameter is declared later, or configurations that
  ///         fail scenario validation.
  std::vector<SimulationTask> expand() const;

  /// expand() plus per-task provenance (deterministic-corner group and
  /// stochastic draw records). Same task sequence as expand(); the
  /// ensemble statistics layer consumes the provenance.
  ExpandedSweep expandDetailed() const;
};

}  // namespace fdtdmm
