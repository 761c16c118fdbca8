#!/usr/bin/env python3
"""Sweep benchmark of the fdtdmm library.

Runs one named workload through the public sweep API and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:

    python3 perfbench/run.py --workload xtalk_mc --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (measured
with tracing off); ``--trace 1`` reports its per-layer metrics from a traced
1-worker run and writes a Chrome trace next to the build. Run from the root
of a checkout; the first run builds perfbench/CMakeLists.txt into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``).

See perfbench/README.md for the metric definitions and the workloads.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xtalk_mc", "emc_immunity_mc", "ac_skin_sweep", "pcb_fdtd")
DEFAULT_SEED = 1
# Fixed pool size: 4, or fewer on a machine with fewer CPUs. Never 0 (which
# would mean "all hardware threads" to the runner).
WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))
# Cold set-ups per run: this many set-up processes plus the timed process's
# own. Identification is cached per process, so each cold sample needs one.
# On the model-free workloads set-up takes 10-300 us and varies by process,
# so the median needs this many samples to stay steady.
SETUP_PROCESSES = 15
# Reference tolerances. Voltages and |H| are compared at 1e-6 absolute plus
# 1e-6 relative, far looser than a 1e-9 V waveform gate, so a solver change
# that moves waveforms by roundoff still passes; threshold-crossing times
# may move by a couple of time steps.
VOLT_TOL = 1e-6
TIME_TOL = 2e-11
VOLT_COLUMNS = ("eye_height", "eye_level_high", "eye_level_low", "v_far_max",
                "v_far_min", "overshoot")
TIME_COLUMNS = ("settling_time", "far_end_delay")
# max_newton_iterations and eye_open are not compared with the reference:
# planned Newton changes move the first, and the second flips with them.


def log(msg):
    print("# " + msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to perfbench/ (expected ../src)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(WORKERS)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(bdir, "sweep_bench")
    if not os.path.isfile(binary):
        fail("build produced no sweep_bench binary")
    return binary


def run_bench(binary, args, timeout=170):
    """Runs sweep_bench once and returns its JSON report."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("sweep_bench %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corner_tail(timed):
    """The highest of p99/p95/p90/p75 that has at least ten corner samples
    beyond it. A run with too few samples for p75 (pcb_fdtd: a few long
    corners per sweep) takes instead the slowest corner of each sweep, median
    over the sweeps. Returns (value, description)."""
    samples = timed["corner_wall_s"]
    n = len(samples)
    p = next((p for p in (99, 95, 90, 75) if n * (100 - p) / 100.0 >= 10), None)
    if p is None:
        slowest = [s["slowest_corner_s"] for s in timed["sweeps"]]
        return statistics.median(slowest), \
            "the median over %d sweeps of each sweep's slowest corner (%d corner samples)" \
            % (len(slowest), n)
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1], \
        "p%d of %d corner samples" % (p, n)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def close(a, b, tol):
    return abs(a - b) <= tol + 1e-6 * max(abs(a), abs(b))


def bad_rows(rows, reference):
    """Indices of rows that failed, missed a finite metric, or (when a
    reference is given) differ from it beyond the stated tolerance."""
    bad = set()
    for i, row in enumerate(rows):
        if row["ok"] != "1":
            bad.add(i)
            continue
        values = {}
        for col in VOLT_COLUMNS + TIME_COLUMNS:
            if row[col] == "":
                continue  # eye not measurable for this family
            values[col] = float(row[col])
            if not math.isfinite(values[col]):
                bad.add(i)
        if reference is None or i in bad:
            continue
        if i >= len(reference) or reference[i]["label"] != row["label"]:
            bad.add(i)
            continue
        ref = reference[i]
        for col in VOLT_COLUMNS + TIME_COLUMNS:
            if (ref[col] == "") != (row[col] == ""):
                bad.add(i)
            elif row[col] != "":
                tol = VOLT_TOL if col in VOLT_COLUMNS else TIME_TOL
                if not close(values[col], float(ref[col]), tol):
                    bad.add(i)
    if reference is not None and len(reference) != len(rows):
        bad.update(range(len(rows), max(len(rows), len(reference))))
    return bad


def reference_rows(workload, seed, tiny):
    if tiny or seed != DEFAULT_SEED:
        return None
    path = os.path.join(HERE, "reference", workload + ".csv")
    if not os.path.isfile(path):
        fail("missing reference " + path)
    return read_rows(path)


def out_dir(workload, seed, trace):
    d = os.path.join(build_dir(), "out", "%s-seed%d-trace%d" % (workload, seed, trace))
    os.makedirs(d, exist_ok=True)
    return d


def metric(value, unit):
    return {"value": value, "unit": unit}


def common_args(a):
    args = ["--workload", a.workload, "--seed", str(a.seed)]
    return args + (["--tiny"] if a.tiny else [])


def run_timed(binary, a):
    """End-to-end metrics, tracing off."""
    odir = out_dir(a.workload, a.seed, 0)
    setup = [run_bench(binary, ["--mode", "setup"] + common_args(a))["setup_s"]
             for _ in range(SETUP_PROCESSES)]
    csv_path = os.path.join(odir, "timed.csv")
    timed = run_bench(binary, ["--mode", "timed", "--seconds", str(a.seconds),
                               "--workers", str(WORKERS), "--csv", csv_path] +
                      common_args(a))
    setup.append(timed["setup_s"])
    sweeps = timed["sweeps"]

    attempted = sum(s["attempted"] for s in sweeps)
    failed = 0
    first = sweeps[0]["counts"]
    for s in sweeps:
        if s["counts"] != first or s["result_cache_hits"] != 0:
            failed += s["attempted"]  # replay or non-repeating counts: whole sweep
        else:
            failed += s["rows_differ"]
    rows = read_rows(csv_path)
    bad = bad_rows(rows, reference_rows(a.workload, a.seed, a.tiny))
    failed = min(attempted, failed + len(bad) * len(sweeps))

    tail, tail_desc = corner_tail(timed)
    log("%s seed %d: %d corners x %d sweeps on %d workers" %
        (a.workload, a.seed, sweeps[0]["attempted"], len(sweeps), WORKERS))
    log("metrics CSV of the first sweep: " + csv_path)
    log("corner_tail_s is " + tail_desc)
    log("failed_frac = %.6g (1) = %d failed / %d attempted" %
        (failed / attempted, failed, attempted))
    log("setup samples [s]: " + " ".join("%.6g" % s for s in setup))
    return attempted, failed, {
        "setup_s": metric(statistics.median(setup), "s"),
        "corners_per_s": metric(sum(s["counts"]["ok"] for s in sweeps) /
                                sum(s["wall_s"] for s in sweeps), "1/s"),
        "corner_p50_s": metric(statistics.median(timed["corner_wall_s"]), "s"),
        "corner_tail_s": metric(tail, "s"),
        "peak_rss_mb": metric(timed["peak_rss_mb"], "MB"),
    }


def run_traced(binary, a):
    """Per-layer metrics from a traced 1-worker run, checked against one
    untraced multi-worker sweep of the same tasks."""
    odir = out_dir(a.workload, a.seed, 1)
    timed_csv = os.path.join(odir, "timed.csv")
    traced_csv = os.path.join(odir, "traced.csv")
    trace_file = os.path.join(odir, "trace.json")
    timed = run_bench(binary, ["--mode", "timed", "--seconds", "0", "--workers",
                               str(WORKERS), "--csv", timed_csv] + common_args(a))
    traced = run_bench(binary, ["--mode", "traced", "--csv", traced_csv,
                                "--trace-file", trace_file] + common_args(a))
    sweep = timed["sweeps"][0]

    attempted = sweep["attempted"] + traced["attempted"]
    failed = 0
    if sweep["counts"] != traced["counts"] or sweep["result_cache_hits"] != 0 or \
            traced["result_cache_hits"] != 0:
        failed += sweep["attempted"]
    # The worker-count contract: byte-identical metrics CSV on 4 and 1 workers.
    timed_rows, traced_rows = read_rows(timed_csv), read_rows(traced_csv)
    with open(timed_csv, "rb") as f1, open(traced_csv, "rb") as f2:
        if f1.read() != f2.read():
            failed += sum(1 for x, y in zip(timed_rows, traced_rows) if x != y) + \
                abs(len(timed_rows) - len(traced_rows))
    failed += int(traced["metrics_mismatched"])
    failed += 2 * len(bad_rows(traced_rows, reference_rows(a.workload, a.seed, a.tiny)))
    try:
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        trace_ok = len(events) > 0
    except (OSError, ValueError, KeyError):
        trace_ok = False
    if not trace_ok:
        failed += traced["attempted"]
    failed = min(attempted, failed)

    layers = dict(traced["layers"])
    denom = sweep["workers"] * sweep["wall_s"]
    lookups = sweep["solver_hits"] + sweep["solver_misses"]
    layers["engine.pool_util"] = sweep["busy_s"] / denom
    layers["engine.parallel_eff"] = traced["serial_corner_s"] / denom
    layers["engine.solver_cache_hit_ratio"] = \
        sweep["solver_hits"] / lookups if lookups else 0.0
    layers["engine.solver_cache_misses"] = sweep["solver_misses"]

    units = {m["name"]: m["unit"] for m in a.spec["per_layer"]}
    missing = set(units) - set(layers)
    if missing:
        fail("traced run did not report " + ", ".join(sorted(missing)))
    log("%s seed %d: traced 1-worker run, %d corners, %d trace events" %
        (a.workload, a.seed, traced["attempted"], traced["trace_events"]))
    log("trace_overhead_frac is the median over %d untraced/traced sweep pairs" %
        traced["overhead_pairs"])
    log("trace written to " + trace_file)
    log("failed = %d / %d attempted" % (failed, attempted))
    return attempted, failed, {k: metric(layers[k], units[k]) for k in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny workload sizes (self-test only; no reference check)")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        a.spec = json.load(f)

    started = time.monotonic()
    binary = build()
    log("build ready in %.1f s: %s" % (time.monotonic() - started, binary))
    if a.trace:
        attempted, failed, metrics = run_traced(binary, a)
    else:
        attempted, failed, metrics = run_timed(binary, a)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
