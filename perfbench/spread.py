#!/usr/bin/env python3
"""Run-to-run spread of the sweep benchmark.

Runs perfbench/run.py once per seed on each workload and reports, for every
metric, the median of the runs and the quartile spread (q3 - q1) / median,
with quartiles from statistics.quantiles(values, n=4). End-to-end metrics
are flagged when the spread exceeds a third of their bound in
BENCHMARK.json, and, when the --out file already holds a set, when their
median is worse than that set's by more than the bound. The exit code is 1
when anything is flagged.

    python3 perfbench/spread.py --workloads pcb_fdtd --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace-seeds 1-3 \\
        --out perfbench/baseline.json --label "<commit and machine>"

With --out, the medians, quartiles, spreads and raw values are appended as
one more set to the JSON file's "sets" list (created if missing).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s seed %d: %s" % (workload, seed, result))
    return result["metrics"]


def summarize(runs):
    """{metric: {unit, median, q1, q3, spread, values}} over a list of runs."""
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": runs[0][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}
    return out


def agrees(previous, summary, bench):
    """Prints how far each end-to-end median moved from the previous set in
    the worse direction, as a share of the previous median; returns False
    when any moved by more than its bound."""
    ok = True
    for m in bench["end_to_end"]:
        for w, stats in summary.items():
            old = previous.get(w, {}).get("end_to_end", {}).get(m["name"])
            new = stats.get("end_to_end", {}).get(m["name"])
            if not old or not new or not old["median"]:
                continue
            worse = (new["median"] - old["median"]) / abs(old["median"])
            if m["better"] == "higher":
                worse = -worse
            flag = ""
            if worse > m["bound"]:
                flag = "  <-- worse than the previous set by more than the bound"
                ok = False
            print("%-16s %-32s vs previous set: %+.4f worse%s" % (w, m["name"], worse, flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10", help="seeds of the --trace 0 runs, e.g. 1-10")
    ap.add_argument("--trace-seeds", default="", help="seeds of the --trace 1 runs")
    ap.add_argument("--out", default="", help="write the summary here as JSON")
    ap.add_argument("--label", default="", help="free-text provenance for --out")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    steady = True
    for w in workloads:
        summary[w] = {}
        for trace, seeds in ((0, seed_range(a.seeds)), (1, seed_range(a.trace_seeds))):
            if not seeds:
                continue
            runs = [run_once(w, s, trace, bench["run_seconds"]) for s in seeds]
            stats = summarize(runs)
            summary[w]["end_to_end" if trace == 0 else "per_layer"] = stats
            for name, st in stats.items():
                flag = ""
                if name in bounds and st["spread"] > bounds[name] / 3:
                    flag = "  <-- above bound/3"
                    steady = False
                print("%-16s %-32s median %-12.6g spread %.4f%s" %
                      (w, name, st["median"], st["spread"], flag), flush=True)

    history = {"sets": []}
    if a.out and os.path.isfile(a.out):
        with open(a.out) as f:
            history = json.load(f)
    if history["sets"]:
        steady = agrees(history["sets"][-1]["workloads"], summary, bench) and steady

    if a.out:
        # The file is a trajectory: each call appends one set of runs.
        history["sets"].append({
            "label": a.label, "machine": platform.platform(),
            "cpus": len(os.sched_getaffinity(0)), "run_seconds": bench["run_seconds"],
            "seeds": a.seeds, "trace_seeds": a.trace_seeds, "workloads": summary})
        with open(a.out, "w") as f:
            json.dump(history, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
