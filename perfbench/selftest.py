#!/usr/bin/env python3
"""Self-test of the sweep benchmark.

Runs every workload of BENCHMARK.json at a tiny size (run.py --tiny), once
untraced and once traced, and checks that:
  - the last output line is one JSON object with exactly the keys
    correct, attempted, failed and metrics;
  - every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is printed with its unit and a finite number;
  - failed == 0, i.e. failed_frac is 0;
  - the traced run's Chrome trace is valid JSON with trace events.

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(bench, problems):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append("BENCHMARK.json keys %s" % sorted(bench))
    names = [w["name"] for w in bench["workloads"]] + \
        [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("duplicate names in BENCHMARK.json")
    for n in names:
        if not NAME.match(n):
            problems.append("bad name " + n)
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append("bad workload entry " + w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append("bad end_to_end entry " + m["name"])
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append("bad per_layer entry " + m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append("bad unit or direction for " + m["name"])
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"]):
        problems.append("setup_s missing from end_to_end")


def check_run(bench, workload, trace, problems):
    tag = "%s trace=%d" % (workload, trace)
    before = len(problems)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        problems.append("%s: exit %d: %s" % (tag, proc.returncode, proc.stderr[-500:]))
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (tag, sorted(result)))
        return
    if result["failed"] != 0 or result["correct"] is not True or result["attempted"] < 1:
        problems.append("%s: correct=%s failed=%s attempted=%s" %
                        (tag, result["correct"], result["failed"], result["attempted"]))
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(expected):
        problems.append("%s: metric names differ: %s" %
                        (tag, sorted(set(result["metrics"]) ^ set(expected))))
    for name, unit in expected.items():
        m = result["metrics"].get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit or \
                not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: metric %s printed as %s" % (tag, name, m))
    if not trace and not any(l.startswith("# failed_frac = 0 ") for l in lines):
        problems.append("%s: no failed_frac = 0 line" % tag)
    if trace:
        paths = [l.split(" to ", 1)[1] for l in lines if l.startswith("# trace written to ")]
        try:
            with open(paths[0]) as f:
                if not json.load(f)["traceEvents"]:
                    problems.append("%s: empty trace" % tag)
        except (IndexError, OSError, ValueError, KeyError) as e:
            problems.append("%s: trace file unreadable: %r" % (tag, e))
    print("%-40s %s" % (tag, "ok" if len(problems) == before else "FAILED"), flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    check_spec(bench, problems)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace, problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
