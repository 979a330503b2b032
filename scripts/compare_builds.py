#!/usr/bin/env python3
"""Compares the repository benchmark on two checkouts in alternating pairs.

    scripts/compare_builds.py --parent ../parent --change . \\
        --workload wire_open --seeds 1-10,77 --trace 0

Each checkout's perfbench is built apart, under <work-dir>/<side>, by that
checkout's own perfbench/run.py build step, before any run; each run then
passes the same directory to run.py as CARGO_TARGET_DIR. Then, per
workload, one pair per seed runs the same command on both sides, for the
run length BENCHMARK.json sets; pairs alternate which side runs first.
Every run records the hypervisor steal share of the whole machine over its
wall time (from /proc/stat). A run above 5% steal is flagged, never dropped.

For every metric the summary gives each side's median and quartiles
(linear interpolation, over the runs that printed the metric) and the
pairs the change won out of every pair run. A pair counts as lost when
either side printed no result, failed its checks (`correct` false) or
lacks the metric; ties count for neither side. The verdict:
  gain        the change won at least 9/10 of the pairs, the medians
              differ, in the better direction, by more than the parent's
              interquartile range, every change run passed its checks and
              the change failed no larger share of its ops than the parent;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in the change's BENCHMARK.json;
  unresolved  either side spreads (IQR / median) wider than that bound,
              unless every change run reads better than every parent run;
  missing     one side printed the metric in no run;
  ok          within the bound.
Per-layer metrics (--trace 1) have no bound and get only "gain", "missing"
or "-". --json-out keeps every run's metrics and steal share.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
STEAL_FLAG = 0.05  # steal share above which a run is flagged


def fail(message):
    print("compare_builds: " + message, file=sys.stderr)
    sys.exit(2)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        fail("--seeds names no seed")
    return seeds


def cpu_times():
    """The machine's cumulative (busy-or-idle total, steal) jiffies."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user and nice.
    values = [int(v) for v in fields[1:9]]
    return sum(values), values[7]


def build(checkout, build_dir):
    """Builds with the checkout's own perfbench/run.py, the recipe that
    later runs it, so the two cannot differ in flags or target."""
    path = os.path.join(checkout, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build(build_dir)


def run_once(checkout, build_dir, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    total0, steal0 = cpu_times()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.monotonic() - start
    total1, steal1 = cpu_times()
    run = {"seed": seed, "exit": proc.returncode, "wall_s": wall,
           "steal_share": (steal1 - steal0) / max(1, total1 - total0),
           "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        print("  no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return run
    run.update(correct=bool(result.get("correct")),
               attempted=result.get("attempted", 0),
               failed=result.get("failed", 0),
               metrics={k: v["value"]
                        for k, v in result.get("metrics", {}).items()})
    return run


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def counts(run, name):
    """Whether a run's value of `name` takes part in a pair."""
    return run["correct"] and name in run["metrics"]


def wins(spec, runs):
    """Pairs the change won, out of every pair run: a pair with a failed
    or missing side is lost."""
    lower = spec["better"] == "lower"
    name = spec["name"]
    won = 0
    for pair in runs:
        p, c = pair["parent"], pair["change"]
        if not (counts(p, name) and counts(c, name)):
            continue
        pv, cv = p["metrics"][name], c["metrics"][name]
        if cv < pv if lower else cv > pv:
            won += 1
    return won


def verdict(spec, parent, change, won, pairs, clean):
    """spec: {"better", "bound" (or None)}; parent/change: the values each
    side printed; won of pairs: from wins(); clean: every change run passed
    its checks and failed no larger share of ops than the parent."""
    if not parent or not change:
        return "missing"
    lower = spec["better"] == "lower"
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gap = (pmed - cmed) if lower else (cmed - pmed)
    if clean and won * 10 >= 9 * pairs and gap > p3 - p1:
        return "gain"
    bound = spec.get("bound")
    if bound is None:
        return "-"
    if pmed != 0 and -gap / abs(pmed) > bound:
        return "worse"
    spread = max((p3 - p1) / abs(pmed) if pmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    every_better = (max(change) < min(parent) if lower
                    else min(change) > max(parent))
    if spread > bound and not every_better:
        return "unresolved"
    return "ok"


def fmt(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "-"
    if v == 0:
        return "0"
    digits = max(0, 4 - int(math.floor(math.log10(abs(v)))) - 1)
    return "%.*f" % (min(digits, 6), v)


def report(workload, specs, runs):
    print("\n== %s: %d pairs" % (workload, len(runs)))
    names = [s["name"] for s in specs]
    print("pair  seed  first   steal%% parent/change  %s" %
          "  ".join(names))
    for k, pair in enumerate(runs):
        p, c = pair["parent"], pair["change"]
        marks = "".join("!" if r["steal_share"] > STEAL_FLAG else " "
                        for r in (p, c))
        cells = ["%s/%s" % (fmt(p["metrics"].get(n)),
                            fmt(c["metrics"].get(n))) for n in names]
        print("%4d  %4d  %-6s  %5.1f/%-5.1f%s  %s" % (
            k + 1, p["seed"], pair["first"], 100 * p["steal_share"],
            100 * c["steal_share"], marks, "  ".join(cells)))
    flagged = sum(1 for pair in runs for s in SIDES
                  if pair[s]["steal_share"] > STEAL_FLAG)
    print("runs above %.0f%% steal (marked !): %d of %d; none dropped" %
          (100 * STEAL_FLAG, flagged, 2 * len(runs)))
    failed = {s: sum(r[s]["failed"] for r in runs) for s in SIDES}
    attempted = {s: sum(r[s]["attempted"] for r in runs) for s in SIDES}
    bad = {s: sum(1 for r in runs if not r[s]["correct"]) for s in SIDES}
    for side in SIDES:
        print("%s: %d of %d ops failed, %d of %d runs failed their checks" %
              (side, failed[side], attempted[side], bad[side], len(runs)))
    # change share <= parent share, without dividing by a zero count.
    clean = (bad["change"] == 0 and
             failed["change"] * attempted["parent"] <=
             failed["parent"] * attempted["change"])
    if not clean:
        print("no gain can hold: the change failed checks or a larger "
              "share of ops")
    print("%-32s %-9s %-28s %-28s %-7s %-6s %s" % (
        "metric", "unit", "parent median [Q1, Q3]", "change median [Q1, Q3]",
        "ratio", "won", "verdict"))
    for spec in specs:
        name = spec["name"]
        values = {s: [r[s]["metrics"][name] for r in runs
                      if name in r[s]["metrics"]] for s in SIDES}
        if not values["parent"] and not values["change"]:
            continue
        won = wins(spec, runs)
        word = verdict(spec, values["parent"], values["change"], won,
                       len(runs), clean)
        sides = []
        for side in SIDES:
            if values[side]:
                q1, med, q3 = quartiles(values[side])
                sides.append("%s [%s, %s]" % (fmt(med), fmt(q1), fmt(q3)))
            else:
                sides.append("-")
        ratio = "-"
        if values["parent"] and values["change"]:
            pmed = statistics.median(values["parent"])
            cmed = statistics.median(values["change"])
            ratio = fmt(cmed / pmed) if pmed else "-"
        print("%-32s %-9s %-28s %-28s %-7s %-6s %s" % (
            name, spec.get("unit", ""), sides[0], sides[1], ratio,
            "%d/%d" % (won, len(runs)), word))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload name; repeat for several")
    parser.add_argument("--seeds", default="1-10",
                        help="one pair per seed, e.g. 1-10,77")
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=".compare_build",
                        help="holds each side's build (default: "
                             ".compare_build)")
    parser.add_argument("--json-out", help="write every run here")
    args = parser.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            fail("%s checkout %s has no perfbench/run.py" % (side, path))
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = (bench["end_to_end"] if args.trace == 0 else
             [dict(s, bound=None) for s in bench["per_layer"]])
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or bench["run_seconds"]

    work = os.path.abspath(args.work_dir)
    build_dirs = {side: os.path.join(work, side) for side in SIDES}
    for side in SIDES:
        print("building %s (%s)" % (side, checkouts[side]), file=sys.stderr)
        build(checkouts[side], build_dirs[side])

    results = {}
    for workload in args.workload:
        runs = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                run = run_once(checkouts[side], build_dirs[side], workload,
                               seed, seconds, args.trace)
                pair[side] = run
                print("%s seed %d %s: steal %.1f%%, %s" % (
                    workload, seed, side, 100 * run["steal_share"],
                    ", ".join("%s=%s" % (s["name"],
                                         fmt(run["metrics"].get(s["name"])))
                              for s in specs[:3])), file=sys.stderr)
            runs.append(pair)
        results[workload] = runs
        report(workload, specs, runs)

    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"parent": checkouts["parent"],
                       "change": checkouts["change"], "seconds": seconds,
                       "trace": args.trace, "workloads": results}, f,
                      indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
