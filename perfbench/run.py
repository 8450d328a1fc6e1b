#!/usr/bin/env python3
"""Scenario benchmark for the p2pex simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-churn --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first call builds perfbench/ (a CMake project that compiles the
simulator from ../src) into .bench_build/, then repeats the workload's
scenario, one process per repetition, until --seconds have passed. Each
repetition generates one scenario instance from --seed, sets it up
several times and runs it to its end through ten checkpoints
(perfbench/scenario_bench.cpp).

Every run starts with one checked repetition: invariant audits, ring and
discovery probes (each answer verified independently) and the memory
footprint at every checkpoint; every later repetition must reproduce
its simulated results (rings, downloads, session mix). Then
--trace 0 times untraced repetitions and reports the end-to-end metrics
(medians), and --trace 1 runs traced repetitions that give per-layer
self times. Every metric is printed by name with its unit, and the last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--selftest builds and runs the thread-invariance tests (ctest).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_scenario")
CHILD_TIMEOUT_S = 150
# Scenario instances per seed: instance j runs scenario seed
# seed * 1000 + j. Timed repetitions cycle through them in whole rounds,
# so one run's figures rest on several scenarios. The work of one
# 800/550-peer scenario varies by about +-8% from instance to instance
# (search expansions, DHT hops); that of the 50k-peer one by about 1%.
INSTANCES = {"dense-churn": 4, "dht-faults": 4, "sparse-bloom-t4": 2}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        fail("no simulator sources under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def repetition(workload, seed, instance=0, traced=False, checked=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--instance", str(instance)]
    if traced:
        cmd.append("--trace")
    if checked:
        cmd.append("--checks")
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-4000:])
        fail("repetition failed: " + " ".join(cmd))
    return json.loads(res.stdout.strip().splitlines()[-1])


def self_ms(rep, name):
    return rep["self_ms"].get(name, 0.0)


def scenario_self_ms(rep):
    return sum(v for k, v in rep["self_ms"].items() if k.startswith("scenario."))


def us_per_row(rep, counts):
    rows = counts["snapshot.rows_per_patch"] * counts["snapshot.patches"]
    return 1000.0 * self_ms(rep, "snapshot.patch") / rows if rows else 0.0


def end_to_end(reps):
    """End-to-end metrics over untraced repetitions. sim_rate is the
    instances' simulated seconds over the sum of each instance's median
    wall time; set-up time and peak RSS are medians over repetitions."""
    by_instance = {}
    for rep in reps:
        by_instance.setdefault(rep["instance"], []).append(rep)
    sim = sum(r[0]["sim_duration_s"] for r in by_instance.values())
    wall = sum(statistics.median([x["run_wall_s"] for x in r])
               for r in by_instance.values())
    return {
        "setup_s": statistics.median([r["setup_s"] for r in reps]),
        "sim_rate": sim / wall,
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
    }


# Per-layer times, from the traced repetitions (median over them).
LAYER_TIMES = {
    "scenario.parse_ms": lambda rep, c: rep["parse_ms"],
    "scenario.actions_self_ms": lambda rep, c: scenario_self_ms(rep),
    "setup.build_ms": lambda rep, c: rep["build_ms"],
    "engine.unattributed_ms": lambda rep, c: self_ms(rep, "bench.run"),
    "drain.merge_self_ms": lambda rep, c: self_ms(rep, "drain.merge"),
    "snapshot.patch_self_ms": lambda rep, c: self_ms(rep, "snapshot.patch"),
    "snapshot.us_per_row": us_per_row,
    "snapshot.rebuild_self_ms":
        lambda rep, c: self_ms(rep, "snapshot.rebuild"),
    "bloom.refresh_self_ms": lambda rep, c: self_ms(rep, "bloom.refresh"),
    "bloom.rebuild_self_ms": lambda rep, c: self_ms(rep, "bloom.rebuild"),
    "sweep.search_self_ms": lambda rep, c: self_ms(rep, "sweep.search"),
    "sweep.eviction_self_ms": lambda rep, c: self_ms(rep, "sweep.eviction"),
    "parallel.speculate_self_ms": lambda rep, c: self_ms(rep, "drain.speculate"),
    "parallel.shard_ms":
        lambda rep, c: rep["total_ms"].get("speculate.shard", 0.0),
}


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class Ops:
    """Checks made here, on top of those each repetition reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED: " + what)


def measure(workload, seed, seconds, traced):
    """One checked repetition of instance 0 (probes and audits at every
    checkpoint), then timed repetitions until `seconds` have passed:
    untraced ones in whole rounds over the instances, traced ones of
    instance 0 (the checked run's inputs)."""
    start = time.monotonic()
    checked = repetition(workload, seed, checked=True)
    per_round = 1 if traced else INSTANCES[workload]
    timed = []
    round_s = 0.0
    # A round starts only if it is expected to end within `seconds`.
    while not timed or time.monotonic() - start + round_s <= seconds:
        t0 = time.monotonic()
        for instance in range(per_round):
            timed.append(repetition(workload, seed, instance=instance,
                                    traced=traced))
        round_s = time.monotonic() - t0
    return checked, timed


def print_table(title, rows):
    print("-- %s --" % title)
    for name, value, unit in rows:
        print("%-40s %14.6g %s" % (name, value, unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    e2e_units, layer_units = declared_metrics()
    build()
    if args.selftest:
        res = subprocess.run(["ctest", "--output-on-failure"], cwd=BUILD)
        sys.exit(res.returncode)
    if not args.workload:
        fail("--workload is required")

    traced = args.trace == 1
    checked, timed = measure(args.workload, args.seed, args.seconds, traced)
    ops = Ops()
    kind = "traced" if traced else "timed"
    first_of = {}
    for rep in timed:
        first = first_of.setdefault(rep["instance"], rep)
        ops.check(rep["det_json"] == first["det_json"],
                  "%s repetitions of one scenario disagree on the "
                  "deterministic metrics" % kind)
        if rep["instance"] == checked["instance"]:
            ops.check(rep["sim"] == checked["sim"],
                      "a %s repetition's simulated results differ from the "
                      "checked one's" % kind)
    for rep in [checked] + timed:
        for msg in rep["failures"]:
            print("FAILED: " + msg)
    reps = [checked] + timed
    attempted = ops.attempted + sum(int(r["attempted"]) for r in reps)
    failed = ops.failed + sum(int(r["failed"]) for r in reps)

    print("workload %s, seed %d: %d peers, %g simulated s; 1 checked + %d %s "
          "repetitions" % (args.workload, args.seed, checked["peers"],
                           checked["sim_duration_s"], len(timed), kind))
    e2e_reps = [checked] if traced else timed
    e2e = end_to_end(e2e_reps)
    print_table("end to end, untraced" + (", checked run" if traced else ""),
                [(n, e2e[n], e2e_units[n]) for n in e2e_units])
    print("sim_rate per repetition (instance:rate): " + " ".join(
        "%d:%.4g" % (r["instance"], r["sim_duration_s"] / r["run_wall_s"])
        for r in e2e_reps))

    metrics, units = {n: e2e[n] for n in e2e_units}, e2e_units
    if traced:
        # Counts from the unprobed runs: a probe's snapshot read can move
        # the snapshot-patch counters. Memory and probe latencies come from
        # the checked run, the only one that measures them.
        counts = dict(timed[0]["counts"], **checked["probes"])
        counts.update((k, v) for k, v in checked["counts"].items()
                      if k.startswith("memory."))
        layer = {}
        for name in layer_units:
            if name in LAYER_TIMES:
                layer[name] = statistics.median(
                    [LAYER_TIMES[name](r, counts) for r in timed])
            elif name in counts:
                layer[name] = counts[name]
            else:
                fail("no source for per-layer metric " + name)
        print_table("per layer",
                    [(n, v, layer_units[n]) for n, v in layer.items()])
        last = timed[-1]
        rows = sorted(last["self_ms"].items())
        print_table("self time, last traced run, coordinator thread "
                    "(bench.run = engine.unattributed)",
                    [(n, v, "ms") for n, v in rows]
                    + [("(sum of rows)", sum(v for _, v in rows), "ms"),
                       ("Driver::run wall, traced", last["root_ms"], "ms")])
        metrics, units = layer, layer_units
    print("operations: %d attempted, %d failed" % (attempted, failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
