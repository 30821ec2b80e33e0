#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 ci/ab_pairs.py PARENT_DIR CHANGE_DIR --workload relay-n49 \\
        --pairs 10 --seconds 20 --seed 1 [--trace-pairs K]

Builds perfbench/main.exe in each checkout (dune, shared cache off),
then runs `main.exe --workload W --seed K --seconds S --trace 0` once
per side per pair, alternating which side runs first. For every
end-to-end metric in CHANGE_DIR/BENCHMARK.json it prints the parent's
median with its quartiles, the change's median, the ratio change /
parent and the number of pairs the change won (ties count for
neither). It also reports whether the simulated metrics and `failed`
were identical across every run of both sides.

With --trace-pairs K (default 0), it then runs K `--trace 1`
invocations per side, alternating order, and prints each side's
median of sim.events_per_op, sim.engine_ns_per_event, engine ns per
op (their product, taken per run), sim.bytes_per_event,
net.send_ns_per_op, gc.minor_collections and gc.promoted_mb. A change
that alters how many events a run takes moves the denominator of every
per-event figure, so engine ns per op is the one to compare across
such a change.

Exits 1 if any run fails or prints "correct": false, 2 if a build fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
# Metrics of the simulated system: a fixed seed must reproduce them
# bit for bit, whatever the simulator's speed.
SIMULATED = ("ops_per_s", "p50_ms", "p99_ms", "p999_ms", "unavail_ms")
# Per-layer figures of a traced run: (label, metric or a function of
# the run's metrics).
TRACED = (
    ("sim.events_per_op", "sim.events_per_op"),
    ("sim.engine_ns_per_event", "sim.engine_ns_per_event"),
    ("engine ns per op", lambda m: m["sim.engine_ns_per_event"]["value"]
     * m["sim.events_per_op"]["value"]),
    ("sim.bytes_per_event", "sim.bytes_per_event"),
    ("net.send_ns_per_op", "net.send_ns_per_op"),
    ("gc.minor_collections", "gc.minor_collections"),
    ("gc.promoted_mb", "gc.promoted_mb"),
)


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    return r.returncode == 0


def run(root, args):
    r = subprocess.run([os.path.join(root, EXE)] + args, cwd=root,
                       stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: run in {root} exited {r.returncode}")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--trace-pairs", type=int, default=0)
    a = ap.parse_args()
    # [run] both joins EXE to a checkout and runs in it: a relative
    # path would be resolved twice.
    a.parent = os.path.abspath(a.parent)
    a.change = os.path.abspath(a.change)

    for root in (a.parent, a.change):
        if not build(root):
            print(f"ab_pairs: build failed in {root}", file=sys.stderr)
            return 2
    with open(os.path.join(a.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    args = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
            "--trace", "0"]
    runs = {"parent": [], "change": []}
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(a.parent if side == "parent" else a.change, args))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1}/{a.pairs} ({order[0]} first): wall_s "
              f"{p['metrics']['wall_s']['value']:.4g} -> "
              f"{c['metrics']['wall_s']['value']:.4g}", file=sys.stderr)

    def values(side, name):
        return [r["metrics"][name]["value"] for r in runs[side]]

    print(f"workload {a.workload}, seed {a.seed}, {a.pairs} pairs of "
          f"--seconds {a.seconds} runs, alternating order")
    print(f"{'metric':<14} {'parent median [Q1, Q3]':>36} {'change median':>14} "
          f"{'ratio':>8} {'wins':>6}")
    for m in metrics:
        name = m["name"]
        pv, cv = values("parent", name), values("change", name)
        q1, med, q3 = quartiles(pv)
        cmed = statistics.median(cv)
        lower = m["better"] == "lower"
        wins = sum(1 for p, c in zip(pv, cv) if (c < p if lower else c > p))
        ratio = f"{cmed / med:.4f}" if med else "n/a"
        print(f"{name:<14} {f'{med:.6g} [{q1:.6g}, {q3:.6g}]':>36} {cmed:>14.6g} "
              f"{ratio:>8} {f'{wins}/{a.pairs}':>6}")

    every = runs["parent"] + runs["change"]
    same = all(
        (r["failed"], [r["metrics"][n]["value"] for n in SIMULATED])
        == (every[0]["failed"], [every[0]["metrics"][n]["value"] for n in SIMULATED])
        for r in every)
    print(f"simulated metrics ({', '.join(SIMULATED)}) and failed identical "
          f"across all runs: {'yes' if same else 'NO'}")
    traced = {"parent": [], "change": []}
    targs = args[:-1] + ["1"]
    for i in range(a.trace_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            traced[side].append(run(a.parent if side == "parent" else a.change, targs))
    if a.trace_pairs:
        print(f"traced (--trace 1), medians of {a.trace_pairs} runs per side")
        print(f"{'figure':<24} {'parent':>14} {'change':>14} {'ratio':>8}")
        for label, f in TRACED:
            get = f if callable(f) else (lambda m, f=f: m[f]["value"])
            pm = statistics.median(get(r["metrics"]) for r in traced["parent"])
            cm = statistics.median(get(r["metrics"]) for r in traced["change"])
            ratio = f"{cm / pm:.4f}" if pm else "n/a"
            print(f"{label:<24} {pm:>14.6g} {cm:>14.6g} {ratio:>8}")
        runs["parent"] += traced["parent"]
        runs["change"] += traced["change"]

    bad = [side for side in runs for r in runs[side] if not r["correct"]]
    if bad:
        print(f"ab_pairs: \"correct\": false in {len(bad)} run(s) ({', '.join(sorted(set(bad)))})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
