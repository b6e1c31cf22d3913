#!/usr/bin/env python3
"""The simulator's benchmark: one workload, one seed, one thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rost-churn-8k [--seed 42]
        [--seconds 40] [--trace 0|1]

Builds `perfbench-cell` (the Rust package next to this file) with cargo,
then runs every cell in a fresh child process, one at a time. See
`perfbench/README.md` for the workloads, the metrics and what each layer
metric should move.

`--trace 0` runs pairs of cells, a one-event set-up cell and then the full
cell of the same instance, until `--seconds` is spent (at least two
pairs), and reports the end-to-end metrics as medians over the pairs.
Every pair runs a new instance whose seed derives from `--seed`.
`--trace 1` runs a reduced cell of the workload's family under every
invariant, one profiled cell and one untraced cell of the first instance,
and reports the per-layer metrics.

Every cell is checked: its outcome, its digest against the pinned digests
in `perfbench/pins.json` where the instance is pinned, and against every
other cell of the same instance in the run. The last stdout line is the
result object and the line before it the record with provenance; the
record with every cell's output is written to `perfbench/out/`. Exit
status is 0 only when every cell passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
# Every cell must end this many seconds after the build, so a hung cell
# cannot keep the run past its time limit.
DEADLINE_S = 165
MIN_PAIRS = 2
# Instance i of a run at seed s runs the simulator at seed
# s * INSTANCE_STRIDE + i.
INSTANCE_STRIDE = 1_000_000

WORKLOADS = ("rost-churn-8k", "bo-churn-8k", "cer-stream-1k")

# Span counts the profiled run must show, per workload: (metric, rule).
# Each workload has to keep driving the layer it was chosen for and must
# not reach a layer it was chosen to leave alone.
SELF_TEST = {
    "rost-churn-8k": [
        ("overlay.switch.count", "positive"),
        ("rost.attempt.count", "positive"),
        ("overlay.find_eviction.count", "zero"),
        ("cer.group_select.count", "zero"),
    ],
    "bo-churn-8k": [
        ("overlay.find_eviction.count", "positive"),
        ("overlay.evictions", "positive"),
        ("overlay.switch.count", "zero"),
        ("cer.group_select.count", "zero"),
    ],
    "cer-stream-1k": [
        ("cer.group_select.count", "positive"),
        ("overlay.find_eviction.count", "zero"),
    ],
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Simulated statistics: deterministic per instance, pinned by digest, and
# printed with the end-to-end metrics; the profiled run reports them.
SIM_UNITS = {
    "disruptions_per_lifetime": "count",
    "service_delay_ms": "sim_ms",
    "starving_ratio_pct": "sim_%",
}

PER_LAYER_UNITS = {
    "net.generate_s": "s",
    "net.oracle_build_s": "s",
    "engine.construct_s": "s",
    "engine.seed_s": "s",
    "engine.arrival.self_ns_per_op": "ns",
    "engine.rejoin.self_ns_per_op": "ns",
    "engine.unattributed_frac": "ratio",
    "engine.disruptions_per_lifetime": "count",
    "engine.service_delay_ms": "sim_ms",
    "overlay.switch_restamp.ns_per_op": "ns",
    "overlay.switch_restamp.p99_ns": "ns",
    "overlay.remove.ns_per_op": "ns",
    "overlay.reattach.ns_per_op": "ns",
    "overlay.attach.ns_per_op": "ns",
    "overlay.usurp.ns_per_op": "ns",
    "overlay.replace.ns_per_op": "ns",
    "overlay.find_eviction.ns_per_op": "ns",
    "overlay.evictions": "count",
    "rost.attempt.count": "count",
    "rost.switch_ratio": "ratio",
    "rost.lock_assembly.ns_per_op": "ns",
    "cer.group_select.ns_per_op": "ns",
    "cer.repair.ns_per_op": "ns",
    "cer.eln_scope.ns_per_op": "ns",
    "cer.on_time_ratio": "ratio",
    "cer.starving_ratio_pct": "sim_%",
    "sim.queue.ns_per_op": "ns",
    "sim.queue_high_water": "count",
    "obs.tracing_overhead_frac": "ratio",
    "cer.group_select.count": "count",
    "overlay.switch.count": "count",
    "overlay.find_eviction.count": "count",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the cell binary; returns its path, or exits non-zero."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        sys.exit(2)
    if done.returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(target, "release", "perfbench-cell")


def git_revision():
    """The checkout's revision from `.git` files, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs cells in child processes and keeps the pass/fail tally."""

    def __init__(self, binary, workload, seed, pins):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.pins = pins.get(workload, {})
        self.cells = []
        self.digests = {}

    def instance(self, i):
        return self.seed * INSTANCE_STRIDE + i

    def cell(self, mode, seed, *extra):
        cmd = [self.binary, mode, self.workload, str(seed), *extra]
        start = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - start))
            lines = done.stdout.strip().splitlines()
            out = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            err = None if out else f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
        except (subprocess.TimeoutExpired, ValueError) as e:
            out, err = None, f"{type(e).__name__}: {e}"
        elapsed = time.monotonic() - start
        problems = [err] if err else self.check(mode, seed, out)
        for p in problems:
            log(f"{mode} cell at seed {seed} FAILED: {p}")
        self.cells.append({"mode": mode, "seed": seed, "elapsed_s": elapsed,
                           "ok": not problems, "problems": problems, "out": out})
        return None if problems else out

    def check(self, mode, seed, out):
        problems = []
        stats = out["stats"]
        want_outcome = "budget" if mode == "setup" else "horizon"
        if stats["outcome"] != want_outcome:
            problems.append(f"outcome {stats['outcome']}, expected {want_outcome}")
        if mode == "setup" and stats["events"] != 1:
            problems.append(f"one-event cell processed {stats['events']} events")
        if mode == "checked" and out["violations"] != 0:
            problems.append(f"{out['violations']} invariant violations: {out['invariants']}")
        # A traced cell must reproduce the untraced statistics exactly.
        kind = "full" if mode == "traced" else mode
        seen = self.digests.setdefault((kind, seed), out["digest"])
        if seen != out["digest"]:
            problems.append(f"digest {out['digest']} differs from this run's {seen}")
        pinned = self.pins.get(kind, {}).get(str(seed))
        if pinned and pinned != out["digest"]:
            problems.append(f"digest {out['digest']} != pinned {pinned}; stats {stats}")
        return problems

    @property
    def failed(self):
        return sum(1 for c in self.cells if not c["ok"])

    @property
    def attempted(self):
        return sum(1 for c in self.cells if c["mode"] != "self-test")


def measure_end_to_end(runner, seconds):
    """Runs (set-up, full) pairs until `seconds` are spent."""
    start = time.monotonic()
    pairs = []
    i = 0
    while True:
        t0 = time.monotonic()
        seed = runner.instance(i)
        setup = runner.cell("setup", seed)
        full = runner.cell("full", seed)
        if setup and full:
            pairs.append((setup, full))
        i += 1
        took = time.monotonic() - t0
        if i >= MIN_PAIRS and time.monotonic() - start + took > seconds:
            break
    if not pairs:
        return {}, {}
    full_stats = [f["stats"] for _, f in pairs]
    metrics = {
        "wall_s": statistics.median(f["wall_s"] for _, f in pairs),
        "setup_s": statistics.median(s["wall_s"] for s, _ in pairs),
        "events_per_s": statistics.median(
            f["stats"]["events"] / (f["wall_s"] - s["wall_s"]) for s, f in pairs),
        "peak_rss_mb": statistics.median(f["peak_rss_bytes"] for _, f in pairs) / 1e6,
    }
    sim = {k: statistics.median(st[k] for st in full_stats)
           for k in SIM_UNITS if k in full_stats[0]}
    return metrics, sim


def measure_per_layer(runner):
    """One profiled cell, then one untraced cell for the overhead ratio."""
    seed = runner.instance(0)
    profile = os.path.join(OUT_DIR, f"{runner.workload}-seed{seed}.profile.json")
    traced = runner.cell("traced", seed, profile)
    plain = runner.cell("full", seed)
    if not traced or not plain:
        return {}
    stats = traced["stats"]
    layer = dict(traced["per_layer"])
    layer["obs.tracing_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    layer["engine.disruptions_per_lifetime"] = stats["disruptions_per_lifetime"]
    layer["engine.service_delay_ms"] = stats["service_delay_ms"]
    layer["cer.starving_ratio_pct"] = stats.get("starving_ratio_pct", 0.0)
    for metric, rule in SELF_TEST[runner.workload]:
        value = layer[metric]
        if (rule == "zero") != (value == 0):
            problem = f"self-test: {metric} = {value}, expected {rule}"
            log(problem)
            runner.cells.append({"mode": "self-test", "ok": False, "problems": [problem]})
    return layer


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**32 or args.seconds <= 0:
        ap.error("--seed must be in [0, 2^32) and --seconds positive")

    binary = build()
    with open(PINS_PATH) as f:
        pins = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    spin = subprocess.run([binary, "spin"], capture_output=True, text=True, check=True)
    runner = Runner(binary, args.workload, args.seed, pins)

    sim = {}
    if args.trace:
        runner.cell("checked", args.seed)
        values, units = measure_per_layer(runner), PER_LAYER_UNITS
    else:
        (values, sim), units = measure_end_to_end(runner, args.seconds), END_TO_END_UNITS

    failed, attempted = runner.failed, runner.attempted
    correct = failed == 0 and set(values) == set(units)
    for name, value in values.items():
        print(f"{name:36} {value:>18.6f} {units[name]}")
    if not args.trace:
        print(f"{'failed_run_frac':36} {failed / attempted:>18.6f} ratio")
        for name, unit in SIM_UNITS.items():
            value = f"{sim[name]:>18.6f}" if name in sim else f"{'n/a':>18}"
            print(f"{name:36} {value} {unit}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": sys.argv,
        "revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_spin_ns": json.loads(spin.stdout)["calibration_spin_ns"],
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": failed,
        "failed_run_frac": failed / attempted,
        "metrics": values,
        "sim": sim,
        "cells": runner.cells,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    summary = {k: v for k, v in record.items() if k != "cells"}
    print(json.dumps({"record": summary}, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
