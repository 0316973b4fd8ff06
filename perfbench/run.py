#!/usr/bin/env python3
"""Benchmark of the smale_orders pipeline: one workload, one process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload's inputs and the data of its checks are made from ``--seed``
once, untimed: the program takes no part in making them.  Set-up, a fresh
import of ``smale_orders``, is timed SETUPS times before the first round and
once more before every round, which then runs on that import; ``setup_s``
is the median of them all.  Whole rounds of the workload run until
``--seconds`` of wall time have passed and at least the workload's minimum
number of rounds is done.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds, so that the host's slow and fast
phases fall on both, and reports the tracing overhead between them on
standard error next to a per-layer self-time table; its spans and counters
go to ``perfbench/out/``.  Human-readable figures always go to standard
error.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 7
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "output_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fresh(layers):
    """Drop every loaded ``smale_orders`` module and import them again."""
    for name in [m for m in sys.modules if m.split(".")[0] == "smale_orders"]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"smale_orders.{layer}") for layer in layers}
    return SimpleNamespace(**mods)


def set_up(setups: list):
    """One set-up: a fresh import of the program, its time added to setups."""
    t0 = time.perf_counter()
    mods = import_fresh(tracing.LAYERS + ("errors",))
    setups.append(time.perf_counter() - t0)
    return mods


def calibration_s() -> float:
    """A fixed stdlib loop: a reference figure for the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_rounds(workload, state, seconds: float, setups: list, tracer=None):
    """Whole rounds until ``seconds`` have passed and the workload's minimum
    is met.  Each round runs on a fresh set-up, so that set-up is timed in
    the host's phases across the whole run.  With a tracer, odd rounds are
    traced and recorded apart."""
    plain, traced = Recorder(), Recorder()
    min_rounds = workload.min_rounds if tracer is None else max(2, workload.min_rounds)
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        mods = set_up(setups)
        rec = plain
        if tracer is not None and r % 2:
            rec = traced
            tracer.install(mods)
        try:
            workload.run_round(mods, state, r, rec)
        finally:
            if rec is traced:
                tracer.uninstall()
        rec.rounds += 1
        r += 1
    return plain, traced


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def end_to_end(rec, setup_s: float, tail_pct: float) -> dict:
    lat = sorted(rec.latencies)
    return {
        "setup_s": setup_s,
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_tail_ms": 1e3 * percentile(lat, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_mb": rec.output_bytes / rec.rounds / 1e6,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smale_orders" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure under {SRC}\n")
        return 2
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # fixed string hashing, so set and dict orders repeat between runs
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.prepare(args.seed, workdir)
        setups = []
        for _ in range(SETUPS):
            set_up(setups)
        calib = [calibration_s()]

        tracer = tracing.Tracer() if args.trace else None
        rec, traced = run_rounds(workload, state, args.seconds, setups, tracer)
        calib.append(calibration_s())
        setup_s = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stderr.write(f"perfbench: calibration_loop_s {statistics.median(calib):.6f}\n")
    phases = [rec, traced]
    problems = [p for ph in phases for p in ph.problems]
    for text in problems[:5] + [e for ph in phases for e in ph.examples]:
        sys.stderr.write(f"perfbench: problem: {text}\n")
    notes = sum((ph.notes for ph in phases), collections.Counter())
    rounds = sum(ph.rounds for ph in phases)
    for text, count in sorted(notes.items()):
        sys.stderr.write(f"perfbench: note: {text}: {count / rounds:g} per round\n")
    e2e = end_to_end(rec, setup_s, workload.tail_pct)
    sys.stderr.write(
        f"perfbench: {workload.name} seed {args.seed}: {rec.rounds} rounds,"
        f" {len(rec.latencies)} items, tail = p{workload.tail_pct:g}\n")
    for name, value in e2e.items():
        sys.stderr.write(f"  {name:<14} {value:14.6f} {END_TO_END[name]}\n")

    if tracer is None:
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in e2e.items()}
    else:
        per_round = sum(rec.latencies) / rec.rounds
        per_round_traced = sum(traced.latencies) / traced.rounds
        overhead = per_round_traced / per_round - 1
        if workload.via_cli:
            tracer.count("cli.output_bytes", traced.output_bytes)
        layer = tracer.metrics(traced.rounds)
        metrics = {m: {"value": layer[m], "unit": tracing.PER_LAYER[m][0]}
                   for m in tracing.PER_LAYER}
        report_trace(tracer, traced, per_round, per_round_traced, overhead, layer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}-{args.seed}", {
            "workload": workload.name, "seed": args.seed, "rounds": traced.rounds,
            "untraced_s_per_round": per_round, "traced_s_per_round": per_round_traced,
            "overhead": overhead, "per_layer": layer,
        })

    result = {
        "correct": not problems,
        "attempted": sum(len(ph.latencies) for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def report_trace(tracer, traced, per_round, per_round_traced, overhead, layer) -> None:
    err = sys.stderr.write
    err(f"perfbench: traced {traced.rounds} rounds; item time per round"
        f" {per_round:.4f} s untraced, {per_round_traced:.4f} s traced,"
        f" overhead {100 * overhead:+.1f} %\n")
    err("  per-layer metrics (per round):\n")
    for name, value in layer.items():
        err(f"    {name:<28} {value:14.6f} {tracing.PER_LAYER[name][0]}\n")
    err("  self time by function (whole traced phase):\n")
    for name, seconds, calls in tracer.self_time_table()[:25]:
        err(f"    {name:<44} {seconds:10.4f} s {calls:9d} calls\n")


if __name__ == "__main__":
    sys.exit(main())
