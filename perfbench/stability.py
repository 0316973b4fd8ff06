#!/usr/bin/env python3
"""Stability of the benchmark: two sets of runs of one commit.

    python3 perfbench/stability.py

Runs ``perfbench/run.py`` (untraced) RUNS times on every workload of
``BENCHMARK.json`` in set A, then again in set B, one child process at a
time with ``PYTHONHASHSEED`` fixed.  Set A uses seeds 1..RUNS, set B the
next RUNS seeds.  For every workload and end-to-end metric it reports each
set's median and quartiles, the spread (quartile distance over the median)
and the drift of B's median from A's in the direction that counts as worse.
A metric is flagged when its drift or a spread exceeds the metric's bound,
or when the two sets fail different shares of items.  A spread of
``setup_s`` above its bound is flagged apart: set-up is gated on its drift
only, its spread is reported so that it stays in view.  The host's
calibration loop, a fixed stdlib loop timed in every run, is reported next
to the figures as a reference, not as a metric.  The report is also written
to ``perfbench/out/stability.json``.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = ROOT / "perfbench" / "out" / "stability.json"
RUNS = 10
CALIBRATION = re.compile(r"calibration_loop_s ([0-9.]+)")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = CALIBRATION.search(proc.stderr)
    result["calibration_s"] = float(match.group(1)) if match else float("nan")
    return result


def summary(values):
    """Median, quartiles and spread (quartile distance over the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    runs: dict = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    for set_name, first_seed in (("A", 1), ("B", 1 + RUNS)):
        for i in range(RUNS):
            for w in workloads:
                result = one_run(w, first_seed + i, bench["run_seconds"])
                runs[set_name][w].append(result)
                print(f"set {set_name} {w:<9} seed {first_seed + i:>3}: "
                      f"{result['attempted']} items, {result['failed']} failed, "
                      f"calibration {result['calibration_s']:.4f} s", file=sys.stderr)

    flagged, wide_setup = [], []
    lines = ["| workload | metric | A median [q1, q3] | A spread | B median [q1, q3]"
             " | B spread | drift | bound |", "|---|---|---|---|---|---|---|---|"]
    for w in workloads:
        for name, (bound, better) in bounds.items():
            stats = {}
            for s in "AB":
                stats[s] = summary([r["metrics"][name]["value"] for r in runs[s][w]])
            drift = (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            worse = drift if better == "lower" else -drift
            wide = max(stats["A"][3], stats["B"][3]) > bound
            bad = worse > bound or (wide and name != "setup_s")
            if bad:
                flagged.append(f"{w} {name}")
            elif wide:
                wide_setup.append(w)
            cells = [f"{stats[s][0]:.5g} [{stats[s][1]:.5g}, {stats[s][2]:.5g}] | "
                     f"{100 * stats[s][3]:.1f} %" for s in "AB"]
            lines.append(f"| {w} | {name} | {cells[0]} | {cells[1]} | "
                         f"{100 * drift:+.1f} %{' FLAG' if bad else ''} | {bound} |")
        shares = {s: sum(r["failed"] for r in runs[s][w]) /
                  sum(r["attempted"] for r in runs[s][w]) for s in "AB"}
        if shares["A"] != shares["B"]:
            flagged.append(f"{w} failed share {shares}")
        calib = {s: statistics.median(r["calibration_s"] for r in runs[s][w]) for s in "AB"}
        lines.append(f"| {w} | calibration loop (reference) | {calib['A']:.4f} s | |"
                     f" {calib['B']:.4f} s | | | |")
    lines.append("")
    lines.append("flagged: " + (", ".join(flagged) if flagged else "none"))
    lines.append("setup_s spread above its bound (not gated): "
                 + (", ".join(wide_setup) if wide_setup else "none"))
    print("\n".join(lines))

    REPORT.parent.mkdir(parents=True, exist_ok=True)
    REPORT.write_text(json.dumps(
        {"runs": runs, "flagged": flagged, "wide_setup": wide_setup}, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
