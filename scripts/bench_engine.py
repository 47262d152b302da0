#!/usr/bin/env python3
"""Time the Monte Carlo step loop in-process and print its layer metrics.

Two workloads call mcengine.run_cells at one worker, so with no pool and
no CLI: one cell (the fitted lineup under the fixed policy on the bundled
table) over 48 batches, as a long simulate runs, and four cells (d_alpha
0, 0.1, 0.2, 0.3) over 3 batches each, as a sweep task runs.  The cells'
lineups are built before timing, but run_cells compiles each cell inside
the timed region, as every engine call does (about 2.5 ms a cell on a
2-core x86_64 host), on both sides of a --baseline comparison.  Each workload
runs once untimed, to warm up and to count its plate appearances, then
REPEATS timed runs.  A step plays one half-inning of every game, so a batch
takes 9 steps, the innings, and the report does not count them.
The report gives the median wall time and, from it, ms per batch, plate
appearances and games per second, plus the host.

Usage:
    python3 scripts/bench_engine.py [--tiny] [--out PATH]
    python3 scripts/bench_engine.py --baseline CHECKOUT [--out PATH]

The first form measures this checkout's src/.  The second runs
CHECKOUT's src/ and this checkout's in alternating fresh processes,
ROUNDS rounds of each, and reports each side's ms per batch in every
round and the median over rounds of each per-batch metric.  --tiny runs
2 and 1 batches per cell with one timed run, to check that the script
works.  The JSON goes to standard output, and also to PATH with --out.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve()
SRC = HERE.parent.parent / "src"
SEED = 2026
D_WOBA = -0.005
REPEATS = 7  # timed runs of each workload; one with --tiny
ROUNDS = 10  # processes on each side with --baseline
PER_BATCH = ("ms_per_batch", "pa_per_s", "games_per_s")


def measure(src, repeats, tiny):
    """This process's report on the batsim found in src."""
    sys.path.insert(0, str(src))
    import numpy as np
    from batsim import mcengine
    from batsim.defaults import (
        default_converter_params,
        default_transition_table,
        fitted_lineup,
    )
    from batsim.simulation import Lineup
    from batsim.strategies import build_triple, fixed_policy

    params = default_converter_params()
    table = default_transition_table()
    vectors = fitted_lineup().vectors

    def cells(d_alphas):
        return [(Lineup(tuple(build_triple(v, params, d_alpha, D_WOBA)
                              for v in vectors)), fixed_policy, table)
                for d_alpha in d_alphas]

    def run(cells, n_games):
        return mcengine.run_cells(cells, innings=9, pa_cap=100, n_games=n_games,
                                  seed=SEED, workers=1)

    def workload(name, cells, batches):
        n_games = batches * mcengine.BATCH_SIZE
        units = len(cells) * batches
        pa = sum(result[3] for result in run(cells, n_games))
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run(cells, n_games)
            times.append(time.perf_counter() - start)
        wall = statistics.median(times)
        return {
            "workload": name, "cells": len(cells), "batches_per_cell": batches,
            "units": units, "repeats": repeats, "wall_s_median": wall,
            "wall_s_min": min(times), "wall_s_max": max(times),
            "ms_per_batch": 1e3 * wall / units, "pa": pa, "pa_per_s": pa / wall,
            "games_per_s": len(cells) * n_games / wall,
        }

    one, four = (2, 1) if tiny else (48, 3)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "host": {"usable_cores": cores, "cpu_count": os.cpu_count(),
                 "machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "workloads": [workload("one-cell", cells([0.1]), one),
                      workload("four-cells", cells([0.0, 0.1, 0.2, 0.3]), four)],
    }


def compare(baseline, tiny):
    """Alternate fresh processes on the baseline's src/ and this
    checkout's, ROUNDS times each, the baseline first in odd rounds."""
    sides = {"baseline": pathlib.Path(baseline).resolve() / "src", "change": SRC}
    reports = {side: [] for side in sides}
    for r in range(ROUNDS):
        for side in (("baseline", "change") if r % 2 == 0 else ("change", "baseline")):
            argv = [sys.executable, str(HERE), "--src", str(sides[side])]
            out = subprocess.run(argv + (["--tiny"] if tiny else []),
                                 check=True, capture_output=True, text=True)
            reports[side].append(json.loads(out.stdout))
    runs = {side: [report["workloads"] for report in reports[side]] for side in sides}
    return {"host": reports["change"][0]["host"], "rounds": ROUNDS, "workloads": {
        w["workload"]: {side: {
            "ms_per_batch_by_round": [r[k]["ms_per_batch"] for r in runs[side]],
            **{metric: statistics.median(r[k][metric] for r in runs[side])
               for metric in PER_BATCH}} for side in sides}
        for k, w in enumerate(runs["change"][0])}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="2 and 1 batches per cell, one timed run")
    ap.add_argument("--src", default=str(SRC), help=argparse.SUPPRESS)
    ap.add_argument("--baseline", help="another checkout to compare with")
    ap.add_argument("--out", help="also write the JSON report here")
    args = ap.parse_args()

    if args.baseline:
        report = compare(args.baseline, args.tiny)
    else:
        report = measure(args.src, 1 if args.tiny else REPEATS, args.tiny)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")


if __name__ == "__main__":
    main()
