"""batsim benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Every command runs ``batsim.cli.main`` in a fresh process (``op.py``) in its
own temporary directory under the checkout, and its outputs are checked.
With ``--trace 0`` the run times whole commands and prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced commands and
prints the per-layer metrics. The last line of standard output is the result
object; the line before it holds the run's details (host, asset hashes,
sample counts, failures). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from itertools import product

import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "src" / "batsim" / "data"
OP = HERE / "op.py"
WORK_DIR = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_COMMANDS = 3        # timed commands per run, whatever --seconds says
COMMAND_TIMEOUT_S = 120
MSE_VECTOR_GATE = 5e-3  # acceptance criterion 4
MEAN_Z_LIMIT = 5.0      # simulate-fixed mean vs the stored reference
D_ALPHA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
D_WOBA_GRID = (0.0, -0.005, -0.01, -0.015)
FIXED_POLICY = {"kind": "fixed", "d_alpha": 0.1, "d_woba": -0.005}

# games per command (simulate-fixed), games per sweep cell, training players
SIZES = {
    "full": {"simulate-fixed": 200_000, "sweep-strategy": 12_288,
             "train-converter": 80},
    "tiny": {"simulate-fixed": 5_000, "sweep-strategy": 500,
             "train-converter": 12},
}


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Command:
    argv: list
    config: dict | None    # written to config.json beside the command
    outputs: tuple         # files compared byte for byte across repeats


def simulate_command(seed: int, size: int) -> Command:
    return Command(
        ["--config", "config.json", "--seed", str(seed), "--workers", "1",
         "--out", "runstats.json", "simulate", "--policy", "fixed",
         "--histogram-csv", "hist.csv"],
        {"n_games": size, "policy": FIXED_POLICY},
        ("runstats.json", "hist.csv"))


def check_simulate(out: pathlib.Path, size: int) -> int:
    stats = json.loads((out / "runstats.json").read_text())
    hist = stats["histogram"]
    if stats["n_games"] != size or sum(hist) != size:
        raise CheckFailed(f"histogram holds {sum(hist)} games, "
                          f"n_games {stats['n_games']}, expected {size}")
    with open(out / "hist.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["runs", "count"] or [int(c) for _, c in rows[1:]] != hist:
        raise CheckFailed("hist.csv does not match the stats histogram")
    ref = json.loads((HERE / "reference.json").read_text())["simulate-fixed"]
    z = (stats["mean"] - ref["mean"]) / math.hypot(stats["stderr"], ref["stderr"])
    if abs(z) > MEAN_Z_LIMIT:
        raise CheckFailed(f"mean {stats['mean']:.5f} is {z:+.1f} standard "
                          f"errors from the reference {ref['mean']:.5f}")
    return size


def sweep_command(seed: int, size: int) -> Command:
    return Command(
        ["--config", "config.json", "--seed", str(seed), "--workers", "2",
         "--out", "sweep.csv", "sweep", "--mode", "strategy-grid"],
        {"n_games": size,
         "sweep": {"mode": "strategy-grid", "d_alpha_grid": list(D_ALPHA_GRID),
                   "d_woba_grid": list(D_WOBA_GRID)}},
        ("sweep.csv",))


def check_sweep(out: pathlib.Path, size: int) -> int:
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = len(D_ALPHA_GRID) * len(D_WOBA_GRID)
    if len(rows) != cells + 1:
        raise CheckFailed(f"{len(rows)} sweep rows, expected {cells + 1}")
    if rows[0]["mode"] != "baseline" or any(r["mode"] != "strategy" for r in rows[1:]):
        raise CheckFailed("the baseline row is not first, alone")
    grid = {(float(r["d_alpha"]), float(r["d_woba"])) for r in rows[1:]}
    if grid != set(product(D_ALPHA_GRID, D_WOBA_GRID)):
        raise CheckFailed("sweep rows do not cover the grid")
    if any(int(r["n_games"]) != size for r in rows):
        raise CheckFailed(f"a row has n_games other than {size}")
    if any(int(r["truncated"]) != 0 for r in rows):
        raise CheckFailed("a sweep row has truncated games")
    return len(rows) * size


def train_command(seed: int, size: int) -> Command:
    return Command(
        ["--seed", str(seed), "--out", "converter.json", "train-converter",
         "--players", str(size)],
        None,
        ("converter.json", "converter.json.metrics.json"))


def check_train(out: pathlib.Path, size: int) -> int:
    m = json.loads((out / "converter.json.metrics.json").read_text())
    if m["n_players"] != size or m["n_pairs"] != size * (size - 1) // 2:
        raise CheckFailed(f"trained on {m['n_pairs']} pairs of {m['n_players']} "
                          f"players, expected all pairs of {size}")
    if not m["mse_vector"] <= MSE_VECTOR_GATE:
        raise CheckFailed(f"MSE(vector) {m['mse_vector']:.3e} above the "
                          f"{MSE_VECTOR_GATE} gate")
    if m["neg_mass_projected"] != 0:
        raise CheckFailed(f"negative mass {m['neg_mass_projected']} after projection")
    if not 1 <= m["best_epoch"] <= m["epochs_run"]:
        raise CheckFailed(f"best epoch {m['best_epoch']} outside "
                          f"1..{m['epochs_run']}")
    return m["epochs_run"]


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "simulate-fixed": (simulate_command, check_simulate),
    "sweep-strategy": (sweep_command, check_sweep),
    "train-converter": (train_command, check_train),
}


# ------------------------------------------------------------- host, assets

def host_metadata() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def asset_hashes() -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(DATA.glob("*.json"))}


# ------------------------------------------------------------- running

@dataclass
class Outcome:
    wall_s: float
    report: dict
    setup_s: float = 0.0    # process start to the first game or epoch
    work: int = 0           # games or epochs, for throughput
    error: str | None = None


@dataclass
class Bench:
    workload: str
    seed: int
    size: int
    work_root: pathlib.Path
    assets: dict
    attempted: int = 0
    failures: list = field(default_factory=list)
    reference_bytes: dict | None = None

    def run(self, mode: str) -> Outcome:
        """Run the workload's command once in a fresh process and directory
        and check it."""
        make_command, check = WORKLOADS[self.workload]
        command = make_command(self.seed, self.size)
        self.attempted += 1
        out = pathlib.Path(tempfile.mkdtemp(dir=self.work_root))
        if command.config is not None:
            (out / "config.json").write_text(json.dumps(command.config))
        report_path = self.work_root / f"report-{self.attempted}.json"
        argv = [sys.executable, str(OP), "--mode", mode,
                "--report", str(report_path), "--", *command.argv]
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=out, stdout=so, stderr=se,
                                    start_new_session=True)
            # A blocking wait returns the moment the command exits; wait()
            # with a timeout polls, which would round wall times up.
            killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg,
                                     (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                proc.wait()
            finally:
                killer.cancel()
                if proc.returncode is None:  # interrupted: stop the command too
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            wall = time.monotonic() - start
        outcome = Outcome(wall, {})
        try:
            if proc.returncode != 0 or not report_path.is_file():
                raise CheckFailed(f"harness exited with {proc.returncode}")
            outcome.report = json.loads(report_path.read_text())
            if outcome.report["exit_code"] != 0:
                raise CheckFailed(f"CLI exited with {outcome.report['exit_code']}")
            if asset_hashes() != self.assets:
                raise CheckFailed("src/batsim/data changed during the command")
            if "setup_end" not in outcome.report:
                raise CheckFailed("the command ran no game or epoch")
            outcome.setup_s = outcome.report["setup_end"] - start
            outcome.work = check(out, self.size)
            self._check_repeatable(out, command.outputs)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError,
                TypeError) as exc:
            outcome.error = f"{mode} command {self.attempted}: {exc}"
            self.failures.append(outcome.error)
            print(outcome.error, file=sys.stderr)
            sys.stderr.write((out / "stderr.txt").read_text()[-2000:])
        shutil.rmtree(out)
        report_path.unlink(missing_ok=True)
        return outcome

    def _check_repeatable(self, out: pathlib.Path, names) -> None:
        produced = {n: (out / n).read_bytes() for n in names}
        if self.reference_bytes is None:
            self.reference_bytes = produced
        elif produced != self.reference_bytes:
            raise CheckFailed("outputs differ from an earlier command "
                              "with the same seed")


def repeat(seconds: float, step) -> None:
    """Call step() until the next call would overrun ``seconds``, and at
    least MIN_COMMANDS times."""
    start = time.monotonic()
    rounds = 0
    while True:
        step()
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= MIN_COMMANDS and elapsed * (rounds + 1) / rounds > seconds:
            return


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.run("plain")  # warms the file and bytecode caches; not timed
    commands: list[Outcome] = []
    repeat(seconds, lambda: commands.append(bench.run("plain")))
    ok = [c for c in commands if c.error is None] or commands
    values = {
        "wall_s": statistics.median(c.wall_s for c in ok),
        "throughput_per_s": statistics.median(c.work / c.wall_s for c in ok),
        "setup_s": statistics.median(c.setup_s for c in ok),
        "peak_rss_mb": statistics.median(
            c.report.get("peak_rss_kb", 0) * 1024 / 1e6 for c in ok),
        "success_rate": 1.0 - len(bench.failures) / bench.attempted,
    }
    samples = {"commands": len(commands),
               "wall_s": [c.wall_s for c in commands],
               "setup_s": [c.setup_s for c in commands]}
    return values, samples


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.run("plain")  # warms the file and bytecode caches; not timed
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    repeat(seconds, lambda: (plain.append(bench.run("plain")),
                             traced.append(bench.run("trace"))))
    traced_ok = [t for t in traced if t.error is None] or traced
    values = layers.run_layers([t.report.get("spans", []) for t in traced_ok],
                               [t.wall_s for t in traced],
                               [p.wall_s for p in plain])
    samples = {"plain_commands": len(plain), "traced_commands": len(traced),
               "plain_wall_s": [p.wall_s for p in plain],
               "traced_wall_s": [t.wall_s for t in traced]}
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one batsim benchmark workload.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "batsim" / "cli.py").is_file():
        print(f"no batsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    assets = asset_hashes()
    host = host_metadata()
    cli_seed = random.Random(args.seed).randrange(1 << 31)
    WORK_DIR.mkdir(exist_ok=True)
    work_root = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    bench = Bench(args.workload, cli_seed, SIZES[args.size][args.workload],
                  work_root, assets)
    try:
        if args.trace:
            values, samples = measure_layers(bench, args.seconds)
        else:
            values, samples = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    detail = {"workload": args.workload, "seed": args.seed, "cli_seed": cli_seed,
              "size": args.size, "host": host, "assets_sha256": assets,
              "samples": samples, "failures": bench.failures}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
