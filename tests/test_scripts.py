"""The experiment scripts under scripts/ run end to end on a small game
count and write artifacts the package's readers accept."""

import pathlib
import subprocess
import sys

import pytest

from batsim.simulation import RunStats
from batsim.sweeps import read_sweep_csv

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(script, tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--n-games", "600",
         "--workers", "1", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_run_baseline(tmp_path):
    _run("run_baseline.py", tmp_path, "--out", "baseline.json",
         "--histogram-csv", "baseline.csv")
    stats = RunStats.load(tmp_path / "baseline.json")
    assert stats.n_games == 600
    assert (tmp_path / "baseline.csv").is_file()


@pytest.mark.parametrize("script, n_rows", [("run_strategy_sweep.py", 29),
                                            ("run_threshold_sweep.py", 17)])
def test_sweep_scripts(script, n_rows, tmp_path):
    _run(script, tmp_path, "--out", "sweep.csv")
    assert len(read_sweep_csv(tmp_path / "sweep.csv")) == n_rows
