"""Atomic artifact writes: a failed write leaves the previous file as it
was and no temporary file behind, a new file gets the mode a plain
open(path, "w") would give it, symlinks and pipes are written the way a
plain open writes them, and same_output finds two paths that one write
would replace."""

import os
import stat
import threading

import pytest

from batsim import fileio
from batsim.abilities import LEAGUE_AVERAGE
from batsim.conversion import save_params
from batsim.defaults import default_converter_params
from batsim.simulation import RunStats
from batsim.sweeps import SweepRow, write_sweep_csv
from batsim.transitions import TransitionTable, run_expectancy

PREVIOUS = b"previous contents\n"


def test_a_write_that_raises_partway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(PREVIOUS)
    with pytest.raises(RuntimeError):
        with fileio.atomic_write(path) as fh:
            fh.write("half of the new ")
            fh.flush()
            raise RuntimeError("interrupted")
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(PREVIOUS)
    with fileio.atomic_write(path, newline="") as fh:
        fh.write("a,b\r\n")
    assert path.read_bytes() == b"a,b\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_a_symlink_keeps_pointing_at_the_new_file(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(PREVIOUS)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    with fileio.atomic_write(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_written_through(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    with fileio.atomic_write(pipe) as fh:
        fh.write("streamed\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"streamed\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_same_output_compares_resolved_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path / "out")
    for a, b in (("out", "out"), ("out", "./out"), ("out", tmp_path / "out"),
                 ("link", "out")):
        assert fileio.same_output(a, b)
    assert not fileio.same_output("out", "out.metrics.json")
    # written straight through, not replaced: two outputs may share it
    assert not fileio.same_output(os.devnull, os.devnull)
    if hasattr(os, "mkfifo"):
        os.mkfifo("pipe")
        assert not fileio.same_output("pipe", "./pipe")


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_new_file_mode_follows_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w", encoding="utf-8") as fh:
            fh.write("x")
        with fileio.atomic_write(tmp_path / "atomic") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("plain", "atomic")}
    assert modes["atomic"] == modes["plain"]


def _stats_json(path):
    RunStats((1, 2, 3)).save(path)


def _stats_csv(path):
    json_path = path.parent.parent / "stats.json"
    RunStats((1, 2, 3)).save(json_path, csv_path=path)


def _sweep_csv(path):
    write_sweep_csv([SweepRow("baseline", None, None, None, None, 4.5, 0.01,
                              0.0, 100, 0, 0, 0)], path)


def _params(path):
    with fileio.atomic_write(path) as fh:  # as train-converter writes it
        save_params(default_converter_params(), fh, train_seed=0)


def _table(path):
    TransitionTable.simple().save(path)


def _run_expectancy(path):
    run_expectancy(TransitionTable.simple(), LEAGUE_AVERAGE).save(path)


@pytest.mark.parametrize("save", [_stats_json, _stats_csv, _sweep_csv,
                                  _params, _table, _run_expectancy])
def test_savers_write_atomically(monkeypatch, tmp_path, save):
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / "artifact"
    path.write_bytes(PREVIOUS)
    replace = os.replace

    def interrupted(src, dst):
        if os.fspath(dst) == os.fspath(path):
            raise KeyboardInterrupt
        replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(fileio.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save(path)
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(path.parent) == ["artifact"]

    save(path)
    assert path.read_bytes() != PREVIOUS
    assert os.listdir(path.parent) == ["artifact"]
