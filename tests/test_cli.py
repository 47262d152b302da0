"""End-to-end CLI tests: every subcommand through main(), exit codes on the
documented error classes, and reproducibility of file outputs."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import multiprocessing
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from batsim.abilities import (
    LEAGUE_AVERAGE,
    AbilityVector,
    dump_ability_vector,
    load_ability_vector,
)
from batsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, main
from batsim.config import (
    POLICY_KINDS,
    SWEEP_MODES,
    ExperimentConfig,
    load_config,
)
from batsim.conversion import (
    N_PARAMS,
    PAIR_CSV_HEADER,
    ConverterParams,
    load_params,
    save_params,
)
from batsim.defaults import (
    default_converter_params,
    default_transition_table,
    fitted_lineup,
)
from batsim import cli, mcengine
from batsim.mcengine import BATCH_SIZE
from batsim.simulation import Lineup, RunStats, load_histogram_csv, monte_carlo
from batsim.strategies import always_normal
from batsim.sweeps import SweepRow
from batsim.synthdata import synthesize_event_log
from batsim.transitions import (
    EVENT_CSV_HEADER,
    RunExpectancyTable,
    TransitionTable,
    build_table,
    parse_event_log,
    write_event_csv,
)


def write_config(path, **over):
    obj = {"n_games": 400, "seed": 99, "workers": 1}
    obj.update(over)
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def cfg_path(tmp_path):
    return write_config(tmp_path / "cfg.json",
                        policy={"kind": "normal-only"})


@pytest.fixture(scope="session")
def events_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.csv"
    write_event_csv(synthesize_event_log(3000, seed=11), path)
    return str(path)


# ---------------------------------------------------------------- global flags

def test_print_config_defaults(capsys):
    assert main(["--print-config"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["n_games"] == 100000
    assert obj["policy"]["kind"] == "fixed"


def test_print_config_applies_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seed=5)
    assert main(["--config", cfg, "--seed", "7", "--workers", "3",
                 "--print-config"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["seed"] == 7
    assert obj["workers"] == 3
    assert obj["n_games"] == 400


@pytest.mark.parametrize("seed, command, flags, extra", [
    (["--seed", "3"], "train-converter", ["--players", "12"], []),
    ([], "simulate", ["--policy", "normal-only"], []),
    ([], "sweep", ["--mode", "threshold-grid"], []),
    ([], "build-transitions", ["--min-count", "1"], ["--events"]),
], ids=["train-converter", "simulate", "sweep", "build-transitions"])
def test_print_config_reproduces_the_run(seed, command, flags, extra, tmp_path,
                                         events_csv, capsys):
    """The config that --print-config dumps, with the command's flags
    applied, runs the command to the same bytes without those flags."""
    base = write_config(tmp_path / "base.json", n_games=300, seed=4,
                        policy={"kind": "fixed"},
                        sweep={"theta_o_grid": [1.5], "theta_l_grid": [0.3]})
    extra = [*extra, events_csv] if extra else []
    assert main(["--config", base, *seed, "--print-config", command, *extra,
                 *flags]) == EXIT_OK
    effective = tmp_path / "effective.json"
    effective.write_text(capsys.readouterr().out)
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert main(["--config", base, *seed, "--out", str(a), command, *extra,
                 *flags]) == EXIT_OK
    assert main(["--config", str(effective), "--out", str(b), command,
                 *extra]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    if command == "train-converter":
        assert (tmp_path / "a.out.metrics.json").read_bytes() == \
            (tmp_path / "b.out.metrics.json").read_bytes()
    # and the flags did change the config
    assert load_config(effective) != load_config(base)


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().out


def test_missing_config_file(tmp_path, capsys):
    for path in (tmp_path / "nope.json", tmp_path):  # absent, a directory
        rc = main(["--config", str(path), "--print-config"])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"ngames": 10}')
    assert main(["--config", str(path), "--print-config"]) == EXIT_CONFIG
    assert "ngames" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for body in (b"{not json", b'{"n_games": 1\xff}'):  # the second is not UTF-8
        path.write_bytes(body)
        assert main(["--config", str(path), "--print-config"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


def _malformed_config(case, tmp_path):
    """The config object for one malformed-input case, writing any file it
    points at into tmp_path."""
    if case == "n_games-str":
        return {"n_games": "100"}
    if case == "n_games-float":
        return {"n_games": 100.5}
    if case == "workers-float":
        return {"workers": 1.5}
    if case == "pa_cap-too-large":  # engine parameters: unknown config keys
        return {"innings": 9, "pa_cap": 3641}
    if case == "d_alpha-str":
        return {"policy": {"d_alpha": "0.1"}}
    if case == "d_alpha-nan":
        return {"policy": {"d_alpha": float("nan")}}
    if case == "theta_o-str":
        return {"policy": {"kind": "threshold", "theta_o": "1.0", "theta_l": 0.3}}
    if case == "d_alpha_grid-str":
        return {"sweep": {"d_alpha_grid": ["0.1"]}}
    if case == "vectors-not-objects":
        vectors = tmp_path / "vectors.json"
        vectors.write_text(json.dumps([1] * 9))
        return {"lineup": {"vectors_path": str(vectors)}}
    if case.startswith("vector-component-"):
        bad = {"list": [0.15], "null": None, "bool": True, "str": "0.15"}[
            case.removeprefix("vector-component-")]
        vectors = tmp_path / "vectors.json"
        vectors.write_text(json.dumps(
            [LEAGUE_AVERAGE.to_json_dict()] * 8
            + [{**LEAGUE_AVERAGE.to_json_dict(), "1b": bad}]))
        return {"lineup": {"vectors_path": str(vectors)}}
    if case == "targets_path-int":
        return {"lineup": {"targets_path": 3}}
    if case == "targets_path-list":
        return {"lineup": {"targets_path": [1]}}
    if case in ("params-list", "params-missing-key", "params-nan"):
        params = tmp_path / "params.json"
        if case == "params-list":
            params.write_text("[]")
        else:
            with open(params, "w", encoding="utf-8") as fh:
                save_params(default_converter_params(), fh, train_seed=0)
            obj = json.loads(params.read_text())
            if case == "params-nan":  # would be clamped to zero mass
                obj["b3"][0] = float("nan")
            else:
                del obj["woba_weights"]
            params.write_text(json.dumps(obj))
        return {"converter": {"params_path": str(params)}}
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"targets": [{"obp": 0.33, "slg": 0.4}] * 9}))
    return {"lineup": {"targets_path": str(targets)}}


@pytest.mark.parametrize("case, code", [
    ("n_games-str", EXIT_CONFIG),
    ("n_games-float", EXIT_CONFIG),
    ("workers-float", EXIT_CONFIG),
    ("pa_cap-too-large", EXIT_CONFIG),
    ("d_alpha-str", EXIT_CONFIG),
    ("d_alpha-nan", EXIT_CONFIG),
    ("theta_o-str", EXIT_CONFIG),
    ("d_alpha_grid-str", EXIT_CONFIG),
    ("vectors-not-objects", EXIT_CONFIG),
    ("vector-component-list", EXIT_DATA),
    ("vector-component-null", EXIT_DATA),
    ("vector-component-bool", EXIT_DATA),
    ("vector-component-str", EXIT_DATA),
    ("targets_path-int", EXIT_CONFIG),
    ("targets_path-list", EXIT_CONFIG),
    ("params-list", EXIT_DATA),
    ("params-missing-key", EXIT_DATA),
    ("params-nan", EXIT_DATA),
    ("targets-row-missing-keys", EXIT_CONFIG),
    ("convert --d-alpha nan --d-woba -0.005", EXIT_CONFIG),
    ("convert --d-alpha inf --d-woba -0.005", EXIT_CONFIG),
    ("convert --d-alpha 0.1 --d-woba nan", EXIT_CONFIG),
    ("train-converter --players 0", EXIT_CONFIG),
    ("train-converter --players 1", EXIT_CONFIG),
    ("train-converter --players 4", EXIT_CONFIG),
    ("build-transitions --events events.csv --min-count -3", EXIT_CONFIG),
    ("compute-re --batter homer.json", EXIT_RUNTIME),
    ("validate --reference zeros.csv", EXIT_DATA),
])
def test_malformed_user_json_exits_cleanly(case, code, tmp_path):
    """A malformed config for simulate, a malformed command line or
    reference file, or a batter whose inning never ends, exits with a clean
    error; a rejected flag is named."""
    obj = {"n_games": 400, "seed": 99, "workers": 1}
    if " " in case:  # a command line, run under the default config
        command = case.split()
        write_event_csv(synthesize_event_log(50, seed=1), tmp_path / "events.csv")
        (tmp_path / "zeros.csv").write_text("runs,count\n0,0\n")
        # homers all but once in 1e12 plate appearances: valid (a pure
        # homer vector has no out mass), but the inning never ends
        (tmp_path / "homer.json").write_text(json.dumps(
            {**dict.fromkeys(LEAGUE_AVERAGE.to_json_dict(), 0.0),
             "hr": 1.0 - 1e-12, "k": 1e-12}))
    else:
        obj.update(_malformed_config(case, tmp_path))
        command = ["simulate"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "batsim.cli", "--config", str(cfg),
         "--out", str(tmp_path / "stats.json"), *command],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    bad_flags = [flag for flag, value in zip(command, command[1:])
                 if flag.startswith("--")
                 and value in ("nan", "inf", "0", "1", "4", "-3")]
    assert all(flag in proc.stderr for flag in bad_flags)


# ---------------------------------------------------------------- simulate

def test_simulate_normal_only(cfg_path, tmp_path, capsys):
    out = tmp_path / "stats.json"
    hist = tmp_path / "hist.csv"
    rc = main(["--config", cfg_path, "--out", str(out), "simulate",
               "--histogram-csv", str(hist)])
    assert rc == EXIT_OK
    stats = json.loads(out.read_text())
    assert stats["n_games"] == 400
    assert 0.0 < stats["mean"] < 15.0
    lines = hist.read_text().splitlines()
    assert lines[0] == "runs,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 400
    assert "mean" in capsys.readouterr().out


def test_simulate_failed_histogram_write_leaves_no_stats(cfg_path, tmp_path,
                                                         capsys):
    out = tmp_path / "stats.json"
    hist = tmp_path / "hist"
    hist.mkdir()
    rc = main(["--config", cfg_path, "--out", str(out), "simulate",
               "--histogram-csv", str(hist)])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "hist"]
    assert list(hist.iterdir()) == []


def _no_work(*args, **kwargs):
    raise AssertionError("the command started work")


def test_simulate_outputs_must_name_different_files(cfg_path, tmp_path, capsys,
                                                    monkeypatch):
    """Two outputs that resolve to one file are rejected before any game
    is played, so neither replaces the other."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "monte_carlo", _no_work)
    (tmp_path / "link.csv").symlink_to(tmp_path / "x")
    cases = [(["--out", "x"], "x"), (["--out", "x"], "./x"),
             (["--out", str(tmp_path / "x")], "link.csv"),
             ([], "runstats.json")]  # the default --out
    for out, hist in cases:
        rc = main(["--config", cfg_path, *out, "simulate", "--histogram-csv", hist])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--out" in err and f"--histogram-csv {hist} name the same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "link.csv"]


def _simulate_normal_only(tmp_path, **over):
    cfg = write_config(tmp_path / "cfg.json", policy={"kind": "normal-only"},
                       **over)
    out = tmp_path / "stats.json"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == EXIT_OK
    return json.loads(out.read_text())


def _expected(vectors, table):
    stats = monte_carlo(Lineup.from_vectors(vectors), always_normal, table,
                        400, 99, workers=1)
    return {**asdict(stats), "histogram": list(stats.histogram)}


def test_simulate_simple_table(tmp_path):
    stats = _simulate_normal_only(tmp_path, transitions={"source": "simple"})
    table = TransitionTable(rows={})
    assert stats == _expected(fitted_lineup(), table)


def test_simulate_event_csv_table(events_csv, tmp_path):
    # 3000 events leave rows on either side of 40 events, so min_count
    # changes the table and the games
    stats = {}
    for min_count in (0, 40):
        stats[min_count] = _simulate_normal_only(tmp_path, transitions={
            "source": "event-csv", "event_csv": events_csv,
            "min_count": min_count})
        table = build_table(parse_event_log(events_csv)[0],
                            min_count=min_count)
        assert stats[min_count] == _expected(fitted_lineup(), table)
    assert stats[0] != stats[40]


def test_simulate_lineup_vectors(tmp_path):
    vectors = [LEAGUE_AVERAGE, *fitted_lineup()[1:]]
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps([v.to_json_dict() for v in vectors]))
    stats = _simulate_normal_only(tmp_path, lineup={"vectors_path": str(path)})
    table = default_transition_table()
    assert stats == _expected(vectors, table)
    assert stats != _expected(fitted_lineup(), table)


def test_simulate_fixed_policy(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", n_games=200)
    out = tmp_path / "stats.json"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == EXIT_OK
    assert json.loads(out.read_text())["n_games"] == 200


def test_simulate_threshold_policy(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", n_games=200,
        policy={"kind": "threshold", "theta_o": 1.5, "theta_l": 0.3})
    out = tmp_path / "stats.json"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == EXIT_OK


def test_simulate_threshold_override_needs_thetas(cfg_path, tmp_path, capsys):
    rc = main(["--config", cfg_path, "--out", str(tmp_path / "s.json"),
               "simulate", "--policy", "threshold"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    {"transitions": {"event_csv": "missing.csv"}},
    {"policy": {"kind": "fixed", "theta_o": 0.3, "theta_l": 0.5}}],
    ids=["event_csv", "thetas"])
def test_simulate_rejects_a_bad_value_it_would_not_read(section, tmp_path,
                                                         capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", **section)
    assert main(["--config", cfg, "simulate"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and next(iter(section)) in err
    assert not (tmp_path / "runstats.json").exists()


def test_simulate_seed_changes_histogram(cfg_path, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--config", cfg_path, "--seed", "1", "--out", str(a),
                 "simulate"]) == EXIT_OK
    assert main(["--config", cfg_path, "--seed", "2", "--out", str(b),
                 "simulate"]) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()


def test_simulate_worker_count_invariant(tmp_path):
    # two batches, so --workers 2 runs them on the pool
    cfg_path = write_config(tmp_path / "cfg.json", n_games=BATCH_SIZE + 300,
                            policy={"kind": "normal-only"})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--config", cfg_path, "--workers", "1", "--out", str(a),
                 "simulate"]) == EXIT_OK
    assert main(["--config", cfg_path, "--workers", "2", "--out", str(b),
                 "simulate"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("mode", ["strategy-grid", "threshold-grid"])
def test_sweep_worker_count_invariant(tmp_path, mode, monkeypatch):
    # two batches per cell, so at 2 and 3 workers the grid's cells x batches
    # are split across the shared pool, at 2 workers mid-cell
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 8)
    cfg = write_config(tmp_path / "cfg.json", n_games=BATCH_SIZE + 300,
                       sweep={"d_alpha_grid": [0.0, 0.1, 0.2], "d_woba_grid": [0.0],
                              "theta_o_grid": [1.2, 1.5, 1.8], "theta_l_grid": [0.3]})
    out = {w: tmp_path / f"workers{w}.csv" for w in ("1", "2", "3")}
    for workers, path in out.items():
        assert main(["--config", cfg, "--workers", workers, "--out", str(path),
                     "sweep", "--mode", mode]) == EXIT_OK
    assert len(out["1"].read_text().splitlines()) == 5  # header, baseline, 3 cells
    assert out["1"].read_bytes() == out["2"].read_bytes() == out["3"].read_bytes()


def test_build_transitions(events_csv, tmp_path, capsys):
    out = tmp_path / "table.json"
    rc = main(["--out", str(out), "build-transitions", "--events", events_csv])
    assert rc == EXIT_OK
    table = TransitionTable.load(out)
    assert len(table.rows) > 50
    assert "coverage" in capsys.readouterr().out


def test_build_transitions_missing_events(tmp_path, capsys):
    for path in (tmp_path / "nope.csv", tmp_path):  # absent, a directory
        rc = main(["--out", str(tmp_path / "t.json"), "build-transitions",
                   "--events", str(path)])
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err


def test_build_transitions_header_only(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("outs_pre,bases_pre,outcome,outs_post,bases_post,runs\n")
    rc = main(["--out", str(tmp_path / "t.json"), "build-transitions",
               "--events", str(path)])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_build_transitions_wrong_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("outs,bases,outcome,outs_post,bases_post,runs\n"
                    "0,0,HR,0,0,1\n")
    rc = main(["--out", str(tmp_path / "t.json"), "build-transitions",
               "--events", str(path)])
    assert rc == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_build_transitions_malformed_strict(tmp_path, capsys):
    path = tmp_path / "events.csv"
    path.write_text("outs_pre,bases_pre,outcome,outs_post,bases_post,runs\n"
                    "0,0,HR,0,0,1\n"
                    "0,0,HR,0,0\n")
    rc = main(["--out", str(tmp_path / "t.json"), "build-transitions",
               "--events", str(path)])
    assert rc == EXIT_DATA
    assert "line 3" in capsys.readouterr().err


def test_build_transitions_malformed_lenient(tmp_path, capsys):
    path = tmp_path / "events.csv"
    path.write_text("outs_pre,bases_pre,outcome,outs_post,bases_post,runs\n"
                    "0,0,HR,0,0,1\n"
                    "0,0,HR,0,0\n"
                    "1,3,K,2,3,0\n")
    out = tmp_path / "t.json"
    rc = main(["--out", str(out), "build-transitions", "--events", str(path),
               "--lenient", "--min-count", "1"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "rejected 1 rows" in text
    assert "line 3" in text
    assert len(TransitionTable.load(out).rows) == 2


# ---------------------------------------------------------------- compute-re

def test_compute_re_league_average(tmp_path, capsys):
    out = tmp_path / "re.json"
    assert main(["--out", str(out), "compute-re"]) == EXIT_OK
    obj = json.loads(out.read_text())
    assert len(obj) == 24
    assert "0-0" in obj and "2-7" in obj
    assert all(v >= 0.0 for v in obj.values())
    # more outs cannot raise the expected remaining runs
    for bases in range(8):
        assert obj[f"0-{bases}"] >= obj[f"1-{bases}"] >= obj[f"2-{bases}"]
    assert "run expectancy" in capsys.readouterr().out


def test_compute_re_custom_batter(tmp_path):
    batter = tmp_path / "batter.json"
    dump_ability_vector(LEAGUE_AVERAGE, batter)
    out = tmp_path / "re.json"
    assert main(["--out", str(out), "compute-re",
                 "--batter", str(batter)]) == EXIT_OK


def test_compute_re_missing_batter_file(tmp_path, capsys):
    for path in (tmp_path / "nope.json", tmp_path):  # absent, a directory
        rc = main(["--out", str(tmp_path / "re.json"), "compute-re",
                   "--batter", str(path)])
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err


def test_output_path_is_a_directory(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "compute-re"]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no temporary file is left


@pytest.mark.parametrize("bad", [[0.15], None, False])
def test_compute_re_batter_component_not_a_number(tmp_path, capsys, bad):
    batter = tmp_path / "batter.json"
    batter.write_text(json.dumps({**LEAGUE_AVERAGE.to_json_dict(), "k": bad}))
    rc = main(["--out", str(tmp_path / "re.json"), "compute-re",
               "--batter", str(batter)])
    assert rc == EXIT_DATA
    assert "component k must be a number" in capsys.readouterr().err


# ---------------------------------------------------------------- train-converter

def test_train_converter_five_players_is_enough(tmp_path):
    """Five players give the 10 pairs training needs (four are rejected
    with the other malformed command lines)."""
    rc = main(["--out", str(tmp_path / "p5.json"), "train-converter",
               "--players", "5"])
    assert rc == EXIT_OK
    assert json.loads((tmp_path / "p5.json.metrics.json").read_text())["n_pairs"] == 10


def test_train_converter_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--out", str(a), "train-converter", "--players", "30"]) == EXIT_OK
    assert main(["--out", str(b), "train-converter", "--players", "30"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    metrics = json.loads((tmp_path / "a.json.metrics.json").read_text())
    assert metrics["n_players"] == 30
    assert metrics["n_pairs"] == 30 * 29 // 2
    assert metrics["mse_vector"] < 1e-2
    load_params(a)  # round-trips through the loader's shape checks


def test_train_converter_failed_metrics_write_leaves_no_params(tmp_path,
                                                               capsys):
    out = tmp_path / "conv.json"
    (tmp_path / "conv.json.metrics.json").mkdir()
    rc = main(["--out", str(out), "train-converter", "--players", "5"])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["conv.json.metrics.json"]

    out.mkdir()  # and the other way round: the params path is a directory
    (tmp_path / "conv.json.metrics.json").rmdir()
    assert main(["--out", str(out), "train-converter",
                 "--players", "5"]) == EXIT_DATA
    assert [p.name for p in tmp_path.iterdir()] == ["conv.json"]
    assert list(out.iterdir()) == []


def test_train_converter_seed_changes_params(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--seed", "1", "--out", str(a), "train-converter",
                 "--players", "30"]) == EXIT_OK
    assert main(["--seed", "2", "--out", str(b), "train-converter",
                 "--players", "30"]) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()


def test_train_converter_failed_write_leaves_no_pairs(tmp_path, capsys):
    """The pairs dump is written with the params and metrics: when the
    params path cannot be written, no pairs file is left either."""
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["--out", str(out), "train-converter", "--players", "5",
               "--pairs-csv", str(tmp_path / "p.csv")])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert "data error" in captured.err
    assert "training pairs" not in captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(out.iterdir()) == []


def test_train_converter_unwritable_pairs_leaves_no_params(tmp_path, capsys):
    """A pairs path that cannot be written leaves neither the params nor
    the metrics file: all three are written together."""
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    rc = main(["--out", str(tmp_path / "x.json"), "train-converter",
               "--players", "5", "--pairs-csv", str(pairs)])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["pairs"]
    assert list(pairs.iterdir()) == []


def test_train_converter_outputs_must_name_different_files(tmp_path, capsys,
                                                           monkeypatch):
    """The pairs dump may name neither the params file nor its metrics
    file; the clash is rejected before any player is drawn."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "synthesize_players", _no_work)
    for pairs, clash in (("p.json", "--out p.json"),
                         ("./p.json.metrics.json", "metrics file p.json.metrics.json")):
        rc = main(["--out", "p.json", "train-converter", "--players", "5",
                   "--pairs-csv", pairs])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{clash} and --pairs-csv {pairs} name the same file" in err
    assert list(tmp_path.iterdir()) == []


def test_train_converter_seed_is_the_config_seed(tmp_path):
    seed = str(ExperimentConfig().seed)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--out", str(a), "train-converter", "--players", "5"]) == EXIT_OK
    assert main(["--seed", seed, "--out", str(b), "train-converter",
                 "--players", "5"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["metadata"]["train_seed"] == int(seed)


def test_train_converter_dumps_pairs(tmp_path):
    pairs = tmp_path / "pairs.csv"
    rc = main(["--out", str(tmp_path / "p.json"), "train-converter",
               "--players", "12", "--pairs-csv", str(pairs)])
    assert rc == EXIT_OK
    lines = pairs.read_text().splitlines()
    assert lines[0] == ",".join(PAIR_CSV_HEADER)
    assert len(lines) == 12 * 11 // 2 + 1


# ---------------------------------------------------------------- convert

def test_convert_stdout(capsys):
    rc = main(["convert", "--d-alpha", "0.05", "--d-woba", "-0.005"])
    assert rc == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    probs = list(obj.values())
    assert len(probs) == 8
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_convert_to_file(tmp_path):
    out = tmp_path / "converted.json"
    rc = main(["--out", str(out), "convert",
               "--d-alpha", "0.1", "--d-woba", "-0.01"])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert sum(obj.values()) == pytest.approx(1.0, abs=1e-9)


def test_convert_rejects_positive_dwoba(capsys):
    rc = main(["convert", "--d-alpha", "0.1", "--d-woba", "0.01"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("d_alpha, d_woba, flag", [
    ("1e308", "0", "--d-alpha"), ("-1.5", "0", "--d-alpha"),
    ("0.1", "-3", "--d-woba"),
])
def test_convert_rejects_a_shift_no_profile_can_make(d_alpha, d_woba, flag,
                                                     tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["--out", str(out), "convert", f"--d-alpha={d_alpha}",
                 f"--d-woba={d_woba}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"config error: {flag} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("section", [
    {"policy": {"kind": "fixed", "d_alpha": 1e300, "d_woba": 0}},
    {"sweep": {"d_alpha_grid": [0.1], "d_woba_grid": [-3.0]}},
])
def test_configs_reject_a_shift_no_profile_can_make(section, tmp_path, capsys):
    """Before, the fixed policy at d_alpha 1e300 played 2000 games and
    reported 10.5 runs a game."""
    cfg = write_config(tmp_path / "cfg.json", n_games=2000, **section)
    for command in (["simulate"], ["sweep"]):
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), *command]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be" in err
    assert not (tmp_path / "o").exists()


def test_convert_projection_failure(tmp_path, capsys):
    # biases push single mass far past the unit sum and both out components
    # negative, so strikeouts, ground outs, and the fly-out residual all
    # clamp to zero: the projected vector cannot end an inning
    broken = ConverterParams(np.zeros(N_PARAMS))
    broken.b3[:] = [5.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0]
    params_path = tmp_path / "broken.json"
    with open(params_path, "w", encoding="utf-8") as fh:
        save_params(broken, fh, train_seed=0)
    cfg = write_config(tmp_path / "cfg.json",
                       converter={"params_path": str(params_path)})
    rc = main(["--config", cfg, "convert", "--d-alpha", "0.0",
               "--d-woba", "0.0"])
    assert rc == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("layer,index,weight", [
    ("b3", 0, 1e308), ("b3", 0, 1e3), ("b3", 5, -50.0)])
def test_convert_through_a_huge_weight_fails(layer, index, weight, tmp_path,
                                             capsys):
    """One huge finite weight in a copy of the bundled converter.  Before,
    convert printed a degenerate batter and exited 0: 1b 1.0 at b3[0] =
    1e308, 1b 0.9994 at 1e3, and f 0.989 at b3[5] = -50."""
    params = tmp_path / "params.json"
    with open(params, "w", encoding="utf-8") as fh:
        save_params(default_converter_params(), fh, train_seed=0)
    obj = json.loads(params.read_text())
    obj[layer][index] = weight
    params.write_text(json.dumps(obj))
    cfg = write_config(tmp_path / "cfg.json", converter={"params_path": str(params)})
    before = sorted(tmp_path.iterdir())
    for out in ([], ["--out", str(tmp_path / "v.json")]):
        rc = main(["--config", cfg, *out, "convert", "--d-alpha", "0.1",
                   "--d-woba", "0"])
        assert rc == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "more than 1" in captured.err
    assert sorted(tmp_path.iterdir()) == before


def test_convert_missing_batter_file(tmp_path):
    for path in (tmp_path / "nope.json", tmp_path):  # absent, a directory
        rc = main(["convert", "--batter", str(path),
                   "--d-alpha", "0.1", "--d-woba", "-0.005"])
        assert rc == EXIT_DATA


# ---------------------------------------------------------------- sweep

def test_sweep_strategy_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", n_games=300,
                       sweep={"d_alpha_grid": [0.0, 0.1],
                              "d_woba_grid": [0.0]})
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--config", cfg, "--out", str(a), "sweep"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(b), "sweep"]) == EXIT_OK
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(f.name for f in fields(SweepRow))
    assert len(lines) == 4  # header + baseline + 2 cells
    assert lines[1].startswith("baseline,")
    assert a.read_bytes() == b.read_bytes()
    assert "best" in capsys.readouterr().out


def test_sweep_integer_grid_entries_write_float_bytes(tmp_path):
    """A JSON 0 in a float grid is the float 0.0: the same rows, byte for
    byte, as a config written with 0.0."""
    written = []
    for name, zero in (("int", 0), ("float", 0.0)):
        cfg = write_config(tmp_path / f"{name}.json", n_games=300,
                           sweep={"d_alpha_grid": [zero, 0.1],
                                  "d_woba_grid": [zero]})
        out = tmp_path / f"{name}.csv"
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert b"\nstrategy,0.0,0.0," in written[0]


def test_sweep_threshold_mode(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", n_games=300,
                       sweep={"theta_o_grid": [1.5], "theta_l_grid": [0.3]})
    out = tmp_path / "sweep.csv"
    rc = main(["--config", cfg, "--out", str(out), "sweep",
               "--mode", "threshold-grid"])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("threshold,")


def test_threshold_grid_cell_equals_simulate(tmp_path):
    """A threshold-grid row plays the same games as simulate --policy
    threshold at its (theta_o, theta_l): equal mean and stderr."""
    thetas = {"theta_o": 1.6, "theta_l": 0.3}
    cfg = write_config(tmp_path / "cfg.json", n_games=3000, seed=5,
                       policy={"d_alpha": 0.1, "d_woba": -0.005, **thetas},
                       sweep={"theta_o_grid": [1.2, 1.6], "theta_l_grid": [0.3, 0.5]})
    sweep, stats = tmp_path / "sweep.csv", tmp_path / "stats.json"
    assert main(["--config", cfg, "--out", str(sweep), "sweep",
                 "--mode", "threshold-grid"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(stats), "simulate",
                 "--policy", "threshold"]) == EXIT_OK
    with open(sweep, encoding="utf-8", newline="") as fh:
        [row] = [r for r in csv.DictReader(fh)
                 if (r["theta_o"], r["theta_l"]) == ("1.6", "0.3")]
    simulated = json.loads(stats.read_text())
    assert (float(row["mean_runs"]), float(row["stderr"])) == (
        simulated["mean"], simulated["stderr"])


def test_a_batter_without_on_base_mass_plays_and_is_counted(tmp_path):
    """A strikeout-only batter has no on-base share, so every triple made
    from that batter, the baseline's constant one too, fails the ordering
    check: every sweep row counts it, and play goes on."""
    all_k = dict.fromkeys(LEAGUE_AVERAGE.to_json_dict(), 0.0) | {"k": 1.0}
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps(
        [all_k] + [v.to_json_dict() for v in fitted_lineup()[1:]]))
    cfg = write_config(tmp_path / "cfg.json", n_games=300,
                       lineup={"vectors_path": str(vectors)},
                       sweep={"d_alpha_grid": [0.0, 0.1], "d_woba_grid": [0.0],
                              "theta_o_grid": [1.5], "theta_l_grid": [0.3]})
    stats = tmp_path / "stats.json"
    assert main(["--config", cfg, "--out", str(stats), "simulate",
                 "--policy", "fixed"]) == EXIT_OK
    assert json.loads(stats.read_text())["n_games"] == 300
    infeasible = {}
    for mode in ("strategy-grid", "threshold-grid"):
        out = tmp_path / f"{mode}.csv"
        assert main(["--config", cfg, "--out", str(out), "sweep",
                     "--mode", mode]) == EXIT_OK
        with open(out, encoding="utf-8", newline="") as fh:
            infeasible.update({(r["mode"], r["d_alpha"], r["theta_o"]):
                               int(r["infeasible_triples"])
                               for r in csv.DictReader(fh)})
    assert infeasible[("baseline", "", "")] == 1  # every row counts the batter
    assert infeasible[("strategy", "0.1", "")] == 1
    assert infeasible[("strategy", "0.0", "")] >= 1
    assert infeasible[("threshold", "0.1", "1.5")] >= 1


# ---------------------------------------------------------------- validate

def test_validate_against_own_histogram(cfg_path, tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    assert main(["--config", cfg_path, "--out", str(tmp_path / "s.json"),
                 "simulate", "--histogram-csv", str(hist)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "paired.csv"
    rc = main(["--config", cfg_path, "--out", str(out), "validate",
               "--reference", str(hist)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "total variation distance 0.0000" in text
    assert "mean difference +0.0000" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "runs,count_sim,count_ref"
    for line in lines[1:]:
        _, sim, ref = line.split(",")
        assert sim == ref


def test_validate_missing_reference(cfg_path, tmp_path):
    for path in (tmp_path / "nope.csv", tmp_path):  # absent, a directory
        rc = main(["--config", cfg_path, "--out", str(tmp_path / "v.csv"),
                   "validate", "--reference", str(path)])
        assert rc == EXIT_DATA


def test_validate_malformed_reference(cfg_path, tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    # a count that is not a number; a row with a third cell; more runs
    # than a game can score
    for text, where in (("runs,count\n0,ten\n", ":2:"),
                        ("runs,count\n0,5\n1,3,99\n2,2\n", ":3: 3 cells"),
                        ("runs,count\n0,5\n1000000,1\n", ":3: runs 1000000")):
        ref.write_text(text)
        rc = main(["--config", cfg_path, "--out", str(tmp_path / "v.csv"),
                   "validate", "--reference", str(ref)])
        assert rc == EXIT_DATA
        assert where in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()


# ---------------------------------------------------------------- every command

def test_every_csv_artifact_has_one_dialect(events_csv, tmp_path):
    """Every CSV the package writes: comma separated, lines ending in a
    line feed alone, the header first, and readable by its reader."""
    cfg = write_config(tmp_path / "cfg.json", n_games=300,
                       sweep={"d_alpha_grid": [0.0, 0.1], "d_woba_grid": [-0.005],
                              "theta_o_grid": [1.5], "theta_l_grid": [0.3]})
    run = lambda *argv: main(["--config", cfg, *argv])  # noqa: E731
    path = {name: tmp_path / f"{name}.csv" for name in (
        "histogram", "validate", "strategy", "threshold", "pairs", "events")}
    assert run("--out", str(tmp_path / "s.json"), "simulate", "--histogram-csv",
               str(path["histogram"])) == EXIT_OK
    assert run("--out", str(path["validate"]), "validate", "--reference",
               str(path["histogram"])) == EXIT_OK
    for mode in ("strategy", "threshold"):
        assert run("--out", str(path[mode]), "sweep", "--mode",
                   f"{mode}-grid") == EXIT_OK
    assert run("--out", str(tmp_path / "p.json"), "train-converter", "--players",
               "5", "--pairs-csv", str(path["pairs"])) == EXIT_OK
    events, _ = parse_event_log(events_csv)
    write_event_csv(events, path["events"])
    sweep_header = ",".join(f.name for f in fields(SweepRow))
    headers = {"histogram": "runs,count", "validate": "runs,count_sim,count_ref",
               "strategy": sweep_header, "threshold": sweep_header,
               "pairs": ",".join(PAIR_CSV_HEADER),
               "events": ",".join(EVENT_CSV_HEADER)}
    for name, p in path.items():
        data = p.read_bytes()
        assert b"\r" not in data, name
        assert data.decode("utf-8").split("\n", 1)[0] == headers[name], name
    assert sum(load_histogram_csv(path["histogram"])) == 300
    assert parse_event_log(str(path["events"]))[0] == events


# each command with one output naming a file it reads; the config is named
# for simulate's default --out, and is small enough that a run which
# replaced it would take well under a second
_INPUT_CLASHES = {
    "simulate-config": (["simulate"], "--config", "runstats.json"),
    "sweep-config": (["--out", "runstats.json", "sweep"], "--config", "runstats.json"),
    "train-converter-config": (["--out", "p.json", "train-converter",
                                "--pairs-csv", "runstats.json"],
                               "--config", "runstats.json"),
    "build-transitions-events": (["--out", "events.csv", "build-transitions",
                                  "--events", "events.csv"], "--events", "events.csv"),
    "validate-reference": (["--out", "ref.csv", "validate", "--reference", "ref.csv"],
                           "--reference", "ref.csv"),
    "compute-re-batter": (["--out", "batter.json", "compute-re", "--batter",
                           "batter.json"], "--batter", "batter.json"),
    "convert-batter": (["--out", "batter.json", "convert", "--batter", "batter.json",
                        "--d-alpha", "0.1", "--d-woba", "-0.005"],
                       "--batter", "batter.json"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_CLASHES))
def test_no_command_replaces_a_file_it_reads(case, events_csv, tmp_path, capsys,
                                             monkeypatch):
    argv, flag, name = _INPUT_CLASHES[case]
    monkeypatch.chdir(tmp_path)
    inputs = {
        "runstats.json": json.dumps({
            "n_games": 200, "seed": 1, "workers": 1,
            "policy": {"kind": "normal-only"},
            "sweep": {"d_alpha_grid": [0.1], "d_woba_grid": [0.0]},
            "converter": {"n_players": 5}}).encode(),
        "events.csv": pathlib.Path(events_csv).read_bytes(),
        "ref.csv": b"runs,count\n0,3\n1,2\n",
        "batter.json": json.dumps(LEAGUE_AVERAGE.to_json_dict()).encode(),
    }
    for path, body in inputs.items():
        (tmp_path / path).write_bytes(body)
    rc = main(["--config", "runstats.json", *argv])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{flag} {name} and " in err and "name the same file" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == inputs


_DATA = pathlib.Path(cli.__file__).parent / "data"

# each config field that names a file a command reads, with the config
# section that names in.json there, the command whose --out is in.json,
# and the file that in.json holds
_CONFIG_INPUT_CLASHES = {
    "lineup.vectors_path": (
        {"lineup": {"vectors_path": "in.json"}}, ["simulate"],
        json.dumps([v.to_json_dict() for v in fitted_lineup()]).encode()),
    "lineup.targets_path": (
        {"lineup": {"targets_path": "in.json"}}, ["simulate"],
        (_DATA / "lineup_targets.json").read_bytes()),
    "converter.params_path": (
        {"converter": {"params_path": "in.json"}},
        ["convert", "--d-alpha", "0.1", "--d-woba", "-0.005"],
        (_DATA / "converter_default.json").read_bytes()),
    "transitions.event_csv": (
        {"transitions": {"source": "event-csv", "event_csv": "in.json"}},
        ["compute-re"], None),
}


@pytest.mark.parametrize("field", sorted(_CONFIG_INPUT_CLASHES))
def test_no_command_replaces_a_file_its_config_names(field, events_csv, tmp_path,
                                                     capsys, monkeypatch):
    section, argv, body = _CONFIG_INPUT_CLASHES[field]
    monkeypatch.chdir(tmp_path)
    if body is None:
        body = pathlib.Path(events_csv).read_bytes()
    (tmp_path / "in.json").write_bytes(body)
    cfg = write_config(tmp_path / "cfg.json", policy={"kind": "normal-only"},
                       **section)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["--config", cfg, "--out", "in.json", *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{field} in.json and --out in.json name the same file" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_config_file_that_a_command_does_not_read_may_be_replaced(tmp_path,
                                                                    monkeypatch):
    """train-converter reads no converter, so its --out may be the one that
    the config names as converter.params_path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_bytes((_DATA / "converter_default.json").read_bytes())
    cfg = write_config(tmp_path / "cfg.json",
                       converter={"params_path": "p.json", "n_players": 5})
    assert main(["--config", cfg, "--out", "p.json", "train-converter"]) == EXIT_OK
    assert load_params("p.json").flat.shape == (N_PARAMS,)
    assert (tmp_path / "p.json").read_bytes() \
        != (_DATA / "converter_default.json").read_bytes()


def test_main_leaves_no_pool_worker_alive(tmp_path, monkeypatch):
    """perfbench reads RUSAGE_CHILDREN for a command's peak RSS once main
    returns, and that counts only workers that have exited and been
    reaped: main stops the pool whether the command succeeds or fails."""
    mcengine.shutdown_pool()  # a pool that another test left running
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 8)
    started = []
    shared_pool = mcengine._shared_pool
    monkeypatch.setattr(mcengine, "_shared_pool",
                        lambda n: started.append(n) or shared_pool(n))
    # two batches, so --workers 2 runs them on a pool of 2
    cfg = write_config(tmp_path / "cfg.json", n_games=BATCH_SIZE + 300,
                       policy={"kind": "normal-only"},
                       sweep={"d_alpha_grid": [0.1], "d_woba_grid": [0.0]})
    assert main(["--config", cfg, "--workers", "2", "--out",
                 str(tmp_path / "s.csv"), "sweep"]) == EXIT_OK
    assert started and multiprocessing.active_children() == []
    started.clear()
    # the histogram's directory does not exist: the write fails after the
    # games were played on the pool
    assert main(["--config", cfg, "--workers", "2", "--out",
                 str(tmp_path / "s.json"), "simulate", "--histogram-csv",
                 str(tmp_path / "missing" / "h.csv")]) == EXIT_DATA
    assert started and multiprocessing.active_children() == []


# ---------------------------------------------------------------- the contract

def _leaves(obj, path=()):
    """The path of every scalar in a JSON value."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else None
    if items is None:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]


def _containers(obj, path=()):
    """The path of every list and object in a JSON value."""
    if not isinstance(obj, (dict, list)):
        return []
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    return [path] + [c for key, value in items for c in _containers(value, (*path, key))]


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@functools.cache
def _valid_inputs():
    """Every file a command can read, by name: a JSON value, or CSV rows."""
    params = io.StringIO()
    save_params(default_converter_params(), params, train_seed=0)
    events = [list(EVENT_CSV_HEADER)] + [
        [str(e.outs_pre), str(e.bases_pre), e.outcome.value, str(e.outs_post),
         str(e.bases_post), str(e.runs)] for e in synthesize_event_log(200, seed=3)]
    return {
        "events.csv": events,
        "ref.csv": [["runs", "count"], ["0", "40"], ["3", "35"], ["7", "25"]],
        "batter.json": LEAGUE_AVERAGE.to_json_dict(),
        "vectors.json": [v.to_json_dict() for v in fitted_lineup()],
        "targets.json": json.loads((_DATA / "lineup_targets.json").read_text()),
        "params.json": json.loads(params.getvalue()),
    }


# values that no field takes, or that a reader must check; none of them is
# a valid game count, so no run plays more than the config's 300 games
_BAD_VALUES = ("x", None, [], {}, True, math.nan, math.inf, -math.inf, -1, -1e9,
               1e308)
_BAD_CELLS = ("x", "", "nan", "inf", "-1", "1.5", "1e308", "9" * 30)
# finite output-layer weights that push the network's answer far from any
# distribution, so that converting through them must fail (exit 4)
_HUGE_WEIGHTS = (1e308, -1e308, 1e3, -50.0)

# each output's reader, by the flag that names it (--out: by command); it
# raises on a file that does not load
_READERS = {
    "build-transitions": TransitionTable.load,
    "compute-re": lambda p: RunExpectancyTable(tuple(json.loads(p.read_text()).values())),
    "train-converter": load_params,
    "convert": load_ability_vector,
    "simulate": lambda p: RunStats(json.loads(p.read_text())["histogram"]),
    "sweep": lambda p: [float(row["mean_runs"])
                        for row in csv.DictReader(io.StringIO(p.read_text()))],
    "validate": lambda p: np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2),
    "--histogram-csv": load_histogram_csv,
    "--pairs-csv": lambda p: np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2),
    "metrics": lambda p: json.loads(p.read_text())["mse_vector"],
}


_OUTPUT_FLAGS = ("--out", "--histogram-csv", "--pairs-csv")
# the config sections whose files each command reads
_CONFIG_READS = {"build-transitions": (), "compute-re": ("transitions",),
                 "train-converter": (), "convert": ("converter",),
                 "simulate": ("transitions", "lineup", "converter"),
                 "sweep": ("transitions", "lineup", "converter"),
                 "validate": ("transitions", "lineup")}


def _serialize(name, body) -> str:
    if isinstance(body, str):
        return body
    if name.endswith(".csv"):
        return "".join(",".join(row) + "\n" for row in body)
    return json.dumps(body)


@st.composite
def cli_runs(draw):
    """A command line for one of the seven subcommands, the files it reads,
    by name, each a JSON value, CSV rows or text (None: missing), and the
    outputs it names.  At most one input is mutated, or one output is
    named as an input or as another output.  A "weight" mutation runs a
    command that reads the converter, names params.json in the config, and
    sets one of its output-layer weights (b3 or w3) to a huge finite
    value."""
    mutation = draw(st.sampled_from(["none", "missing", "truncate", "value",
                                     "extra", "twice", "weight"]))
    cfg = {
        "n_games": draw(st.integers(1, 300)), "seed": draw(st.integers(0, 2**40)),
        "workers": 1,
        "policy": {"d_alpha": draw(st.sampled_from([0.0, 0.1, 0.3])),
                   "d_woba": draw(st.sampled_from([0.0, -0.005])),
                   "theta_o": 1.5, "theta_l": 0.3},
        "sweep": {"d_alpha_grid": [0.0, 0.1], "d_woba_grid": [-0.005],
                  "theta_o_grid": [0.4, 1.5], "theta_l_grid": [0.3, 0.9]},
        "transitions": draw(st.sampled_from([
            {}, {"source": "simple"}, {"source": "event-csv", "event_csv": "events.csv"}])),
        "lineup": draw(st.sampled_from([
            {}, {"vectors_path": "vectors.json"}, {"targets_path": "targets.json"}])),
        "converter": {"params_path": "params.json"} if mutation == "weight"
        else draw(st.sampled_from([{}, {"params_path": "params.json"}])),
    }
    command = draw(st.sampled_from(sorted(cli._COMMANDS) if mutation != "weight"
                                   else ["convert", "simulate", "sweep"]))
    maybe = lambda *tokens: list(tokens) if draw(st.booleans()) else []  # noqa: E731
    out = {"build-transitions": "out.table", "compute-re": "out.re",
           "train-converter": "out.params", "convert": "out.vector",
           "simulate": "out.stats", "sweep": "out.sweep",
           "validate": "out.validate"}[command]
    if command == "convert" and draw(st.booleans()):
        out = None  # to stdout
    argv = ["--config", "cfg.json", *maybe(f"--seed={draw(st.integers(-1, 2**70))}"),
            *maybe(f"--workers={draw(st.sampled_from([0, 1, 2, 10**9]))}"),
            *(["--out", out] if out else []), command]
    reals = st.sampled_from([0.0, 0.1, -0.1, 1.0, 1.5, -1e308, 1e308, math.nan, math.inf])
    argv += {
        "build-transitions": ["--events", "events.csv",
                              *maybe(f"--min-count={draw(st.integers(-2, 10**9))}"),
                              *maybe("--lenient")],
        "compute-re": maybe("--batter", "batter.json"),
        "train-converter": ["--players=12", *maybe("--pairs-csv", "out.pairs")],
        "convert": [f"--d-alpha={draw(reals)}", f"--d-woba={-draw(reals)}",
                    *maybe("--batter", "batter.json")],
        "simulate": ["--policy", draw(st.sampled_from(POLICY_KINDS)),
                     *maybe("--histogram-csv", "out.hist")],
        "sweep": ["--mode", draw(st.sampled_from(SWEEP_MODES))],
        "validate": ["--reference", "ref.csv"],
    }[command]
    # every file the config names must exist, but a command reads only
    # those of the config sections it resolves
    read = _CONFIG_READS[command] if "normal-only" not in argv else ("transitions", "lineup")
    named = {path: section in read for section, fields in cfg.items()
             if isinstance(fields, dict)
             for key, path in fields.items() if key.endswith(("_path", "_csv"))}
    inputs = {"cfg.json": cfg} | {name: _valid_inputs()[name]
                                  for name in {*argv, *named} if name in _valid_inputs()}
    reads = [name for name in inputs if named.get(name, True)]

    name = "params.json" if mutation == "weight" else draw(st.sampled_from(sorted(inputs)))
    body = copy.deepcopy(inputs[name])
    if mutation == "weight":
        layer = body[draw(st.sampled_from(["b3", "w3"]))]
        *parent, key = draw(st.sampled_from(_leaves(layer)))
        _at(layer, parent)[key] = draw(st.sampled_from(_HUGE_WEIGHTS))
    elif mutation == "missing":
        body = None
    elif mutation == "truncate":
        text = _serialize(name, body)
        body = text[:draw(st.integers(0, len(text) - 1))]
    elif mutation in ("value", "extra") and name.endswith(".csv"):  # a cell
        row = draw(st.sampled_from(body))
        cell = draw(st.sampled_from(_BAD_CELLS))
        if mutation == "value":
            row[draw(st.integers(0, len(row) - 1))] = cell
        else:
            row.append(cell)
    elif mutation == "value":
        *parent, key = draw(st.sampled_from(_leaves(body)))
        _at(body, parent)[key] = draw(st.sampled_from(_BAD_VALUES))
    elif mutation == "extra":
        container = _at(body, draw(st.sampled_from(_containers(body))))
        if isinstance(container, dict):
            container["extra"] = draw(st.sampled_from(_BAD_VALUES))
        else:
            container.append(copy.deepcopy(container[0]) if container else 1)
    elif mutation == "twice":
        at = [i + 1 for i, flag in enumerate(argv) if flag in _OUTPUT_FLAGS]
        if at:
            argv[draw(st.sampled_from(at))] = draw(st.sampled_from(
                sorted(inputs) + [argv[i] for i in at]))
    inputs[name] = body
    event(f"mutation {mutation}")
    outputs = {argv[i + 1]: _READERS[command if flag == "--out" else flag]
               for i, flag in enumerate(argv) if flag in _OUTPUT_FLAGS}
    if command == "train-converter":
        outputs[argv[argv.index("--out") + 1] + ".metrics.json"] = _READERS["metrics"]
    return argv, inputs, reads, outputs


def _contract_settings():
    """cli-contract-deep when pytest loaded it (--hypothesis-profile), else
    the Tier-1 profile cli-contract; both are registered in conftest.py."""
    name = settings.get_current_profile_name()
    return settings.get_profile(name if name == "cli-contract-deep" else "cli-contract")


def _huge_bias_run():
    """convert through the bundled converter with b3[0] at 1e308, which
    once printed a batter of nothing but singles and exited 0."""
    params = copy.deepcopy(_valid_inputs()["params.json"])
    params["b3"][0] = 1e308
    return (["--config", "cfg.json", "convert", "--d-alpha=0.1", "--d-woba=0"],
            {"cfg.json": {"converter": {"params_path": "params.json"}},
             "params.json": params}, ["cfg.json", "params.json"], {})


@_contract_settings()
@given(run=cli_runs())
@example(run=_huge_bias_run())
def test_cli_contract(run, tmp_path_factory):
    """Every command, on valid inputs or on inputs with one mutation,
    either exits 0 having written every output it names, each loading with
    its reader, or exits 2, 3 or 4 with a one-line message and writes
    nothing.  No command changes a file it reads."""
    argv, inputs, reads, outputs = run
    work = tmp_path_factory.mktemp("contract")
    for name, body in inputs.items():
        if body is not None:
            (work / name).write_text(_serialize(name, body), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    read = {name: body for name, body in before.items() if name in reads}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        after = {p.name: p.read_bytes() for p in work.iterdir()}
        assert {name: after.get(name) for name in read} == read
        message = err.getvalue()
        event(f"{next(a for a in argv if a in cli._COMMANDS)} exits {rc}")
        if rc == EXIT_OK:
            assert set(after) == set(before) | set(outputs)
            for name, reader in outputs.items():
                reader(work / name)
            if "--out" not in argv:  # convert printed its vector
                AbilityVector.from_json_dict(json.loads(out.getvalue()))
        else:
            assert rc in (EXIT_CONFIG, EXIT_DATA, EXIT_RUNTIME), message
            assert after == before
            assert message.count("\n") == 1 and "Traceback" not in message, message
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
