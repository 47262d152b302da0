"""Tests for parameter sweeps: row layout, baseline invariance, threshold
grids, CSV serialization, and histogram distance."""

import logging
import math
from dataclasses import astuple

import numpy as np
import pytest

from batsim.defaults import (
    default_converter_params,
    default_transition_table,
    fitted_lineup,
)
from batsim.simulation import Lineup, monte_carlo
from batsim.strategies import always_normal, build_triple, fixed_policy
from batsim.sweeps import (
    SWEEP_CSV_HEADER,
    default_theta_grids,
    mean_batter,
    run_baseline,
    run_strategy_grid,
    run_threshold_grid,
    total_variation,
    write_sweep_csv,
)
from batsim.transitions import run_expectancy


N_GAMES = 800
SEED = 404


@pytest.fixture(scope="session")
def normals():
    return fitted_lineup()


@pytest.fixture(scope="session")
def table():
    return default_transition_table()


@pytest.fixture(scope="session")
def params():
    return default_converter_params()


@pytest.fixture(scope="session")
def strategy_rows(normals, params, table):
    return run_strategy_grid(
        normals, params, table,
        d_alpha_grid=(0.0, 0.1), d_woba_grid=(0.0, -0.005),
        n_games=N_GAMES, seed=SEED)


@pytest.fixture(scope="session")
def threshold_rows(normals, params, table):
    return run_threshold_grid(
        normals, params, table,
        theta_o_grid=(1.2, 1.6), theta_l_grid=(0.3, 0.5),
        d_alpha=0.1, d_woba=-0.005, n_games=N_GAMES, seed=SEED)


# ---------------------------------------------------------------- baseline

def test_baseline_row_fields(normals, table):
    row = run_baseline(normals, table, n_games=N_GAMES, seed=SEED)
    assert row.mode == "baseline"
    assert row.d_alpha is None and row.d_woba is None
    assert row.theta_o is None and row.theta_l is None
    assert row.delta_vs_baseline == 0.0
    assert row.n_games == N_GAMES
    assert 0.0 < row.mean_runs < 15.0
    assert row.stderr > 0.0


def test_baseline_matches_direct_simulation(normals, table):
    row = run_baseline(normals, table, n_games=N_GAMES, seed=SEED)
    stats = monte_carlo(Lineup.from_vectors(normals), always_normal, table,
                        N_GAMES, SEED)
    assert row.mean_runs == stats.mean
    assert row.stderr == stats.stderr


# ---------------------------------------------------------------- strategy grid

def test_strategy_grid_shape(strategy_rows):
    # baseline + 2x2 grid
    assert len(strategy_rows) == 5
    assert strategy_rows[0].mode == "baseline"
    assert all(r.mode == "strategy" for r in strategy_rows[1:])


def test_strategy_grid_cell_order(strategy_rows):
    cells = [(r.d_alpha, r.d_woba) for r in strategy_rows[1:]]
    assert cells == sorted(cells)
    assert set(cells) == {(0.0, -0.005), (0.0, 0.0), (0.1, -0.005), (0.1, 0.0)}


def test_strategy_grid_deltas_exact(strategy_rows):
    base = strategy_rows[0].mean_runs
    for r in strategy_rows[1:]:
        assert r.delta_vs_baseline == r.mean_runs - base


@pytest.fixture(scope="module")
def pooled_strategy_rows(normals, params, table):
    # 2 workers run the grid's cells in pool tasks
    return run_strategy_grid(normals, params, table, d_alpha_grid=(0.1, 0.3),
                             d_woba_grid=(-0.005, 0.0), n_games=3000,
                             seed=SEED, workers=2)


@pytest.mark.parametrize("d_alpha, d_woba", [(0.1, -0.005), (0.3, 0.0)])
def test_strategy_row_matches_direct_simulation(pooled_strategy_rows, normals,
                                                params, table, d_alpha, d_woba):
    [row] = [r for r in pooled_strategy_rows[1:]
             if (r.d_alpha, r.d_woba) == (d_alpha, d_woba)]
    lineup = Lineup(tuple(build_triple(v, params, d_alpha, d_woba)
                          for v in normals))
    stats = monte_carlo(lineup, fixed_policy, table, 3000, SEED)
    assert (row.mean_runs, row.stderr, row.truncated, row.fallbacks) == (
        stats.mean, stats.stderr, stats.truncated_games,
        stats.fallback_transitions)


def test_strategy_grid_deduplicates_cells(normals, params, table):
    rows = run_strategy_grid(
        normals, params, table,
        d_alpha_grid=(0.1, 0.1, 0.1), d_woba_grid=(0.0,),
        n_games=N_GAMES, seed=SEED)
    assert len(rows) == 2


def test_strategy_grid_deterministic(normals, params, table, strategy_rows):
    again = run_strategy_grid(
        normals, params, table,
        d_alpha_grid=(0.0, 0.1), d_woba_grid=(0.0, -0.005),
        n_games=N_GAMES, seed=SEED)
    assert again == strategy_rows


def test_zero_spread_cell_uses_common_randoms(strategy_rows):
    """The (0, 0) cell plays the same abilities through the same uniforms as
    the baseline, so any gap is purely triple-construction drift."""
    zero = next(r for r in strategy_rows
                if (r.d_alpha, r.d_woba) == (0.0, 0.0))
    assert abs(zero.delta_vs_baseline) < 0.35


# ---------------------------------------------------------------- mean batter

def test_mean_batter_is_componentwise_average(normals):
    avg = mean_batter(normals)
    stacked = np.array([v.as_tuple() for v in normals])
    assert np.allclose(avg.as_tuple(), stacked.mean(axis=0))
    assert math.isclose(sum(avg.as_tuple()), 1.0, abs_tol=1e-9)


# ---------------------------------------------------------------- theta grids

def test_default_theta_grids_from_re_quantiles(normals, table):
    re_table = run_expectancy(table, mean_batter(normals))
    theta_o, theta_l = default_theta_grids(re_table)
    assert len(theta_o) == 4 and len(theta_l) == 4
    assert list(theta_o) == sorted(theta_o)
    assert list(theta_l) == sorted(theta_l)
    # the on-base grid sits above the long-hit grid
    assert min(theta_o) > max(theta_l)
    values = sorted(re_table.values)
    assert values[0] <= min(theta_l)
    assert max(theta_o) <= values[-1]
    for q in theta_o + theta_l:
        assert q == round(q, 4)


# ---------------------------------------------------------------- threshold grid

def test_threshold_grid_shape(threshold_rows):
    assert len(threshold_rows) == 5
    assert threshold_rows[0].mode == "baseline"
    for r in threshold_rows[1:]:
        assert r.mode == "threshold"
        assert r.d_alpha == 0.1 and r.d_woba == -0.005
        assert r.theta_l < r.theta_o


def test_threshold_grid_skips_inverted_cells(normals, params, table, caplog):
    with caplog.at_level(logging.WARNING, logger="batsim.sweeps"):
        rows = run_threshold_grid(
            normals, params, table,
            theta_o_grid=(0.4, 1.5), theta_l_grid=(0.3, 0.9),
            d_alpha=0.1, d_woba=-0.005, n_games=N_GAMES, seed=SEED)
    # (0.4, 0.9) violates theta_l < theta_o; (0.4, 0.3) etc. survive
    cells = {(r.theta_o, r.theta_l) for r in rows[1:]}
    assert cells == {(0.4, 0.3), (1.5, 0.3), (1.5, 0.9)}
    assert any("theta_l must be < theta_o" in rec.message
               for rec in caplog.records)


def test_threshold_grid_derives_grids_when_missing(normals, params, table):
    rows = run_threshold_grid(normals, params, table,
                              d_alpha=0.1, d_woba=-0.005,
                              n_games=200, seed=SEED)
    # 4x4 derived grid, upper quantiles all above lower quantiles: no skips
    assert len(rows) == 17


def test_baseline_identical_across_sweep_modes(strategy_rows, threshold_rows):
    assert strategy_rows[0] == threshold_rows[0]


# ---------------------------------------------------------------- CSV

def test_sweep_csv_header_exact():
    assert SWEEP_CSV_HEADER == (
        "mode,d_alpha,d_woba,theta_o,theta_l,mean_runs,stderr,"
        "delta_vs_baseline,n_games,truncated,fallbacks,infeasible_triples")


def _assert_round_trip(rows, path):
    """Each CSV line holds its row's values, floats as their repr, so every
    value reads back exactly; a blank cell is None."""
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        values = astuple(row)
        assert len(cells) == len(values)
        for cell, value in zip(cells, values):
            assert (cell == "") if value is None else (type(value)(cell) == value)


def test_sweep_csv_round_trip(strategy_rows, tmp_path):
    _assert_round_trip(strategy_rows, tmp_path / "sweep.csv")


def test_sweep_csv_round_trip_threshold(threshold_rows, tmp_path):
    _assert_round_trip(threshold_rows, tmp_path / "sweep.csv")


def test_sweep_csv_blank_cells_for_baseline(strategy_rows, tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(strategy_rows, path)
    first = path.read_text().splitlines()[1].split(",")
    assert first[0] == "baseline"
    assert first[1:5] == ["", "", "", ""]


def test_sweep_rows_rewrite_byte_identical(normals, params, table, strategy_rows,
                                           tmp_path):
    # the same grid rerun under the same seed writes the same bytes
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_sweep_csv(strategy_rows, a)
    write_sweep_csv(run_strategy_grid(
        normals, params, table, d_alpha_grid=(0.0, 0.1),
        d_woba_grid=(0.0, -0.005), n_games=N_GAMES, seed=SEED), b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- TV distance

def test_total_variation_identical_is_zero():
    assert total_variation([5, 3, 2], [5, 3, 2]) == 0.0


def test_total_variation_scale_invariant():
    assert total_variation([5, 3, 2], [50, 30, 20]) == pytest.approx(0.0)


def test_total_variation_disjoint_is_one():
    assert total_variation([10, 0], [0, 10]) == pytest.approx(1.0)


def test_total_variation_ragged_lengths():
    # missing tail bins count as zeros
    assert total_variation([1, 1], [1, 1, 0, 0]) == pytest.approx(0.0)
    assert total_variation([1], [0, 1]) == pytest.approx(1.0)


def test_total_variation_empty_raises():
    with pytest.raises(ValueError, match="nonempty"):
        total_variation([0, 0], [1, 2])
    with pytest.raises(ValueError, match="nonempty"):
        total_variation([], [1])


def test_total_variation_bounds():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(0, 50, size=8)
        b = rng.integers(0, 50, size=8)
        if a.sum() == 0 or b.sum() == 0:
            continue
        tv = total_variation(a, b)
        assert 0.0 <= tv <= 1.0
