"""Experiment sweeps over strategy parameters and activation thresholds.

Every sweep re-simulates its own baseline (normal-only lineup) under the
same seed, so row deltas are common-random-number comparisons: game i sees
identical uniforms in every row, and the baseline row is identical across
sweep modes given the same lineup, table, and seed.  The baseline runs
first, as its own engine call; each mode then hands its labelled (lineup,
policy) cells to one runner, which plays them in one monte_carlo_cells call
and builds every row.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass, fields
from itertools import product

import numpy as np

from .abilities import AbilityVector
from .fileio import write_csv
from .simulation import Lineup, RunStats, monte_carlo, monte_carlo_cells
from .strategies import always_normal, build_triple, fixed_policy, threshold_policy
from .transitions import RunExpectancyTable, TransitionTable, run_expectancy

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepRow:
    mode: str  # "baseline", "strategy", or "threshold"
    d_alpha: float | None
    d_woba: float | None
    theta_o: float | None
    theta_l: float | None
    mean_runs: float
    stderr: float
    delta_vs_baseline: float
    n_games: int
    truncated: int
    fallbacks: int
    infeasible_triples: int


def _row(mode: str, labels, lineup: Lineup, stats: RunStats,
         baseline_mean: float) -> SweepRow:
    """The row of one played cell: its (d_alpha, d_woba, theta_o, theta_l)
    labels, None where unset, its statistics, and the batters of its lineup
    whose triples fail the on-base-share ordering."""
    return SweepRow(
        mode, *labels, mean_runs=stats.mean, stderr=stats.stderr,
        delta_vs_baseline=stats.mean - baseline_mean, n_games=stats.n_games,
        truncated=stats.truncated_games, fallbacks=stats.fallback_transitions,
        infeasible_triples=sum(not t.ordering_ok for t in lineup.slots),
    )


def run_baseline(normals, table: TransitionTable, *, n_games: int, seed: int,
                 workers: int = 1) -> SweepRow:
    lineup = Lineup.from_vectors(normals)
    stats = monte_carlo(lineup, always_normal, table, n_games, seed, workers=workers)
    return _row("baseline", (None,) * 4, lineup, stats, stats.mean)


def _run_grid(mode: str, baseline: SweepRow, cells, table: TransitionTable, *,
              n_games: int, seed: int, workers: int) -> list[SweepRow]:
    """The baseline row, then one row per (labels, lineup, policy) cell, in
    the given order; the cells play in one monte_carlo_cells call."""
    stats = monte_carlo_cells([(lineup, policy, table) for _, lineup, policy in cells],
                              n_games, seed, workers=workers)
    return [baseline] + [_row(mode, labels, lineup, cell, baseline.mean_runs)
                         for (labels, lineup, _), cell in zip(cells, stats)]


def run_strategy_grid(normals, params, table: TransitionTable, *,
                      d_alpha_grid, d_woba_grid, n_games: int, seed: int,
                      workers: int = 1) -> list[SweepRow]:
    """Fixed-condition policy over every (d_alpha, d_woba) cell.

    The baseline row comes first; grid rows follow in parameter-tuple order
    regardless of evaluation order.
    """
    baseline = run_baseline(normals, table, n_games=n_games, seed=seed,
                            workers=workers)
    cells = [((d_alpha, d_woba, None, None),
              Lineup(tuple(build_triple(v, params, d_alpha, d_woba) for v in normals)),
              fixed_policy)
             for d_alpha, d_woba in sorted(product(set(d_alpha_grid), set(d_woba_grid)))]
    return _run_grid("strategy", baseline, cells, table, n_games=n_games,
                     seed=seed, workers=workers)


def mean_batter(normals) -> AbilityVector:
    """Component-wise average of the lineup, used to derive one
    run-expectancy table for threshold activation."""
    stacked = np.array([v.as_tuple() for v in normals], dtype=np.float64)
    return AbilityVector(*stacked.mean(axis=0))


def default_theta_grids(re_table: RunExpectancyTable,
                        ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Candidate thresholds from the quantiles of the 24 live-state RE
    values: on-base activation in the upper range, long-hit in the lower."""
    values = np.array(re_table.values, dtype=np.float64)
    theta_o = tuple(round(float(q), 4)
                    for q in np.quantile(values, (0.55, 0.70, 0.85, 0.95)))
    theta_l = tuple(round(float(q), 4)
                    for q in np.quantile(values, (0.05, 0.15, 0.30, 0.45)))
    return theta_o, theta_l


def run_threshold_grid(normals, params, table: TransitionTable, *,
                       theta_o_grid=None, theta_l_grid=None,
                       d_alpha: float, d_woba: float,
                       n_games: int, seed: int, workers: int = 1) -> list[SweepRow]:
    """Threshold-activation policy over every valid (theta_o, theta_l) cell
    at one fixed strategy spread. Cells with theta_l >= theta_o are skipped
    and logged rather than simulated."""
    re_table = run_expectancy(table, mean_batter(normals))
    if theta_o_grid is None or theta_l_grid is None:
        derived_o, derived_l = default_theta_grids(re_table)
        theta_o_grid = derived_o if theta_o_grid is None else theta_o_grid
        theta_l_grid = derived_l if theta_l_grid is None else theta_l_grid

    baseline = run_baseline(normals, table, n_games=n_games, seed=seed,
                            workers=workers)
    lineup = Lineup(tuple(build_triple(v, params, d_alpha, d_woba) for v in normals))
    cells = []
    for theta_o, theta_l in sorted(product(set(theta_o_grid), set(theta_l_grid))):
        if theta_l < theta_o:
            cells.append(((d_alpha, d_woba, theta_o, theta_l), lineup,
                          threshold_policy(theta_o, theta_l, re_table)))
        else:
            log.warning("skipping threshold cell theta_o=%s theta_l=%s: "
                        "theta_l must be < theta_o", theta_o, theta_l)
    return _run_grid("threshold", baseline, cells, table, n_games=n_games,
                     seed=seed, workers=workers)


def write_sweep_csv(rows, path) -> None:
    write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))


def total_variation(hist_a, hist_b) -> float:
    """TV distance between two run histograms (each normalized first)."""
    n = max(len(hist_a), len(hist_b))
    a = np.zeros(n)
    b = np.zeros(n)
    a[:len(hist_a)] = hist_a
    b[:len(hist_b)] = hist_b
    if a.sum() == 0 or b.sum() == 0:
        raise ValueError("histograms must be nonempty")
    return 0.5 * float(np.abs(a / a.sum() - b / b.sum()).sum())
