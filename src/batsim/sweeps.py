"""Experiment sweeps over strategy parameters and activation thresholds.

Every sweep re-simulates its own baseline (normal-only lineup) under the
same seed, so row deltas are common-random-number comparisons: game i sees
identical uniforms in every row, and the baseline row is identical across
sweep modes given the same lineup, table, and seed.  The baseline runs
first; the grid cells then run together in one monte_carlo_cells call.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass, fields
from itertools import product

import numpy as np

from .abilities import AbilityVector
from .fileio import atomic_write
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


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def _stats_row(mode: str, stats: RunStats, baseline_mean: float | None,
               *, d_alpha=None, d_woba=None, theta_o=None, theta_l=None,
               infeasible=0) -> SweepRow:
    delta = 0.0 if baseline_mean is None else stats.mean - baseline_mean
    return SweepRow(
        mode=mode, d_alpha=d_alpha, d_woba=d_woba,
        theta_o=theta_o, theta_l=theta_l,
        mean_runs=stats.mean, stderr=stats.stderr,
        delta_vs_baseline=delta, n_games=stats.n_games,
        truncated=stats.truncated_games, fallbacks=stats.fallback_transitions,
        infeasible_triples=infeasible,
    )


def run_baseline(normals, table: TransitionTable, *, n_games: int, seed: int,
                 workers: int = 1) -> SweepRow:
    lineup = Lineup.from_vectors(normals)
    stats = monte_carlo(lineup, always_normal, table, n_games, seed, workers=workers)
    return _stats_row("baseline", stats, None)


def run_strategy_grid(normals, params, table: TransitionTable, *,
                      d_alpha_grid, d_woba_grid, n_games: int, seed: int,
                      workers: int = 1) -> list[SweepRow]:
    """Fixed-condition policy over every (d_alpha, d_woba) cell.

    The baseline row comes first; grid rows follow in parameter-tuple order
    regardless of evaluation order.
    """
    baseline = run_baseline(normals, table, n_games=n_games, seed=seed,
                            workers=workers)
    grid = sorted(product(set(d_alpha_grid), set(d_woba_grid)))
    lineups = [Lineup(tuple(build_triple(v, params, d_alpha, d_woba)
                            for v in normals)) for d_alpha, d_woba in grid]
    stats = monte_carlo_cells([(lineup, fixed_policy, table) for lineup in lineups],
                              n_games, seed, workers=workers)
    return [baseline] + [
        _stats_row("strategy", cell, baseline.mean_runs,
                   d_alpha=d_alpha, d_woba=d_woba,
                   infeasible=sum(not t.ordering_ok for t in lineup.slots))
        for (d_alpha, d_woba), lineup, cell in zip(grid, lineups, stats)]


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
    triples = [build_triple(v, params, d_alpha, d_woba) for v in normals]
    infeasible = sum(1 for t in triples if not t.ordering_ok)
    lineup = Lineup(tuple(triples))

    grid = []
    for theta_o, theta_l in sorted(product(set(theta_o_grid), set(theta_l_grid))):
        if theta_l < theta_o:
            grid.append((theta_o, theta_l))
        else:
            log.warning("skipping threshold cell theta_o=%s theta_l=%s: "
                        "theta_l must be < theta_o", theta_o, theta_l)
    stats = monte_carlo_cells(
        [(lineup, threshold_policy(theta_o, theta_l, re_table), table)
         for theta_o, theta_l in grid],
        n_games, seed, workers=workers)
    return [baseline] + [
        _stats_row("threshold", cell, baseline.mean_runs,
                   d_alpha=d_alpha, d_woba=d_woba,
                   theta_o=theta_o, theta_l=theta_l, infeasible=infeasible)
        for (theta_o, theta_l), cell in zip(grid, stats)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(rows, path) -> None:
    with atomic_write(path, newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(_cell(v) for v in astuple(r)) + "\n")


# the parser of a sweep CSV cell, by the annotation of its SweepRow field
_PARSERS = {"str": str, "int": int, "float": float,
            "float | None": lambda s: None if s == "" else float(s)}


def read_sweep_csv(path) -> list[SweepRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header in {path}")
    parsers = [_PARSERS[f.type] for f in fields(SweepRow)]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(parsers):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells, but the"
                             f" header has {len(parsers)}")
        rows.append(SweepRow(*(parse(c) for parse, c in zip(parsers, cells))))
    return rows


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
