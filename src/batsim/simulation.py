"""Lineups, aggregate run statistics, and monte_carlo, the entry point that
simulates games on the batched engine in mcengine.

A Lineup is nine strategy triples in batting order.  monte_carlo runs it
under a policy (a 24-tuple of StrategyChoice indexed by GameState.index) on
a transition table, in seed-determined batches, and returns their RunStats:
the runs histogram with its mean and standard error, and the truncation,
fallback and plate-appearance counts.  monte_carlo_cells does the same for
many (lineup, policy, table) cells in one engine call.

A hard cap bounds plate appearances per half-inning so degenerate batter
profiles (nothing but home runs) cannot loop forever.  The engine draws each
half-inning whole from its exact distribution, in which a half-inning still
live after the cap ends there, capped; a game with a capped half-inning is
counted as truncated.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

from .fileio import atomic_write
from .strategies import StrategyTriple
from .transitions import TransitionTable
from . import mcengine

PA_CAP_PER_HALF_INNING = 100
DEFAULT_INNINGS = 9
# a run is scored by a batter who came to the plate in its half-inning, so
# no game scores more runs than it has plate appearances
MAX_GAME_RUNS = DEFAULT_INNINGS * PA_CAP_PER_HALF_INNING


@dataclass(frozen=True)
class Lineup:
    """Nine batting slots, each a strategy triple, in batting order."""

    slots: tuple[StrategyTriple, ...]

    def __post_init__(self):
        if len(self.slots) != 9:
            raise ValueError(f"a lineup has 9 slots, got {len(self.slots)}")
        for i, triple in enumerate(self.slots):
            if not isinstance(triple, StrategyTriple):
                raise TypeError(f"slot {i} is not a StrategyTriple")

    @classmethod
    def from_vectors(cls, vectors) -> "Lineup":
        """A lineup that ignores strategy calls (each slot's three profiles
        are the same measured vector)."""
        return cls(slots=tuple(StrategyTriple.constant(v) for v in vectors))


@dataclass(frozen=True)
class RunStats:
    """Aggregate scoring distribution over simulated games.

    n_games, mean, stderr and stderr_defined are derived from the histogram
    when the value is made, so they cannot disagree with it and reruns with
    the same histogram report byte-identical statistics.
    """

    histogram: tuple[int, ...]
    truncated_games: int = 0
    fallback_transitions: int = 0
    plate_appearances: int = 0
    n_games: int = field(init=False)
    mean: float = field(init=False)
    stderr: float = field(init=False)
    stderr_defined: bool = field(init=False)

    def __post_init__(self):
        hist = tuple(int(c) for c in self.histogram)
        if any(c < 0 for c in hist):
            raise ValueError("histogram counts must be non-negative")
        n = sum(hist)
        if n == 0:
            raise ValueError("empty histogram")
        total = sum(r * c for r, c in enumerate(hist))
        total_sq = sum(r * r * c for r, c in enumerate(hist))
        mean = total / n
        if n >= 2:
            var = (total_sq - n * mean * mean) / (n - 1)
            stderr = math.sqrt(max(var, 0.0) / n)
        else:
            stderr = 0.0  # undefined for a single game
        for name, value in (("histogram", hist), ("n_games", n), ("mean", mean),
                            ("stderr", stderr), ("stderr_defined", n >= 2)):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {
            "n_games": self.n_games,
            "mean": self.mean,
            "stderr": self.stderr,
            "stderr_defined": self.stderr_defined,
            "histogram": list(self.histogram),
            "truncated_games": self.truncated_games,
            "fallback_transitions": self.fallback_transitions,
            "plate_appearances": self.plate_appearances,
        }

    def save(self, json_path, csv_path=None) -> None:
        # nested: if either path cannot be written, neither file is replaced
        with atomic_write(json_path) as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")
            if csv_path is not None:
                with atomic_write(csv_path, newline="") as cf:
                    writer = csv.writer(cf)
                    writer.writerow(("runs", "count"))
                    for r, c in enumerate(self.histogram):
                        writer.writerow((r, c))


def load_histogram_csv(path) -> tuple[int, ...]:
    """Read a runs,count reference histogram: two cells a row, each runs
    value (at most MAX_GAME_RUNS) on one row, blank lines skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("runs", "count"):
            raise ValueError(f"{path}: expected header runs,count")
        counts: dict[int, int] = {}
        lines: dict[int, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: {len(row)} cells, but the"
                                 f" header has 2")
            try:
                runs, count = int(row[0]), int(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from exc
            if runs < 0 or count < 0:
                raise ValueError(f"{path}:{lineno}: negative runs or count")
            if runs > MAX_GAME_RUNS:
                raise ValueError(f"{path}:{lineno}: runs {runs} is more than"
                                 f" a game can score ({MAX_GAME_RUNS})")
            if runs in counts:
                raise ValueError(f"{path}:{lineno}: runs {runs} again, first"
                                 f" given on line {lines[runs]}")
            counts[runs], lines[runs] = count, lineno
    if not counts:
        raise ValueError(f"{path}: no rows")
    hist = [0] * (max(counts) + 1)
    for r, c in counts.items():
        hist[r] = c
    return tuple(hist)


def monte_carlo(lineup: Lineup, policy, table: TransitionTable, n_games: int,
                seed: int, *, workers: int = 1, innings: int = DEFAULT_INNINGS,
                pa_cap: int = PA_CAP_PER_HALF_INNING) -> RunStats:
    """Simulate n_games and aggregate their scoring distribution.

    Results are a pure function of (lineup, policy, table, n_games, seed):
    games are partitioned into fixed-size batches, each batch draws from its
    own child stream seeded by (seed, batch index), and batch histograms are
    merged by integer addition.  Worker count affects wall time only.
    """
    return RunStats(*mcengine.run_batches(
        (lineup, policy, table), innings=innings, pa_cap=pa_cap,
        n_games=n_games, seed=seed, workers=workers))


def monte_carlo_cells(cells, n_games: int, seed: int, *, workers: int = 1,
                      innings: int = DEFAULT_INNINGS,
                      pa_cap: int = PA_CAP_PER_HALF_INNING) -> list[RunStats]:
    """monte_carlo for each (lineup, policy, table) cell, in one engine call.

    Every cell's RunStats equals monte_carlo's for that cell alone with the
    same n_games and seed: the cells share each batch's draws, so their
    deltas are common-random-number comparisons.
    """
    return [RunStats(*result) for result in mcengine.run_cells(
        cells, innings=innings, pa_cap=pa_cap, n_games=n_games, seed=seed,
        workers=workers)]
