"""Vectorized Monte Carlo engine with worker-count-independent results.

The determinism contract: games are split into fixed-size batches
(BATCH_SIZE, never a function of worker count), batch i draws from a
dedicated generator seeded with (seed, i), and every step of a batch draws
one uniform for each of its games whether or not they have finished.  The
iteration count of a batch therefore depends only on its own games, batch
histograms are integers, and their sum is order-independent, so any degree
of parallelism produces byte-identical aggregates.

Step semantics mirror the scalar engine in simulation.py, fused into one
draw per plate appearance: compile_simulation folds the lineup, the policy
and the transition table into one cumulative row per (slot, state) over the
merged (post state, runs, fallback) outcomes of that plate appearance, so a
single uniform picks both the batter's outcome and the base-out transition.
A plate-appearance cap per half-inning guards against never-ending innings.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .transitions import (
    INNING_OVER,
    NUM_LIVE_STATES,
    OUTCOMES,
    TransitionEntry,
    TransitionTable,
    live_states,
    simple_transition,
)

BATCH_SIZE = 4096
NUM_ROWS = 9 * NUM_LIVE_STATES  # row = slot * 24 + state
GUIDE_SIZE = 32  # guide cells per row; a power of two, so u * GUIDE_SIZE is exact


@dataclass(frozen=True)
class CompiledSim:
    """Lineup, policy, and table fused into one table over (slot, state).

    Row r = slot * 24 + state lists the distinct (post state, runs,
    fallback) results of that plate appearance, left-justified.  cum holds
    their cumulative mass; the last real entry is exactly 1.0 and padding
    columns are 1.0 too, so a unit draw selects a positive-mass entry.
    Entries are addressed flat, as row * W + column.  guide[row, k] is the
    first entry of the row whose cum exceeds k / GUIDE_SIZE, where the
    search for a draw in [k / GUIDE_SIZE, (k + 1) / GUIDE_SIZE) starts.
    """

    cum: np.ndarray        # (216, W) cumulative mass
    next_row: np.ndarray   # (216, W) row of the next batter: next slot * 24 + post
    over: np.ndarray       # (216, W) True where the entry ends the inning
    runs: np.ndarray       # (216, W) runs scored by the entry
    fallback: np.ndarray   # (216, W) True where the table had no row
    guide: np.ndarray      # (216, GUIDE_SIZE) flat entry where a search starts
    innings: int
    pa_cap: int


def compile_simulation(lineup, policy, table: TransitionTable, *,
                       innings: int, pa_cap: int) -> CompiledSim:
    if innings <= 0 or pa_cap <= 0:
        raise ValueError("innings and pa_cap must be positive")
    states = live_states()
    choices = [policy(s) for s in states]
    # P(outcome | slot, state), shape (9, 24, 8)
    outcome_p = np.array([[triple.vector(choice).as_tuple() for choice in choices]
                          for triple in lineup.slots])

    # every (state, outcome) transition entry, flattened
    key, post, runs, prob, fell_back = [], [], [], [], []
    for s in states:
        for o, outcome in enumerate(OUTCOMES):
            entries = table.rows.get((s.outs, s.bases, outcome))
            missing = entries is None
            if missing:
                after, scored = simple_transition(s, outcome)
                entries = (TransitionEntry(after.outs, after.bases, scored, 1.0),)
            for e in entries:
                key.append(s.index * 8 + o)
                post.append(INNING_OVER if e.outs >= 3 else e.outs * 8 + e.bases)
                runs.append(e.runs)
                prob.append(e.prob)
                fell_back.append(missing)
    key = np.array(key)
    n_runs = max(runs) + 1
    code = (np.array(post) * n_runs + np.array(runs)) * 2 + np.array(fell_back)

    # joint mass per (row, code): sum over outcomes of P(o) * P(post, runs | o)
    state = key // 8
    entry_row = np.arange(9)[:, None] * NUM_LIVE_STATES + state  # (9, entries)
    mass = np.zeros((NUM_ROWS, (INNING_OVER + 1) * n_runs * 2))
    np.add.at(mass, (entry_row, code), outcome_p[:, state, key % 8] * np.array(prob))

    # left-justify the positive-mass codes of each row
    filled = mass > 0.0
    count = filled.sum(axis=1)
    width = count.max()
    order = np.argsort(~filled, axis=1, kind="stable")[:, :width]
    cum = np.minimum(np.cumsum(np.take_along_axis(mass, order, axis=1), axis=1), 1.0)
    cum[~np.take_along_axis(filled, order, axis=1)] = 1.0
    cum[np.arange(NUM_ROWS), count - 1] = 1.0  # absorb float crumbs

    post_state = order // (2 * n_runs)
    over = post_state == INNING_OVER
    rows = np.arange(NUM_ROWS)[:, None]
    next_row = ((rows // NUM_LIVE_STATES + 1) % 9 * NUM_LIVE_STATES
                + np.where(over, 0, post_state))
    starts = np.arange(GUIDE_SIZE) / GUIDE_SIZE
    guide = rows * width + np.sum(cum[:, None, :] <= starts[:, None], axis=2)
    return CompiledSim(cum=cum, next_row=next_row, over=over,
                       runs=order // 2 % n_runs, fallback=order % 2 == 1,
                       guide=guide, innings=innings, pa_cap=pa_cap)


def _draw(c: CompiledSim, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Flat entry drawn by each uniform u in [0, 1) from its row: the first
    entry whose cum exceeds u.  The guide gives a start at or before it, and
    the few draws short of it step forward; the row's last real entry is
    1.0, so no search leaves its row."""
    cum = c.cum.ravel()
    entry = c.guide.ravel()[row * GUIDE_SIZE + (u * GUIDE_SIZE).astype(np.int64)]
    behind = np.flatnonzero(cum[entry] <= u)
    while behind.size:
        entry[behind] += 1
        behind = behind[cum[entry[behind]] <= u[behind]]
    return entry


def _simulate_batch(c: CompiledSim, seed: int, batch_index: int, n: int):
    """Run one batch of n games; returns (histogram, truncated, fallbacks, pa)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, batch_index)))
    next_row, over_at, runs_at, fallback_at = (
        a.ravel() for a in (c.next_row, c.over, c.runs, c.fallback))
    u = np.empty(n)
    final_runs = np.zeros(n, dtype=np.int64)
    truncated = np.zeros(n, dtype=bool)
    pa = fallbacks = 0

    # per-game state, compacted to the live games; live indexes the batch
    live = np.arange(n)
    row = np.zeros(n, dtype=np.int64)
    runs = np.zeros(n, dtype=np.int64)
    inning = np.zeros(n, dtype=np.int64)
    pa_inning = np.zeros(n, dtype=np.int64)

    while live.size:
        rng.random(out=u)
        entry = _draw(c, row, u[live])
        row = next_row[entry]
        runs += runs_at[entry]
        over = over_at[entry]
        fallbacks += np.count_nonzero(fallback_at[entry])
        pa += live.size
        pa_inning += 1

        capped = ~over & (pa_inning >= c.pa_cap)
        if capped.any():
            truncated[live[capped]] = True
            row[capped] -= row[capped] % NUM_LIVE_STATES  # next slot, fresh inning
            over |= capped
        inning += over
        pa_inning[over] = 0

        done = inning >= c.innings
        if done.any():
            final_runs[live[done]] = runs[done]
            keep = ~done
            live, row, runs, inning, pa_inning = (
                a[keep] for a in (live, row, runs, inning, pa_inning))

    return np.bincount(final_runs), int(truncated.sum()), int(fallbacks), pa


def _batch_sizes(n_games: int) -> list[int]:
    full, rest = divmod(n_games, BATCH_SIZE)
    return [BATCH_SIZE] * full + ([rest] if rest else [])


_WORKER_COMPILED: CompiledSim | None = None


def _init_worker(compiled: CompiledSim) -> None:
    global _WORKER_COMPILED
    _WORKER_COMPILED = compiled


def _worker_task(args):
    seed, batch_index, size = args
    return batch_index, _simulate_batch(_WORKER_COMPILED, seed, batch_index, size)


def _merge(results):
    """Sum per-batch results in batch order.  Everything is integer counts,
    so the sum is exact and independent of completion order anyway."""
    width = max(len(hist) for hist, _, _, _ in results)
    total = np.zeros(width, dtype=np.int64)
    truncated = fallbacks = pa = 0
    for hist, tr, fb, p in results:
        total[:len(hist)] += hist
        truncated += tr
        fallbacks += fb
        pa += p
    return total, truncated, fallbacks, pa


def run_batches(compiled: CompiledSim, *, n_games: int, seed: int, workers: int):
    sizes = _batch_sizes(n_games)
    if workers <= 1 or len(sizes) == 1:
        results = [_simulate_batch(compiled, seed, i, size)
                   for i, size in enumerate(sizes)]
        return _merge(results)

    tasks = [(seed, i, size) for i, size in enumerate(sizes)]
    by_index: dict[int, tuple] = {}
    # fork starts every worker up front, so never ask for more than there are batches
    with ProcessPoolExecutor(max_workers=min(workers, len(sizes)),
                             initializer=_init_worker,
                             initargs=(compiled,)) as pool:
        for batch_index, result in pool.map(_worker_task, tasks):
            by_index[batch_index] = result
    return _merge([by_index[i] for i in range(len(sizes))])
