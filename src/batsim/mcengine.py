"""Vectorized Monte Carlo engine with worker-count-independent results.

The determinism contract: games are split into fixed-size batches
(BATCH_SIZE, never a function of worker count), batch i draws from a
dedicated generator seeded with (seed, i), and every step of a batch draws
one uniform for each of its games whether or not they have finished.  The
iteration count of a batch therefore depends only on its own games, batch
histograms are integers, and their sum is order-independent, so any degree
of parallelism produces byte-identical aggregates.

Each plate appearance is one draw: compile_simulation folds the lineup, the
policy (a 24-tuple of StrategyChoice, one per live state, used as it is) and
the transition table into one cumulative row per (slot, state) over the
merged (post state, runs, fallback) outcomes of that plate appearance, so a
single uniform picks both the batter's outcome and the base-out transition.
A plate-appearance cap per half-inning guards against never-ending innings.
The reference for these semantics is exact: the tests compute each game's
run distribution from the same chain by pushing probability mass through it,
and check the engine's histograms against it.

Parallel calls share one process pool per process.  The first call that
needs more than one process starts it; every later call of the same size
sends its batches to the same workers, so a sweep pays the pool's start
once rather than once per cell.  Each task carries the compiled table and
its (seed, batch index, size), so a worker keeps no state between tasks.
A call sends its batches in one chunk per process, and pickling sends the
table once per chunk, not once per batch.
A call that needs another number of processes shuts the pool down and
starts one of the new size; a call that raises (a worker that died, an
interrupt) shuts it down before the exception propagates, and the next
call starts afresh.  shutdown_pool stops it on demand; otherwise it lives
until the interpreter exits.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .transitions import INNING_OVER, NUM_LIVE_STATES, TransitionTable

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
    if len(policy) != NUM_LIVE_STATES:
        raise ValueError(f"a policy has {NUM_LIVE_STATES} choices, got {len(policy)}")
    # P(outcome | slot, state), shape (9, 24, 8)
    outcome_p = np.array([[triple.vector(choice).as_tuple() for choice in policy]
                          for triple in lineup.slots])

    # every (state, outcome) transition entry, flattened
    key, post, runs, prob, fell_back = table.flat()
    n_runs = int(runs.max()) + 1
    code = (post * n_runs + runs) * 2 + fell_back

    # joint mass per (row, code): sum over outcomes of P(o) * P(post, runs | o)
    state = key // 8
    entry_row = np.arange(9)[:, None] * NUM_LIVE_STATES + state  # (9, entries)
    mass = np.zeros((NUM_ROWS, (INNING_OVER + 1) * n_runs * 2))
    np.add.at(mass, (entry_row, code), outcome_p[:, state, key % 8] * prob)

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


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, n_games: int) -> int:
    """Processes run_batches uses for n_games at the given worker count; 1
    means it runs serially.  The shared pool starts all its workers up
    front and keeps them between calls, so it never asks for more than
    there are batches or cores to run them on.  A call whose size differs
    from the running pool's replaces that pool."""
    return max(1, min(workers, len(_batch_sizes(n_games)), usable_cores()))


# The process's one worker pool and its size.  The first parallel call
# starts it; later calls of the same size reuse it.  The lock is held for a
# whole parallel call, so no caller replaces or stops the pool while
# another caller's batches run on it.
_pool_lock = threading.RLock()
_pool: ProcessPoolExecutor | None = None
_pool_processes = 0


def shutdown_pool() -> None:
    """Stop the shared worker pool, if one is running, and wait for its
    workers to exit.  The next parallel run_batches starts a new one."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _shared_pool(processes: int) -> ProcessPoolExecutor:
    """The shared pool, started or resized to the given number of
    processes.  The caller holds _pool_lock."""
    global _pool, _pool_processes
    if _pool_processes != processes:
        shutdown_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=processes)
        _pool_processes = processes
    return _pool


def run_batches(compiled: CompiledSim, *, n_games: int, seed: int, workers: int):
    sizes = _batch_sizes(n_games)
    processes = pool_size(workers, n_games)
    if processes == 1:
        return _merge([_simulate_batch(compiled, seed, i, size)
                       for i, size in enumerate(sizes)])

    n = len(sizes)
    with _pool_lock:
        pool = _shared_pool(processes)
        try:
            # map yields in batch order; each chunk pickles the table once
            results = list(pool.map(_simulate_batch, [compiled] * n, [seed] * n,
                                    range(n), sizes,
                                    chunksize=math.ceil(n / processes)))
        except BaseException:
            # a dead worker, an interrupt or a failing batch leaves the pool
            # in an unknown state: stop it, so the next call starts afresh
            shutdown_pool()
            raise
    return _merge(results)
