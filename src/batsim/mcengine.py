"""Vectorized Monte Carlo engine with worker-count-independent results.

The determinism contract: games are split into fixed-size batches
(BATCH_SIZE, never a function of worker count), batch i draws from a
dedicated generator seeded with (seed, i), and every step of a batch draws
one uniform for each of its games whether or not they have finished.  The
iteration count of a batch therefore depends only on its own games, batch
histograms are integers, and their sum is order-independent, so any degree
of parallelism produces byte-identical aggregates.

Several cells (lineup, policy and table triples, as in a sweep) run on the
same batches.  A step of batch i draws its one vector of uniforms
and every cell's game g uses its g-th entry, so at its k-th plate
appearance game g sees the same uniform in every cell, and each cell's
histogram and counts are exactly those of a run of that cell alone.  The
kernel steps (cell, game) pairs over a stack of at most STEP_PAIRS //
BATCH_SIZE compiled cells, so a step's arrays stay as small as a batch or
two.

Each plate appearance is one draw: compile_simulation folds the lineup, the
policy (a 24-tuple of StrategyChoice, one per live state, used as it is) and
the transition table into one cumulative row per (slot, state) over the
merged (post state, runs, fallback) outcomes of that plate appearance, so a
single uniform picks both the batter's outcome and the base-out transition.
A plate-appearance cap per half-inning guards against never-ending innings.
The reference for these semantics is exact: the tests compute each game's
run distribution from the same chain by pushing probability mass through it,
and check the engine's histograms against it.

A call splits its cells x batches units, cell by cell, into one task of
near-equal length per process: a task is a group of cells with a range of
batches (only its first and last cell can have part of theirs).  Tasks
carry what compiles their cells, not compiled tables, and compile them
where they run, two at a time, just before running them.  A call that runs
on one process runs its one task in place.

Parallel calls share one process pool per process, of min(workers, usable
cores) processes.  The first call with more than one task starts it;
every later call at the same worker count sends its tasks to the same
workers, whatever its number of units, so a program pays the pool's start
once rather than once per call.  A worker keeps no state between tasks.
A call at another worker count shuts the pool down and starts one of its
own size; a call that raises (a worker that died, an interrupt) shuts it
down before the exception propagates, and the next call starts afresh.
shutdown_pool stops it on demand; otherwise it lives until the
interpreter exits.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .transitions import INNING_OVER, NUM_LIVE_STATES, TransitionTable

BATCH_SIZE = 4096
# (cell, game) pairs one kernel step may hold: two cells of a full batch.
# Fusing seven cells per step raised a sweep's peak RSS by 17% in a prototype.
STEP_PAIRS = 2 * BATCH_SIZE
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
    A stack of cells is a CompiledSim too: cell k's rows follow at
    k * NUM_ROWS, and its next_row points into them.
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


def _stack(cells: list[CompiledSim]) -> CompiledSim:
    """The cells as one table: cell k's rows at k * NUM_ROWS, every row
    padded to the widest cell with cum 1.0, which no draw passes.  The
    cells share innings and pa_cap."""
    if len(cells) == 1:
        return cells[0]
    width = max(c.cum.shape[1] for c in cells)

    def stacked(field, fill):
        return np.concatenate([
            np.pad(getattr(c, field), ((0, 0), (0, width - c.cum.shape[1])),
                   constant_values=fill) for c in cells])

    rows = np.arange(len(cells) * NUM_ROWS)[:, None]
    column = np.concatenate([c.guide % c.cum.shape[1] for c in cells])
    return CompiledSim(cum=stacked("cum", 1.0),
                       next_row=stacked("next_row", 0) + rows // NUM_ROWS * NUM_ROWS,
                       over=stacked("over", False), runs=stacked("runs", 0),
                       fallback=stacked("fallback", False),
                       guide=rows * width + column,
                       innings=cells[0].innings, pa_cap=cells[0].pa_cap)


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


def _simulate_cells(c: CompiledSim, cells: int, seed: int, batch_index: int,
                    n: int):
    """Run batch batch_index, n games, in each of the cells stacked in c;
    returns each cell's (histogram, truncated, fallbacks, pa)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, batch_index)))
    next_row, over_at, runs_at, fallback_at = (
        a.ravel() for a in (c.next_row, c.over, c.runs, c.fallback))
    u = np.empty(n)
    final_runs = np.zeros(cells * n, dtype=np.int64)
    final_pa = np.zeros(cells * n, dtype=np.int64)
    truncated = np.zeros(cells * n, dtype=bool)
    fallbacks = np.zeros(cells, dtype=np.int64)
    step = 0

    # per-pair state, compacted to the live pairs; pair p is game p % n of
    # cell p // n, and live indexes the pairs
    live = np.arange(cells * n)
    row = live // n * NUM_ROWS
    runs = np.zeros(cells * n, dtype=np.int64)
    inning = np.zeros(cells * n, dtype=np.int64)
    pa_inning = np.zeros(cells * n, dtype=np.int64)

    while live.size:
        rng.random(out=u)
        step += 1
        entry = _draw(c, row, np.take(u, live, mode="wrap"))
        row = next_row[entry]
        runs += runs_at[entry]
        over = over_at[entry]
        fell = fallback_at[entry]
        if fell.any():
            fallbacks += np.bincount(live[fell] // n, minlength=cells)
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
            final_pa[live[done]] = step  # one plate appearance per live step
            keep = ~done
            live, row, runs, inning, pa_inning = (
                a[keep] for a in (live, row, runs, inning, pa_inning))

    final_runs, final_pa, truncated = (
        a.reshape(cells, n) for a in (final_runs, final_pa, truncated))
    return [(np.bincount(final_runs[k]), int(np.count_nonzero(truncated[k])),
             int(fallbacks[k]), int(final_pa[k].sum())) for k in range(cells)]


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


def _run_task(cells, n_games: int, seed: int, first: int, stop: int):
    """Run the units first..stop-1 of the cells' (cell, batch) units, taken
    cell by cell; returns the merged result of each cell that has units,
    in order.  A cell is a CompiledSim or a callable that compiles one.
    Cells with the same batch range run fused, STEP_PAIRS // BATCH_SIZE at
    a time, each group compiled just before it runs."""
    sizes = _batch_sizes(n_games)
    b = len(sizes)
    ranges = [(k, max(first - k * b, 0), min(stop - k * b, b))
              for k in range(first // b, -(-stop // b))]
    groups = []
    for k, lo, hi in ranges:
        if (groups and groups[-1][1:] == (lo, hi)
                and len(groups[-1][0]) < STEP_PAIRS // BATCH_SIZE):
            groups[-1][0].append(k)
        else:
            groups.append(([k], lo, hi))

    results = []
    for members, lo, hi in groups:
        stack = _stack([cells[k] if isinstance(cells[k], CompiledSim)
                        else cells[k]() for k in members])
        per_batch = [_simulate_cells(stack, len(members), seed, i, sizes[i])
                     for i in range(lo, hi)]
        results.extend(_merge([batch[j] for batch in per_batch])
                       for j in range(len(members)))
    return results


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int) -> int:
    """Processes of the shared pool at the given worker count: no more
    than the cores they can run on.  A call splits its (cell, batch) units
    into min(pool_size(workers), units) tasks and runs in place when that
    is one."""
    return max(1, min(workers, usable_cores()))


# The process's one worker pool and its size.  The first parallel call
# starts it; later calls at the same pool size reuse it.  The lock is held
# for a whole parallel call, so no caller replaces or stops the pool while
# another caller's tasks run on it.
_pool_lock = threading.RLock()
_pool: ProcessPoolExecutor | None = None
_pool_processes = 0


def shutdown_pool() -> None:
    """Stop the shared worker pool, if one is running, and wait for its
    workers to exit.  The next parallel call starts a new one."""
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


def _run(cells, *, n_games: int, seed: int, workers: int):
    """Each cell's merged (histogram, truncated, fallbacks, pa), from at
    most one task per pool process."""
    b = len(_batch_sizes(n_games))
    units = len(cells) * b
    processes = pool_size(workers)
    n_tasks = min(processes, units)
    if n_tasks <= 1:
        return _run_task(cells, n_games, seed, 0, units)

    bounds = [-(-units * t // n_tasks) for t in range(n_tasks + 1)]
    tasks = [(cells[lo // b:-(-hi // b)], n_games, seed, lo % b, hi - lo // b * b)
             for lo, hi in zip(bounds, bounds[1:])]
    with _pool_lock:
        pool = _shared_pool(processes)
        try:
            results = list(pool.map(_run_task, *zip(*tasks)))
        except BaseException:
            # a dead worker, an interrupt or a failing task leaves the pool
            # in an unknown state: stop it, so the next call starts afresh
            shutdown_pool()
            raise
    # a cell cut between two tasks has a result from each
    per_cell = [[] for _ in cells]
    for lo, task_results in zip(bounds, results):
        for k, result in enumerate(task_results, start=lo // b):
            per_cell[k].append(result)
    return [_merge(parts) for parts in per_cell]


def run_batches(compiled: CompiledSim, *, n_games: int, seed: int, workers: int):
    """One compiled cell's (histogram, truncated, fallbacks, pa) over
    n_games games."""
    return _run([compiled], n_games=n_games, seed=seed, workers=workers)[0]


def run_cells(cells, *, innings: int, pa_cap: int, n_games: int, seed: int,
              workers: int):
    """Each (lineup, policy, table) cell's (histogram, truncated,
    fallbacks, pa) over n_games games, equal to run_batches on that cell
    alone.  The cells are compiled where their tasks run."""
    return _run([partial(compile_simulation, *cell, innings=innings,
                         pa_cap=pa_cap) for cell in cells],
                n_games=n_games, seed=seed, workers=workers)
