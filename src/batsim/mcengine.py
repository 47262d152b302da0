"""Vectorized Monte Carlo engine with worker-count-independent results.

The determinism contract: games are split into fixed-size batches
(BATCH_SIZE, never a function of worker count), batch i draws from a
dedicated generator seeded with (seed, i), and a step plays one batch,
drawing one uniform for each of its games.  A game plays one half-inning a
step, and every game plays exactly innings steps, so the k-th draw at its
position feeds its k-th half-inning.  A batch's histogram therefore depends
only on its own games, batch histograms are integers, and their sum is
order-independent, so any degree of parallelism produces byte-identical
aggregates.

Several cells (lineup, policy and table triples, as in a sweep) run on the
same batches.  Each cell runs alone, in its own step loop, and batch i of
every cell draws from the generator seeded with (seed, i), so game g's k-th
half-inning sees the same uniform in every cell: the per-batch generators
give the cells their common random numbers.

Every half-inning starts with the bases empty and no outs, so its whole
outcome depends only on the slot that leads it off.  compile_simulation
folds the lineup, the policy (a 24-tuple of StrategyChoice, one per live
state, used as it is) and the transition table into one cumulative row per
leadoff slot over the exact distribution of the half-inning's (runs, plate
appearances, fallbacks, capped) outcomes, so a single uniform plays a whole
half-inning and names the slot that leads off the next.  The rows are
ordered by runs first, so a shared draw picks a like half-inning in every
cell and sweep deltas keep their common random numbers.  A plate-appearance
cap per half-inning guards against never-ending innings: a half-inning
still live after pa_cap plate appearances ends there, capped.
compile_simulation reads the table only through TransitionTable.flat, whose
entries all balance.  A game's counts are packed in one int64 as four
15-bit fields (unpack), so compile_simulation rejects an innings x pa_cap
whose counts would overflow them.  The reference for these semantics is
exact: the tests compute each game's run distribution from the same chain
by pushing probability mass through it, without compile_simulation, and
check both the rows and the engine's histograms against it.

Every call, of one cell or many, compiles each of its (lineup, policy,
table) cells once, in the caller, before any batch is played, so a cell
that fails to compile raises there.  Its units are its (compiled cell,
batch) pairs, cell by cell.  A call that runs on one process plays them in
place; any other deals them to the pool's processes in chunks of
ceil(units / processes) units, the last possibly shorter.  Units carry
compiled rows, never tables or lineups.  A process keeps the step tables
of the last cell it played, so it builds them once for a run of that
cell's units.  The caller merges each cell's batch results in batch order.

Parallel calls share one process pool per process, of min(workers, usable
cores) processes.  The first call with more than one unit on more than one
process starts it; every later call at the same worker count deals its
units to the same workers, whatever their number, so a program pays the
pool's start once rather than once per call.  A call at another worker
count shuts the pool down and starts one of its own size; a call that
raises (a worker that died, an interrupt) shuts it down before the
exception propagates, and the next call starts afresh.  shutdown_pool
stops it on demand, and at the latest when the interpreter exits.  The
pool module is imported by the call that starts a pool, so a program that
runs in place never loads it.
"""

from __future__ import annotations

import atexit
import functools
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .transitions import INNING_OVER, NUM_LIVE_STATES, TransitionTable, outs_and_runners

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

BATCH_SIZE = 4096
# a game's packed count: runs in the low 15 bits, then plate appearances,
# fallbacks and capped half-innings, each field 15 bits wide.  A
# half-inning scores at most one run per plate appearance, since every
# transition balances, so innings * pa_cap bounds the first three fields
# (and innings the last): 9 x 3640 is the most at 9 innings
FIELD_BITS = 15
FIELD_MAX = (1 << FIELD_BITS) - 1
# guide cells per row; a power of two, so u * GUIDE_SIZE is exact.  A row
# holds about 220 outcomes, and with 4096 cells 1% of the guide leaves its
# draws to search on (23% at 64)
GUIDE_SIZE = 4096
# live half-innings whose mass totals below this are dropped: far below
# the 2^-53 steps of a draw, so no draw could pick what they lead to
NEGLIGIBLE = 2.0 ** -70


# eq=False: a cell hashes by identity, which is what _steps caches on
@dataclass(frozen=True, eq=False)
class CompiledSim:
    """Lineup, policy, and table fused into one table over leadoff slots.

    Row l lists the distinct (runs, plate appearances, fallbacks, capped)
    outcomes of a half-inning that slot l leads off, ordered by runs, then
    plate appearances, fallbacks and capped, left-justified.  cum holds
    their cumulative mass; the last real entry is exactly 1.0 and padding
    columns are 1.0 too, so a unit draw selects a positive-mass entry.
    count packs each outcome in a game's count fields (unpack reads them),
    so a game's count is the sum of its half-innings' entries; padding
    counts are 0.  A half-inning of pa plate appearances hands the next to
    slot (l + pa) % 9.
    """

    cum: np.ndarray    # (9, W) cumulative mass
    count: np.ndarray  # (9, W) packed runs, plate appearances, fallbacks, capped
    innings: int


def unpack(count):
    """The runs, plate appearances, fallbacks and capped fields of packed
    counts."""
    return (count & FIELD_MAX, count >> FIELD_BITS & FIELD_MAX,
            count >> 2 * FIELD_BITS & FIELD_MAX, count >> 3 * FIELD_BITS)


def compile_simulation(lineup, policy, table: TransitionTable, *,
                       innings: int, pa_cap: int) -> CompiledSim:
    if innings <= 0 or pa_cap <= 0:
        raise ValueError("innings and pa_cap must be positive")
    if len(policy) != NUM_LIVE_STATES:
        raise ValueError(f"a policy has {NUM_LIVE_STATES} choices, got {len(policy)}")
    if innings * pa_cap > FIELD_MAX:
        raise ValueError(f"innings x pa_cap = {innings} x {pa_cap} is too large:"
                         f" a game's counts would not fit in 63 bits")
    # P(outcome | slot, state), shape (9, 24, 8): the slots' (normal,
    # on_base, long_hit) profiles, (9, 3, 8), at the policy's choices, whose
    # values index that order
    profiles = np.array([[v.as_tuple() for v in (t.normal, t.on_base, t.long_hit)]
                         for t in lineup.slots])
    outcome_p = profiles[:, [choice.value for choice in policy]]

    # Every plate appearance puts its batter on base, across the plate or
    # out, so a half-inning of pa plate appearances that stops with `left`
    # outs and runners on base scored pa - left runs.  Every table entry
    # balances, so a transition scores 1 + left before - left after, where
    # an entry that ends the half-inning leaves 3 outs
    state = np.arange(NUM_LIVE_STATES)
    left = outs_and_runners(state // 8, state % 8)

    key, post, runs, prob, fell_back = table.flat()
    before = key // 8
    # one plate appearance per (batter's slot, state before): its mass
    # without a fallback, then with one, each over the states after, where
    # states 24..27 end the half-inning with 0..3 runners left on base
    width = NUM_LIVE_STATES + 4
    after = np.where(post < INNING_OVER, post,
                     NUM_LIVE_STATES + left[before] - 2 - runs)
    at = (before * 2 + fell_back) * width + after
    at = np.arange(9)[:, None] * (NUM_LIVE_STATES * 2 * width) + at
    one_pa = np.bincount(at.ravel(), (outcome_p[:, before, key % 8] * prob).ravel(),
                         minlength=9 * NUM_LIVE_STATES * 2 * width)
    one_pa = one_pa.reshape(9, NUM_LIVE_STATES, 2 * width)

    # live[l, f, state]: mass of the half-innings led off by slot l still
    # live in state, with f0 + f fallbacks so far; a fallback count whose
    # live mass totals below NEGLIGIBLE is dropped.  At its pa-th plate
    # appearance slot (l + pa - 1) % 9 bats: a rotation of the slots' rows,
    # a view into them laid out twice.  A block (pa, f0, top, capped,
    # mass[l, f, k]) holds the half-innings that stop after pa plate
    # appearances with f0 + f fallbacks, scoring top - k runs
    one_pa = np.concatenate([one_pa, one_pa])
    live = np.zeros((9, 1, NUM_LIVE_STATES))
    live[:, 0, 0] = 1.0
    f0 = 0
    blocks = []
    for pa in range(1, pa_cap + 1):
        nf = live.shape[1]
        step = np.zeros((9, nf + 1, 2 * width))
        np.matmul(live, one_pa[(pa - 1) % 9:][:9], out=step[:, :nf])
        step[:, 1:, :width] += step[:, :nf, width:]  # a fallback moves f on
        # ended with k runners left on base
        blocks.append((pa, f0, pa - 3, False, step[:, :, NUM_LIVE_STATES:width]))
        live = step[:, :, :NUM_LIVE_STATES]
        carry = np.flatnonzero(live.sum(axis=(0, 2)) >= NEGLIGIBLE)
        if not carry.size:
            break
        f0 += carry[0]
        live = live[:, carry[0]:carry[-1] + 1]
    if carry.size:
        # still live after pa_cap plate appearances: capped where it
        # stands, with k outs and runners on base
        stops = np.zeros((NUM_LIVE_STATES, left.max() + 1))
        stops[state, left] = 1.0
        blocks.append((pa_cap, f0, pa_cap, True, live @ stops))

    # every block's mass in one zero-padded (block, l, f, k) grid, whose
    # nonzero entries are the half-innings a draw can pick
    *keys, masses = zip(*blocks)
    pa, f0, top, capped = map(np.array, keys)
    grid = np.zeros((len(blocks), 9, max(m.shape[1] for m in masses),
                     left.max() + 1))
    for at, m in zip(grid, masses):
        at[:, :m.shape[1], :m.shape[2]] = m
    b, lead, f, k = np.nonzero(grid)
    mass = grid[b, lead, f, k]
    pa, fallbacks, runs, capped = pa[b], f0[b] + f, top[b] - k, capped[b]
    order = np.lexsort((capped, fallbacks, pa, runs, lead))
    n = np.bincount(lead, minlength=9)
    row = lead[order]
    col = np.arange(row.size) - (np.cumsum(n) - n)[row]
    w = n.max()

    def table_of(values, dtype):
        out = np.zeros((9, w), dtype=dtype)
        out[row, col] = values[order]
        return out

    cum = np.minimum(np.cumsum(table_of(mass, float), axis=1), 1.0)
    cum[np.arange(w) >= n[:, None] - 1] = 1.0  # padding, and float crumbs
    count = (runs + (pa << FIELD_BITS) + (fallbacks << 2 * FIELD_BITS)
             + (capped.astype(np.int64) << 3 * FIELD_BITS))
    return CompiledSim(cum=cum, count=table_of(count, np.int64), innings=innings)


@functools.lru_cache(maxsize=1)
def _steps(cell: CompiledSim):
    """The cell's (cum, guide, next) step tables, every table flat and row l
    addressed by its guide offset, l * GUIDE_SIZE: cum is scaled by
    GUIDE_SIZE, so a scaled draw indexes the guide, the guide gives the
    entry of a scaled draw in [k, k + 1), or ~search start, and next gives
    the guide offset of the row of the slot that leads off the next
    half-inning.  Only the last cell's are kept, so a process holds one
    cell's tables at a time and builds them once for a run of its units."""
    cum = cell.cum * GUIDE_SIZE
    row = np.arange(9)[:, None]
    _, pa, _, _ = unpack(cell.count)
    # the draws of guide cell k, in [k, k + 1), start at the first entry e
    # whose cum exceeds k: e counts the earlier rows' entries and those of
    # its own whose cum rounds up to at most k.  Where cum[e] may not
    # exceed them all, the guide holds ~e, and the draws search on from e
    up = np.ceil(cum).astype(np.int64)
    up += row * (GUIDE_SIZE + 1)
    guide = np.cumsum(np.bincount(up.ravel(), minlength=9 * (GUIDE_SIZE + 1)))
    guide = guide.reshape(9, -1)[:, :GUIDE_SIZE]
    np.invert(guide, out=guide,
              where=cum.ravel()[guide] < np.arange(1, GUIDE_SIZE + 1))
    return cum.ravel(), guide.ravel(), ((row + pa) % 9 * GUIDE_SIZE).ravel()


def _draw(cell: CompiledSim, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Flat entry of the cell drawn by each scaled draw x = GUIDE_SIZE * u,
    u in [0, 1), from the row at guide offset row: the first entry whose
    scaled cum exceeds x.  The guide gives that entry for most draws, and
    for the rest ~start, a start at or before it, from which they step
    forward; the row's last real entry is 1.0, so no search leaves its row."""
    cum, guide, _ = _steps(cell)
    start = x.astype(np.int64)
    start += row
    entry = guide.take(start)
    behind = np.flatnonzero(entry < 0)
    if behind.size:
        at, x = ~entry[behind], x[behind]
        short = cum.take(at) <= x
        while short.any():
            at += short
            short = cum.take(at) <= x
        entry[behind] = at
    return entry


def _simulate(cell: CompiledSim, seed: int, batch: int, n_games: int):
    """Play batch `batch`, of n_games games, of the cell on the batch's own
    (seed, batch) generator; returns its (histogram, truncated, fallbacks,
    pa).  Every game leads off its first half-inning with slot 0."""
    _, _, next_row = _steps(cell)
    rng = np.random.default_rng(np.random.SeedSequence((seed, batch)))
    u = np.empty(n_games)
    row = np.zeros(n_games, dtype=np.int64)
    count = np.zeros(n_games, dtype=np.int64)
    for _ in range(cell.innings):
        rng.random(out=u)
        u *= GUIDE_SIZE
        entry = _draw(cell, row, u)
        count += cell.count.take(entry)
        row = next_row.take(entry)

    runs, pa, fallbacks, capped = unpack(count)
    return (np.bincount(runs), int(np.count_nonzero(capped)),
            int(fallbacks.sum()), int(pa.sum()))


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


def pool_size(workers: int) -> int:
    """Processes of the shared pool at the given worker count: no more
    than the cores they can run on.  A call deals its (cell, batch) units
    to min(pool_size(workers), units) processes and runs in place when that
    is one."""
    return max(1, min(workers, usable_cores()))


# The process's one worker pool and its size.  The first parallel call
# starts it; later calls at the same pool size reuse it.  The lock is held
# for a whole parallel call, so no caller replaces or stops the pool while
# another caller's units run on it.
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


# stopped while the pool module is still whole: it is imported after this
# one, so the interpreter's teardown would clear it first
atexit.register(shutdown_pool)


def _shared_pool(processes: int) -> ProcessPoolExecutor:
    """The shared pool, started or resized to the given number of
    processes.  The caller holds _pool_lock.  The pool module is imported
    here, so a program that runs in place never loads it."""
    from concurrent.futures import ProcessPoolExecutor

    global _pool, _pool_processes
    if _pool_processes != processes:
        shutdown_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=processes)
        _pool_processes = processes
    return _pool


def run_cells(cells, *, innings: int, pa_cap: int, n_games: int, seed: int,
              workers: int):
    """Each (lineup, policy, table) cell's (histogram, truncated,
    fallbacks, pa) over n_games games, equal to that of a call on that
    cell alone, whether its (cell, batch) units run in place or in chunks
    on the pool."""
    if n_games <= 0:
        raise ValueError("n_games must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    compiled = [compile_simulation(*cell, innings=innings, pa_cap=pa_cap)
                for cell in cells]
    sizes = _batch_sizes(n_games)
    units = [(cell, seed, batch, size) for cell in compiled
             for batch, size in enumerate(sizes)]
    processes = min(pool_size(workers), len(units))
    if processes <= 1:
        results = [_simulate(*unit) for unit in units]
    else:
        with _pool_lock:
            pool = _shared_pool(pool_size(workers))
            try:
                results = list(pool.map(_simulate, *zip(*units),
                                        chunksize=-(-len(units) // processes)))
            except BaseException:
                # a dead worker, an interrupt or a failing unit leaves the
                # pool in an unknown state: stop it, so the next call
                # starts afresh
                shutdown_pool()
                raise
    b = len(sizes)
    return [_merge(results[k:k + b]) for k in range(0, len(results), b)]


def run_batches(cell, *, innings: int, pa_cap: int, n_games: int, seed: int,
                workers: int):
    """One (lineup, policy, table) cell's (histogram, truncated, fallbacks,
    pa) over n_games games."""
    return run_cells([cell], innings=innings, pa_cap=pa_cap, n_games=n_games,
                     seed=seed, workers=workers)[0]
