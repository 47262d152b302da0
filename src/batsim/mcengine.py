"""Vectorized Monte Carlo engine with worker-count-independent results.

The determinism contract: games are split into fixed-size batches
(BATCH_SIZE, never a function of worker count), batch i draws from a
dedicated generator seeded with (seed, i), and a step draws one uniform for
each of a batch's games.  A game plays one half-inning a step, and every
game plays exactly innings steps, so the k-th draw at its position feeds its
k-th half-inning.  A batch's histogram therefore depends only on its own
games, batch histograms are integers, and their sum is order-independent,
so any degree of parallelism and any grouping of batches into steps produce
byte-identical aggregates.

Several cells (lineup, policy and table triples, as in a sweep) run on the
same batches.  Each cell runs alone, in its own step loop, and batch i of
every cell draws from the generator seeded with (seed, i), so game g's k-th
half-inning sees the same uniform in every cell: the per-batch generators
give the cells their common random numbers.  A step holds up to
STEP_BATCHES batches of one cell, so its arrays stay as small as two
batches.

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
entries all balance, and rejects an innings x pa_cap whose counts would not
fit their packed fields (count_shifts).  The reference for these semantics
is exact: the tests compute each game's run distribution from the same
chain by pushing probability mass through it, without compile_simulation,
and check both the rows and the engine's histograms against it.

Every call, of one cell or many, compiles each of its (lineup, policy,
table) cells once, in the caller, before any task starts, so a cell that
fails to compile raises there.  It then splits its cells x batches units,
cell by cell, into one task of near-equal length per process: a list of
(compiled cell, first batch, stop batch) spans, of which only the first and
last can hold part of a cell's batches.  Tasks carry compiled rows, never
tables or lineups; the caller merges a cut cell's results.  A call that
runs on one process runs its one task in place.

Parallel calls share one process pool per process, of min(workers, usable
cores) processes.  The first call with more than one task starts it;
every later call at the same worker count sends its tasks to the same
workers, whatever its number of units, so a program pays the pool's start
once rather than once per call.  A worker keeps no state between tasks.
A call at another worker count shuts the pool down and starts one of its
own size; a call that raises (a worker that died, an interrupt) shuts it
down before the exception propagates, and the next call starts afresh.
shutdown_pool stops it on demand, and at the latest when the interpreter
exits.  The pool module is imported by the call that starts a pool, so a
program that runs in place never loads it.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .transitions import INNING_OVER, NUM_LIVE_STATES, TransitionTable, outs_and_runners

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

BATCH_SIZE = 4096
# batches of one cell that one kernel step may hold, each drawn from its own
# (seed, batch) generator; the cells of a call share their draws through
# those generators, not through a shared step.  Wider steps cost memory:
# fusing seven cells per step raised a sweep's peak RSS by 17% in a prototype.
STEP_BATCHES = 2
# guide cells per row; a power of two, so u * GUIDE_SIZE is exact.  A row
# holds about 220 outcomes, and with 4096 cells 1% of the guide leaves its
# draws to search on (23% at 64)
GUIDE_SIZE = 4096
# live half-innings whose mass totals below this are dropped: far below
# the 2^-53 steps of a draw, so no draw could pick what they lead to
NEGLIGIBLE = 2.0 ** -70


@dataclass(frozen=True)
class CompiledSim:
    """Lineup, policy, and table fused into one table over leadoff slots.

    Row l lists the distinct (runs, plate appearances, fallbacks, capped)
    outcomes of a half-inning that slot l leads off, ordered by runs, then
    plate appearances, fallbacks and capped, left-justified.  cum holds
    their cumulative mass; the last real entry is exactly 1.0 and padding
    columns are 1.0 too, so a unit draw selects a positive-mass entry.
    count packs each outcome in a game's count fields (count_shifts; unpack
    reads them), so a game's count is the sum of its half-innings' entries;
    padding counts are 0.  A half-inning of pa plate appearances hands the
    next to slot (l + pa) % 9.
    """

    cum: np.ndarray    # (9, W) cumulative mass
    count: np.ndarray  # (9, W) packed runs, plate appearances, fallbacks, capped
    innings: int
    pa_cap: int


def count_shifts(innings: int, pa_cap: int) -> tuple[int, int, int]:
    """Bit offsets of the plate-appearance, fallback and capped fields of a
    game's packed count, above its runs.  The four fields are as wide as
    each must be to hold a game's most, innings * pa_cap runs, plate
    appearances or fallbacks (a half-inning scores at most one run per
    plate appearance, since every transition balances; the capped field,
    at most innings, fits too).  So innings * pa_cap is bounded: 9 x 3640
    is the most at 9 innings."""
    width = (innings * pa_cap).bit_length()
    if 4 * width > 63:
        raise ValueError(f"innings x pa_cap = {innings} x {pa_cap} is too large:"
                         f" a game's counts would not fit in 63 bits")
    return width, 2 * width, 3 * width


def unpack(count, innings: int, pa_cap: int):
    """The runs, plate appearances, fallbacks and capped fields of packed
    counts, as laid out by count_shifts(innings, pa_cap)."""
    pa_at, fallback_at, capped_at = count_shifts(innings, pa_cap)
    field = (1 << pa_at) - 1
    return (count & field, count >> pa_at & field, count >> fallback_at & field,
            count >> capped_at)


def compile_simulation(lineup, policy, table: TransitionTable, *,
                       innings: int, pa_cap: int) -> CompiledSim:
    if innings <= 0 or pa_cap <= 0:
        raise ValueError("innings and pa_cap must be positive")
    if len(policy) != NUM_LIVE_STATES:
        raise ValueError(f"a policy has {NUM_LIVE_STATES} choices, got {len(policy)}")
    pa_at, fallback_at, capped_at = count_shifts(innings, pa_cap)
    # P(outcome | slot, state), shape (9, 24, 8)
    outcome_p = np.array([[triple.vector(choice).as_tuple() for choice in policy]
                          for triple in lineup.slots])

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

    shape = np.array([block[4].shape[1:] for block in blocks])
    size = 9 * shape.prod(axis=1)
    i = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    rows, k = np.repeat(shape, size, axis=0).T
    pa, f0, top, capped = (np.repeat([block[j] for block in blocks], size)
                           for j in range(4))
    mass = np.concatenate([block[4].ravel() for block in blocks])
    drawn = mass > 0.0
    lead, runs, pa, fallbacks, capped, mass = (
        a[drawn] for a in (i // (rows * k), top - i % k, pa, f0 + i // k % rows,
                           capped, mass))
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
    count = (runs + (pa << pa_at) + (fallbacks << fallback_at)
             + (capped.astype(np.int64) << capped_at))
    return CompiledSim(cum=cum, count=table_of(count, np.int64),
                       innings=innings, pa_cap=pa_cap)


@dataclass(frozen=True)
class _Steps:
    """A cell's rows as the step loop reads them, every table flat and
    row l addressed by its guide offset, l * GUIDE_SIZE.  cum is scaled by
    GUIDE_SIZE, so a scaled draw indexes the guide; an entry's next row is
    that of the slot that leads off the next half-inning."""

    cell: CompiledSim
    cum: np.ndarray     # GUIDE_SIZE * cumulative mass
    guide: np.ndarray   # entry of a scaled draw in [k, k + 1), or ~search start
    next: np.ndarray    # guide offset of the next half-inning's row


def _steps(cell: CompiledSim) -> _Steps:
    """The step tables of the cell."""
    cum = cell.cum * GUIDE_SIZE
    row = np.arange(9)[:, None]
    _, pa, _, _ = unpack(cell.count, cell.innings, cell.pa_cap)
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
    return _Steps(cell=cell, cum=cum.ravel(), guide=guide.ravel(),
                  next=((row + pa) % 9 * GUIDE_SIZE).ravel())


def _draw(s: _Steps, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Flat entry drawn by each scaled draw x = GUIDE_SIZE * u, u in [0, 1),
    from the row at guide offset row: the first entry whose scaled cum
    exceeds x.  The guide gives that entry for most draws, and for the
    rest ~start, a start at or before it, from which they step forward;
    the row's last real entry is 1.0, so no search leaves its row."""
    start = x.astype(np.int64)
    start += row
    entry = s.guide.take(start)
    behind = np.flatnonzero(entry < 0)
    if behind.size:
        at, x = ~entry[behind], x[behind]
        short = s.cum.take(at) <= x
        while short.any():
            at += short
            short = s.cum.take(at) <= x
        entry[behind] = at
    return entry


def _simulate(s: _Steps, seed: int, batches):
    """Run each (batch index, games) batch of the cell whose step tables s
    holds, all in one step loop; returns each batch's (histogram,
    truncated, fallbacks, pa).  Every game leads off its first half-inning
    with slot 0."""
    cell = s.cell
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, i)))
            for i, _ in batches]
    ends = np.cumsum([n for _, n in batches])
    u = np.empty(ends[-1])
    draws = np.split(u, ends[:-1])
    row = np.zeros(u.size, dtype=np.int64)
    count = np.zeros(u.size, dtype=np.int64)
    for _ in range(cell.innings):
        for rng, out in zip(rngs, draws):
            rng.random(out=out)
        u *= GUIDE_SIZE
        entry = _draw(s, row, u)
        count += cell.count.take(entry)
        row = s.next.take(entry)

    runs, pa, fallbacks, capped = unpack(count, cell.innings, cell.pa_cap)
    return [(np.bincount(runs[unit]), int(np.count_nonzero(capped[unit])),
             int(fallbacks[unit].sum()), int(pa[unit].sum()))
            for unit in (slice(hi - n, hi) for (_, n), hi in zip(batches, ends))]


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


def _run_task(spans, n_games: int, seed: int):
    """Run each (compiled cell, first batch, stop batch) span; returns each
    span's merged result, in order.  A step holds up to STEP_BATCHES of a
    span's batches."""
    sizes = _batch_sizes(n_games)
    results = []
    for cell, first, stop in spans:
        s = _steps(cell)
        parts = []
        for start in range(first, stop, STEP_BATCHES):
            step = range(start, min(start + STEP_BATCHES, stop))
            parts.extend(_simulate(s, seed, [(i, sizes[i]) for i in step]))
        results.append(_merge(parts))
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
    cell alone, from at most one task per pool process."""
    compiled = [compile_simulation(*cell, innings=innings, pa_cap=pa_cap)
                for cell in cells]
    b = len(_batch_sizes(n_games))
    units = len(cells) * b
    processes = pool_size(workers)
    n_tasks = max(1, min(processes, units))
    bounds = [-(-units * t // n_tasks) for t in range(n_tasks + 1)]
    # each task's (cell index, first batch, stop batch) spans
    spans = [[(k, max(lo - k * b, 0), min(hi - k * b, b))
              for k in range(lo // b, -(-hi // b))]
             for lo, hi in zip(bounds, bounds[1:])]
    tasks = [([(compiled[k], first, stop) for k, first, stop in task], n_games,
              seed) for task in spans]
    if n_tasks == 1:  # every cell whole, in order
        return _run_task(*tasks[0])
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
    for task, task_results in zip(spans, results):
        for (k, _, _), result in zip(task, task_results):
            per_cell[k].append(result)
    return [_merge(parts) for parts in per_cell]


def run_batches(cell, *, innings: int, pa_cap: int, n_games: int, seed: int,
                workers: int):
    """One (lineup, policy, table) cell's (histogram, truncated, fallbacks,
    pa) over n_games games."""
    return run_cells([cell], innings=innings, pa_cap=pa_cap, n_games=n_games,
                     seed=seed, workers=workers)[0]
