"""Vectorized Monte Carlo engine with worker-count-independent results.

The determinism contract: games are split into fixed-size batches
(BATCH_SIZE, never a function of worker count), batch i draws from a
dedicated generator seeded with (seed, i), and every step draws one uniform
for each of a batch's games whether or not they have finished.  A game
takes one step from the first step until it ends, so the k-th draw at its
position feeds its k-th step of one or two plate appearances.  A batch
stepped beside another may draw past its own last game while the other
runs on; those draws feed no game.  A batch's histogram therefore depends
only on its own games, batch histograms are integers, and their sum is
order-independent, so any degree of parallelism and any grouping of
batches into steps produce byte-identical aggregates.

Several cells (lineup, policy and table triples, as in a sweep) run on the
same batches.  A step of batch i draws its one vector of uniforms
and every cell's game g uses its g-th entry, so at its k-th step game g
sees the same uniform in every cell, and each cell's
histogram and counts are exactly those of a run of that cell alone.  A
step holds up to STEP_PAIRS // BATCH_SIZE (cell, batch) units: two cells of
one batch, or two batches of one cell, so its arrays stay as small as two
batches.

compile_simulation folds the lineup, the policy (a 24-tuple of
StrategyChoice, one per live state, used as it is) and the transition table
into one cumulative row per (slot, state) over the merged (post state,
runs, fallback) outcomes of that plate appearance, so a single uniform
picks both the batter's outcome and the base-out transition.  A step plays
two plate appearances on one uniform: _stack folds each row with the rows
of the next batter it leads to, into a composite row over the merged
results of both, or of the first alone where it ends the half-inning.  A
plate-appearance cap per half-inning guards against never-ending innings.
It counts plate appearances, not steps: a game one short of the cap steps
on its one-plate-appearance row.  compile_simulation rejects an innings x
pa_cap whose counts would not fit their packed fields (count_shifts).  The
reference for these semantics is exact: the tests compute each game's run
distribution from the same chain by pushing probability mass through it,
and check the engine's histograms against it.

A call splits its cells x batches units, cell by cell, into one task of
near-equal length per process: a task is a group of cells with a range of
batches (only its first and last cell can have part of theirs).  Every
call, of one cell or many, takes its cells as (lineup, policy, table)
triples: its tasks carry them, not compiled tables, and compile them where
they run, two at a time, just before running them.  A call that runs on
one process runs its one task in place.

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

from .transitions import INNING_OVER, NUM_LIVE_STATES, TransitionTable

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

BATCH_SIZE = 4096
# (cell, game) pairs one kernel step may hold: two cells of a full batch, or
# two batches of one cell.  Fusing seven cells per step raised a sweep's peak
# RSS by 17% in a prototype.
STEP_PAIRS = 2 * BATCH_SIZE
NUM_ROWS = 9 * NUM_LIVE_STATES  # row = slot * 24 + state
GUIDE_SIZE = 64  # guide cells per row; a power of two, so u * GUIDE_SIZE is exact


@dataclass(frozen=True)
class CompiledSim:
    """Lineup, policy, and table fused into one table over (slot, state).

    Row r = slot * 24 + state lists the distinct (post state, runs,
    fallback) results of that plate appearance, left-justified.  cum holds
    their cumulative mass; the last real entry is exactly 1.0 and padding
    columns are 1.0 too, so a unit draw selects a positive-mass entry.
    """

    cum: np.ndarray        # (216, W) cumulative mass
    next_row: np.ndarray   # (216, W) row of the next batter: next slot * 24 + post
    over: np.ndarray       # (216, W) True where the entry ends the inning
    runs: np.ndarray       # (216, W) runs scored by the entry
    fallback: np.ndarray   # (216, W) True where the table had no row
    innings: int
    pa_cap: int


def count_shifts(innings: int, pa_cap: int) -> tuple[int, int, int]:
    """Bit offsets of the plate-appearance, fallback and inning fields of a
    game's packed count, above its runs.  Each holds a game's most: innings
    * pa_cap runs, plate appearances and fallbacks (compile_simulation
    admits no entry that scores more than its batter and the runners it
    clears, so a half-inning scores at most one run per plate appearance),
    and, on top, its innings plus one per step it stays parked."""
    most_pa = innings * pa_cap
    pa_at = most_pa.bit_length()
    fallback_at = 2 * pa_at
    inning_at = 3 * pa_at
    if inning_at + (innings + most_pa).bit_length() > 63:
        raise ValueError(f"innings x pa_cap = {innings} x {pa_cap} is too large:"
                         f" a game's counts would not fit in 63 bits")
    return pa_at, fallback_at, inning_at


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
    state = key // 8
    # runners on base by state index; INNING_OVER, 24, has none
    bases = np.arange(INNING_OVER + 1) % 8
    on_base = (bases & 1) + (bases >> 1 & 1) + (bases >> 2)
    if np.any(runs > 1 + on_base[state] - on_base[post]):
        raise ValueError("a transition scores more runs than its batter and the"
                         " runners it clears")
    count_shifts(innings, pa_cap)
    n_runs = int(runs.max()) + 1
    code = (post * n_runs + runs) * 2 + fell_back

    # joint mass per (row, code): sum over outcomes of P(o) * P(post, runs | o)
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
    return CompiledSim(cum=cum, next_row=next_row, over=over,
                       runs=order // 2 % n_runs, fallback=order % 2 == 1,
                       innings=innings, pa_cap=pa_cap)


@dataclass(frozen=True)
class _Steps:
    """A stack of cells as the step loop reads it, every table flat.  Cell
    k's composite rows (_two_steps) sit at k * NUM_ROWS; its one-plate-
    appearance rows, for a game one short of pa_cap, sit a block further
    on, at single + k * NUM_ROWS (with pa_cap 1 every step plays one, and
    single is 0: the one-PA rows are the only block).  Every row is padded
    to the widest with cum 1.0, and a parking row ends the stack.  Rows are
    addressed by guide offset, row * GUIDE_SIZE, and cum is scaled by
    GUIDE_SIZE, so a scaled draw indexes the guide.  Every entry leads to a
    composite row.  A finished game parked on the last row stays there, and
    its count gains only an inning's end a step, so it is never capped."""

    cum: np.ndarray     # GUIDE_SIZE * cumulative mass
    guide: np.ndarray   # entry of a scaled draw in [k, k + 1), or ~search start
    next: np.ndarray    # guide offset of the next batter's composite row
    count: np.ndarray   # packed runs, plate appearances, fallbacks and inning end
    single: int         # guide offset of the one-PA block
    park: int           # guide offset of the parking row
    shifts: tuple[int, int, int]
    innings: int
    pa_cap: int


def _two_steps(c: CompiledSim, count: np.ndarray):
    """One cell's composite rows as (cum, next_row, count), each (216, W):
    a step from row r plays r's plate appearance and, unless that ends the
    half-inning, one of the next batter's, and the row lists the distinct
    (next row, count) results of that step, left-justified.  They are
    ordered by whether the step ends the half-inning, then the base-out
    state after it, then its count, so that a draw picks a like result in
    every cell and sweep deltas keep their common random numbers.  count
    is the packed count of each of c's entries."""
    w = c.cum.shape[1]
    nxt, over = c.next_row.ravel(), c.over.ravel()
    # c's entries, flat, then one that stands for no second plate appearance
    none = NUM_ROWS * w
    mass = np.append(np.diff(c.cum, axis=1, prepend=0.0), 1.0)
    count = np.append(count, 0)
    # the sort key of a step: its row, the state after it (24 once the
    # half-inning is over), then its count fields in the count's order, as
    # one code that adds up over its two entries: a step scores at most 8
    # runs, so runs + 9 * plate appearances + 27 * fallbacks is below 81
    codes, afters = 81, NUM_LIVE_STATES + 1
    code = (c.runs + 9 + 27 * c.fallback).ravel()
    after = np.where(over, NUM_LIVE_STATES, nxt % NUM_LIVE_STATES)
    head = np.arange(none) // w * afters * codes + code
    tail = np.append(after * codes + code, NUM_LIVE_STATES * codes)

    # each drawable first entry with each entry of the row it leads to, up
    # to its 1.0 entry, or with none after an inning's end; a pair of zero
    # mass would never be drawn
    first = np.flatnonzero(mass[:-1])
    reach = np.count_nonzero(c.cum < 1.0, axis=1) + 1
    seconds = np.where(over[first], 1, reach[nxt[first]])
    begin = np.where(over[first], none, nxt[first] * w) - (np.cumsum(seconds) - seconds)
    second = np.repeat(begin, seconds) + np.arange(seconds.sum())
    first = np.repeat(first, seconds)

    # merge equal keys, sorted with each pair's index in the low bits,
    # which is faster than an argsort
    bits = first.size.bit_length()
    key = (head[first] + tail[second]) << bits | np.arange(first.size)
    key.sort()
    pair = key & ((1 << bits) - 1)
    key >>= bits
    merged = np.flatnonzero(np.diff(key, prepend=-1))
    p = np.add.reduceat(mass[first[pair]] * mass[second[pair]], merged)
    first, second = first[pair[merged]], second[pair[merged]]
    row = key[merged] // (afters * codes)
    n = np.bincount(row, minlength=NUM_ROWS)
    col = np.arange(row.size) - (np.cumsum(n) - n)[row]

    width = n.max()
    cum = np.zeros((NUM_ROWS, width))
    cum[row, col] = p
    cum = np.minimum(np.cumsum(cum, axis=1), 1.0)
    cum[np.arange(width) >= n[:, None] - 1] = 1.0  # padding, and float crumbs
    next_row = np.zeros((NUM_ROWS, width), dtype=np.int64)
    # a step of one plate appearance leads where its entry does
    next_row[row, col] = np.where(second == none, nxt[first], nxt[second % none])
    steps = np.zeros((NUM_ROWS, width), dtype=np.int64)
    steps[row, col] = count[first] + count[second]
    return cum, next_row, steps


def _stack(cells: list[CompiledSim]) -> _Steps:
    """The step tables of the cells, which share innings and pa_cap: each
    cell's composite rows, then, unless pa_cap is 1, each cell's one-PA
    rows, then the parking row (see _Steps)."""
    innings, pa_cap = cells[0].innings, cells[0].pa_cap
    shifts = count_shifts(innings, pa_cap)
    pa_at, fallback_at, inning_at = shifts
    one_pa = [(c.cum, c.next_row,
               c.runs + (1 << pa_at) + (c.fallback.astype(np.int64) << fallback_at)
               + (c.over.astype(np.int64) << inning_at)) for c in cells]
    blocks = one_pa
    if pa_cap > 1:
        blocks = [_two_steps(c, count) for c, (_, _, count) in zip(cells, one_pa)
                  ] + one_pa
    width = max(cum.shape[1] for cum, _, _ in blocks)
    park = len(blocks) * NUM_ROWS

    def stacked(field, fill, parked):
        return np.concatenate([
            np.pad(block[field], ((0, 0), (0, width - block[field].shape[1])),
                   constant_values=fill) for block in blocks]
            + [np.full((1, width), parked)])

    cum = stacked(0, 1.0, 1.0)
    cum *= GUIDE_SIZE
    next_row = stacked(1, 0, park)
    first_row = np.arange(len(blocks)) % len(cells) * NUM_ROWS  # of each block's cell
    next_row[:-1] += np.repeat(first_row, NUM_ROWS)[:, None]
    next_row *= GUIDE_SIZE
    count = stacked(2, 0, 1 << inning_at)
    # the draws of guide cell k, in [k, k + 1), start at the first entry e
    # whose cum exceeds k, the number of entries whose cum rounds up to at
    # most k; where cum[e] may not exceed them all, the guide holds ~e, and
    # the draws search on from e.  Built in place: a sweep's peak memory is
    # a stack's build
    rows = park + 1
    up = np.ceil(cum).astype(np.int64)
    up += np.arange(rows)[:, None] * (GUIDE_SIZE + 1)
    guide = np.bincount(up.ravel(), minlength=rows * (GUIDE_SIZE + 1)).reshape(rows, -1)
    np.cumsum(guide, axis=1, out=guide)
    guide = guide[:, :GUIDE_SIZE] + np.arange(rows)[:, None] * width
    np.invert(guide, out=guide,
              where=cum.ravel()[guide] < np.arange(1, GUIDE_SIZE + 1))
    return _Steps(cum=cum.ravel(), guide=guide.ravel(),
                  next=next_row.ravel(), count=count.ravel(),
                  single=GUIDE_SIZE * NUM_ROWS * len(cells) * (pa_cap > 1),
                  park=park * GUIDE_SIZE, shifts=shifts,
                  innings=innings, pa_cap=pa_cap)


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


def _simulate_cells(s: _Steps, cells: int, seed: int, batches):
    """Run each (batch index, games) batch in each of the cells stacked in
    s, all in one step loop; returns each cell's list of per-batch
    (histogram, truncated, fallbacks, pa)."""
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, i)))
            for i, _ in batches]
    ends = np.cumsum([n for _, n in batches])
    # one row of draws per cell: the first is drawn, the others copy it
    u = np.empty((cells, ends[-1]))
    draws = np.split(u[0], ends[:-1])
    final = np.zeros(u.size, dtype=np.int64)
    truncated = np.zeros(u.size, dtype=bool)
    pa_at, fallback_at, inning_at = s.shifts
    pa_field = (1 << (fallback_at - pa_at)) - 1
    inning = 1 << inning_at
    game_over = s.innings * inning
    slot_rows = NUM_LIVE_STATES * GUIDE_SIZE
    step = 0

    # per-pair state, compacted to the unfinished pairs now and then; pair
    # p is game p % ends[-1] of cell p // ends[-1] and takes draw p, and a
    # finished pair is parked until the next compaction
    pair = np.arange(u.size)
    row = pair // ends[-1] * (NUM_ROWS * GUIDE_SIZE)
    count = np.zeros(pair.size, dtype=np.int64)
    inning_end = np.zeros(pair.size, dtype=np.int64)  # count as the last inning ended

    while pair.size:
        for rng, out in zip(rngs, draws):
            rng.random(out=out)
        u[0] *= GUIDE_SIZE
        u[1:] = u[0]
        step += 1
        entry = _draw(s, row, u.take(pair))
        row = s.next.take(entry)
        counted = s.count.take(entry)
        count += counted
        np.maximum(inning_end, (counted >> inning_at) * count, out=inning_end)
        # a step plays at most two plate appearances, so no half-inning
        # comes within one of pa_cap sooner
        if 2 * step >= s.pa_cap - 1:
            played = (count - inning_end) >> pa_at & pa_field  # this half-inning
            capped = np.flatnonzero(played >= s.pa_cap)
            if capped.size:
                truncated[pair[capped]] = True
                row[capped] -= row[capped] % slot_rows  # next slot, fresh inning
                count[capped] += inning
                inning_end[capped] = count[capped]
            row[played == s.pa_cap - 1] += s.single  # one plate appearance left

        done = count >= game_over
        np.maximum(row, done * s.park, out=row)  # the parking row is the last
        if 4 * np.count_nonzero(done) >= pair.size:
            gone = np.flatnonzero(done)
            final[pair.take(gone)] = count.take(gone)
            keep = np.flatnonzero(~done)
            pair, row, count, inning_end = (
                a.take(keep) for a in (pair, row, count, inning_end))

    runs = final & ((1 << pa_at) - 1)
    pa = final >> pa_at & pa_field
    fallbacks = final >> fallback_at & ((1 << (inning_at - fallback_at)) - 1)
    return [[(np.bincount(runs[unit]), int(np.count_nonzero(truncated[unit])),
              int(fallbacks[unit].sum()), int(pa[unit].sum()))
             for unit in (slice(k * ends[-1] + hi - n, k * ends[-1] + hi)
                          for (_, n), hi in zip(batches, ends))]
            for k in range(cells)]


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


def _run_task(cells, innings: int, pa_cap: int, n_games: int, seed: int,
              first: int, stop: int):
    """Run the units first..stop-1 of the (lineup, policy, table) cells'
    (cell, batch) units, taken cell by cell; returns the merged result of
    each cell that has units, in order.  Cells with the same batch range
    run fused, up to STEP_PAIRS // BATCH_SIZE cells at a time, each group
    compiled just before it runs; a step holds that many units, so a group
    of one cell steps as many batches at once."""
    sizes = _batch_sizes(n_games)
    b = len(sizes)
    per_step = STEP_PAIRS // BATCH_SIZE
    ranges = [(k, max(first - k * b, 0), min(stop - k * b, b))
              for k in range(first // b, -(-stop // b))]
    groups = []
    for k, lo, hi in ranges:
        if (groups and groups[-1][1:] == (lo, hi)
                and len(groups[-1][0]) < per_step):
            groups[-1][0].append(k)
        else:
            groups.append(([k], lo, hi))

    results = []
    for members, lo, hi in groups:
        stack = _stack([compile_simulation(*cells[k], innings=innings,
                                           pa_cap=pa_cap) for k in members])
        fused = per_step // len(members)
        per_cell = [[] for _ in members]
        for start in range(lo, hi, fused):
            batches = [(i, sizes[i]) for i in range(start, min(start + fused, hi))]
            for part, got in zip(per_cell, _simulate_cells(
                    stack, len(members), seed, batches)):
                part.extend(got)
        results.extend(_merge(part) for part in per_cell)
        del stack  # freed before the next group's is built
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
    b = len(_batch_sizes(n_games))
    units = len(cells) * b
    processes = pool_size(workers)
    n_tasks = min(processes, units)
    if n_tasks <= 1:
        return _run_task(cells, innings, pa_cap, n_games, seed, 0, units)

    bounds = [-(-units * t // n_tasks) for t in range(n_tasks + 1)]
    tasks = [(cells[lo // b:-(-hi // b)], innings, pa_cap, n_games, seed,
              lo % b, hi - lo // b * b) for lo, hi in zip(bounds, bounds[1:])]
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


def run_batches(cell, *, innings: int, pa_cap: int, n_games: int, seed: int,
                workers: int):
    """One (lineup, policy, table) cell's (histogram, truncated, fallbacks,
    pa) over n_games games."""
    return run_cells([cell], innings=innings, pa_cap=pa_cap, n_games=n_games,
                     seed=seed, workers=workers)[0]
