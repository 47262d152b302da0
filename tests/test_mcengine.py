"""The Monte Carlo engine: its compiled half-inning table per leadoff
slot, the draw that searches it, exact fallback counts, many cells in one
call, and the shared worker pool: its size, its reuse across calls and its
recovery from a dead worker."""

import concurrent.futures
import io
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import pickle
import signal
import subprocess
import sys
from collections import defaultdict
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from batsim import mcengine, transitions
from batsim.abilities import AbilityVector
from batsim.defaults import (
    default_converter_params,
    default_transition_table,
    fitted_lineup,
)
from batsim.simulation import Lineup, monte_carlo, monte_carlo_cells
from batsim.strategies import (
    StrategyChoice,
    always_normal,
    build_triple,
    fixed_policy,
    threshold_policy,
)
from batsim.sweeps import mean_batter, run_strategy_grid
from batsim.transitions import (
    INNING_OVER,
    NUM_LIVE_STATES,
    OUTCOMES,
    ConservationViolationError,
    GameState,
    Outcome,
    TransitionEntry,
    TransitionEvent,
    TransitionTable,
    build_table,
    live_states,
    run_expectancy,
    simple_transition,
)

ALL_K = AbilityVector(0, 0, 0, 0, 0, 1.0, 0, 0)
HR_OR_K = AbilityVector(0, 0, 0, 0.6, 0, 0.4, 0, 0)
ALL_HR = AbilityVector(0, 0, 0, 1.0, 0, 0, 0, 0)
LAST_DRAW = 1.0 - 2.0 ** -53  # the largest double numpy's random() returns


@pytest.fixture(scope="module")
def lineup():
    params = default_converter_params()
    return Lineup(tuple(build_triple(v, params, 0.1, -0.005)
                        for v in fitted_lineup().vectors))


@pytest.fixture(scope="module")
def policies(lineup):
    """The three policy kinds.  The threshold policy splits the 24 states
    into thirds by the bundled table's run expectancy for the mean batter."""
    re_table = run_expectancy(default_transition_table(),
                              mean_batter(lineup.normals))
    values = sorted(re_table.values)
    threshold = threshold_policy(values[16], values[7], re_table)
    assert set(threshold) == set(StrategyChoice)
    return {"fixed": fixed_policy, "normal-only": always_normal,
            "threshold": threshold}


# (table, policy kind); the fixed-policy cases keep their table-only ids
CASES = [(t, k) for k in ("fixed", "normal-only", "threshold")
         for t in ("bundled", "empty")]


@pytest.fixture(scope="module", params=CASES,
                ids=[t if k == "fixed" else f"{t}-{k}" for t, k in CASES])
def compiled(request, lineup, policies):
    table_kind, policy_kind = request.param
    table = (default_transition_table() if table_kind == "bundled"
             else TransitionTable(rows={}))
    policy = policies[policy_kind]
    c = mcengine.compile_simulation(lineup, policy, table,
                                    innings=9, pa_cap=100)
    return lineup, table, policy, c


def _expected_masses(lineup, policy, table, slot, state):
    """sum_o P(o | slot, state) * P(post, runs | state, o), keyed by
    (post, runs, fell_back), computed entry by entry."""
    masses = defaultdict(float)
    probs = lineup.slots[slot].vector(policy[state.index]).as_tuple()
    for p_o, outcome in zip(probs, OUTCOMES):
        entries = table.rows.get((state.outs, state.bases, outcome))
        if entries is None:
            post, runs = simple_transition(state, outcome)
            masses[(post.index, runs, True)] += p_o
            continue
        for e in entries:
            post = INNING_OVER if e.outs >= 3 else e.outs * 8 + e.bases
            masses[(post, e.runs, False)] += p_o * e.prob
    return {k: m for k, m in masses.items() if m > 0.0}


def _half_inning_masses(lineup, policy, table, pa_cap):
    """Per leadoff slot, the mass of each (runs, plate appearances,
    fallbacks, capped) outcome of a half-inning, found by playing its plate
    appearances one by one with their runs summed, not inferred."""
    states = live_states()
    steps = {(slot, state.index): _expected_masses(lineup, policy, table,
                                                   slot, state)
             for slot in range(9) for state in states}
    rows = []
    for lead in range(9):
        outcomes = defaultdict(float)
        live = {(0, 0, 0): 1.0}  # (state, runs, fallbacks) -> mass
        for pa in range(1, pa_cap + 1):
            after = defaultdict(float)
            for (state, runs, fell), m in live.items():
                for (post, r, fb), q in steps[((lead + pa - 1) % 9, state)].items():
                    if post == INNING_OVER:
                        outcomes[(runs + r, pa, fell + fb, False)] += m * q
                    else:
                        after[(post, runs + r, fell + fb)] += m * q
            live = after
        for (_, runs, fell), m in live.items():
            outcomes[(runs, pa_cap, fell, True)] += m
        rows.append(outcomes)
    return rows


ROW_PA_CAP = 7  # small enough for the brute force, and often reached


def test_rows_hold_the_joint_mass(compiled):
    # each leadoff row lists the merged outcomes of a whole half-inning,
    # capped ones too, ordered by runs, then plate appearances, fallbacks
    # and capped
    lineup, table, policy, _ = compiled
    c = mcengine.compile_simulation(lineup, policy, table, innings=9,
                                    pa_cap=ROW_PA_CAP)
    width = c.cum.shape[1]
    for lead, expected in enumerate(_half_inning_masses(lineup, policy, table,
                                                        ROW_PA_CAP)):
        k = len(expected)
        assert k <= width
        keys = list(zip(*mcengine.unpack(c.count[lead, :k], c.innings, c.pa_cap)))
        assert keys == sorted(keys)
        got = dict(zip(keys, np.diff(c.cum[lead, :k], prepend=0.0)))
        assert len(got) == k  # merged: k distinct entries
        assert got.keys() == expected.keys()
        for key, m in expected.items():
            assert got[key] == pytest.approx(m, rel=0, abs=1e-12)
        assert c.cum[lead, k - 1] == 1.0  # the last real entry ends the row
        assert np.all(c.cum[lead, k:] == 1.0)
        assert np.all(c.count[lead, k:] == 0)


def test_unit_interval_ends_draw_positive_mass(compiled):
    *_, c = compiled
    steps = mcengine._steps(c)
    rows = np.arange(9)
    width = c.cum.shape[1]
    mass = np.diff(c.cum, axis=1, prepend=0.0)
    for u in (0.0, LAST_DRAW):
        x = np.full(rows.size, u * mcengine.GUIDE_SIZE)
        entry = mcengine._draw(steps, rows * mcengine.GUIDE_SIZE, x)
        assert np.all(entry // width == rows)
        assert np.all(mass.ravel()[entry] > 0.0)


def test_draw_matches_a_full_row_search(compiled):
    # each draw picks the first entry whose cum exceeds it, and that
    # entry leads to the row of the slot after its half-inning's last batter
    *_, c = compiled
    steps = mcengine._steps(c)
    rng = np.random.default_rng(3)
    edges = np.arange(mcengine.GUIDE_SIZE) / mcengine.GUIDE_SIZE
    inner = c.cum[c.cum < 1.0]
    u = np.concatenate([
        rng.random(20_000), edges, np.nextafter(edges[1:], 0.0), inner,
        np.nextafter(inner, 0.0), [0.0, LAST_DRAW]])
    rows = rng.integers(0, 9, u.size)
    count = np.count_nonzero(c.cum[rows] <= u[:, None], axis=1)
    entry = mcengine._draw(steps, rows * mcengine.GUIDE_SIZE,
                           u * mcengine.GUIDE_SIZE)
    np.testing.assert_array_equal(entry, rows * c.cum.shape[1] + count)
    _, pa, _, _ = mcengine.unpack(c.count.ravel()[entry], c.innings, c.pa_cap)
    np.testing.assert_array_equal(steps.next[entry] // mcengine.GUIDE_SIZE,
                                  (rows + pa) % 9)


def test_compiled_tables_do_not_depend_on_the_flat_cache(lineup):
    # a table walks its chain once; compiling from the kept arrays gives
    # the table a fresh walk gives
    rows = default_transition_table().rows
    fresh = mcengine.compile_simulation(lineup, fixed_policy,
                                        TransitionTable(rows=dict(rows)),
                                        innings=9, pa_cap=100)
    table = TransitionTable(rows=dict(rows))
    for _ in range(2):
        again = mcengine.compile_simulation(lineup, fixed_policy, table,
                                            innings=9, pa_cap=100)
        for field in ("cum", "count"):
            np.testing.assert_array_equal(getattr(again, field),
                                          getattr(fresh, field))


@pytest.mark.parametrize("length", [0, 23, 25])
def test_compile_rejects_a_policy_of_another_length(lineup, length):
    policy = (StrategyChoice.NORMAL,) * length
    with pytest.raises(ValueError, match="24 choices"):
        mcengine.compile_simulation(lineup, policy, TransitionTable.simple(),
                                    innings=9, pa_cap=100)


@pytest.mark.parametrize("innings, fits, too_large", [(9, 3640, 3641),
                                                      (1, 32767, 32768)])
def test_compile_rejects_counts_that_overflow(lineup, innings, fits,
                                              too_large):
    # a game's counts, packed in one int64, fit just up to the bound
    table = default_transition_table()
    mcengine.compile_simulation(lineup, fixed_policy, table,
                                innings=innings, pa_cap=fits)
    with pytest.raises(ValueError, match=f"{innings} x {too_large}"):
        mcengine.compile_simulation(lineup, fixed_policy, table,
                                    innings=innings, pa_cap=too_large)


HOMER, SINGLE = (0, 0, Outcome.HOME_RUN), (0, 1, Outcome.SINGLE)


def _table_made_by(how, key, entry, monkeypatch):
    """A table whose one row, or in simple()'s case one of its rows, holds
    the entry for the key, made the given way."""
    outs, bases, outcome = key
    if how == "rows":
        return TransitionTable(rows={key: (entry,)})
    if how == "json":
        return TransitionTable.from_json_obj({f"{outs}-{bases}-{outcome.value}": [
            {"outs": entry.outs, "bases": entry.bases, "runs": entry.runs,
             "p": entry.prob}]})
    if how == "events":
        return build_table([TransitionEvent(outs, bases, outcome, entry.outs,
                                            entry.bases, entry.runs)], min_count=1)
    # simple() takes its rows from the fallback rule: answer the key with
    # the entry
    monkeypatch.setattr(transitions, "simple_transition", lambda state, o: (
        (GameState(entry.outs, entry.bases), entry.runs)
        if (state.outs, state.bases, o) == key else simple_transition(state, o)))
    return TransitionTable.simple()


@pytest.mark.parametrize("how", ["rows", "json", "simple", "events"])
def test_every_way_of_making_a_table_rejects_an_unbalanced_entry(
        lineup, monkeypatch, how):
    # a half-inning's runs follow from its plate appearances and the outs
    # and runners it ends with, so every transition must balance: its
    # runs are its batter and the runners before, less the runners after
    # and the outs it records.  The table checks that when it is made, so
    # compile_simulation never sees an entry that does not
    table = _table_made_by(how, HOMER, TransitionEntry(0, 0, 1, 1.0), monkeypatch)
    mcengine.compile_simulation(lineup, fixed_policy, table, innings=9, pa_cap=100)
    for key, entry in ((HOMER, TransitionEntry(0, 0, 2, 1.0)),
                       # the runner on first vanishes
                       (SINGLE, TransitionEntry(0, 1, 0, 1.0))):
        name = f"{key[0]}-{key[1]}-{key[2].value}"
        with pytest.raises(ConservationViolationError, match=f"^{name}: conservation"):
            _table_made_by(how, key, entry, monkeypatch)


def test_counts_at_the_bound_are_exact():
    # every plate appearance is a home run with the bases empty that falls
    # back to the simple model, so a game is capped in every inning and
    # fills the runs, plate-appearance and fallback fields to innings *
    # pa_cap, the most each field is sized for; each row is one outcome,
    # built on a fallback axis one wide
    innings, pa_cap = 9, 3640
    homers = mcengine.compile_simulation(
        Lineup.from_vectors([ALL_HR] * 9), always_normal,
        TransitionTable(rows={}), innings=innings, pa_cap=pa_cap)
    assert homers.cum.shape == (9, 1)
    *fields, capped = mcengine.unpack(homers.count, innings, pa_cap)
    for field in fields:
        assert np.all(field == pa_cap)
    assert np.all(capped == 1)
    [(hist, truncated, fallbacks, pa)] = mcengine._simulate(
        mcengine._steps(homers), 1, [(0, 1)])
    most = innings * pa_cap
    assert tuple(hist) == (0,) * most + (1,)
    assert (truncated, fallbacks, pa) == (1, most, most)


@pytest.mark.parametrize("workers", [1, 2])
def test_fallback_counts_are_exact(workers):
    # only the leadoff strikeout of each inning falls back to the simple model
    rows = dict(TransitionTable.simple().rows)
    del rows[(0, 0, Outcome.STRIKEOUT)]
    n_games = mcengine.BATCH_SIZE + 904
    stats = monte_carlo(Lineup.from_vectors([ALL_K] * 9), always_normal,
                        TransitionTable(rows=rows), n_games, seed=5,
                        workers=workers)
    assert stats.fallback_transitions == 9 * n_games
    assert stats.plate_appearances == 27 * n_games
    assert stats.histogram == (n_games,)
    assert stats.truncated_games == 0


CELL_GAMES = mcengine.BATCH_SIZE + 300  # two batches
CELL_PA_CAP = 12


@pytest.fixture(scope="module")
def mixed_cells(lineup, policies):
    """Five (lineup, policy, table) cells of differing table widths and
    counts: one reaches the plate-appearance cap in most games, one falls
    back on every plate appearance, one on some."""
    rows = dict(TransitionTable.simple().rows)
    del rows[(0, 0, Outcome.STRIKEOUT)]
    bundled = default_transition_table()
    return [
        (Lineup.from_vectors([HR_OR_K] * 9), always_normal, TransitionTable.simple()),
        (Lineup.from_vectors(lineup.normals), always_normal, TransitionTable(rows={})),
        (lineup, policies["fixed"], bundled),
        (lineup, policies["threshold"], TransitionTable(rows=rows)),
        (lineup, always_normal, bundled),
    ]


@pytest.fixture(scope="module")
def cells_alone(mixed_cells):
    stats = [monte_carlo(*cell, CELL_GAMES, seed=21, pa_cap=CELL_PA_CAP)
             for cell in mixed_cells]
    # the cells' counts differ, so a count that leaks between cells shows
    for count in ("truncated_games", "fallback_transitions", "plate_appearances"):
        assert len({getattr(s, count) for s in stats}) >= 3
    return stats


@pytest.mark.parametrize("member", [0], ids=["one-cell"])
def test_fused_batches_equal_each_batch_alone(mixed_cells, member):
    # cell 0 reaches the cap in most games; the second batch is a short tail
    steps = mcengine._steps(mcengine.compile_simulation(
        *mixed_cells[member], innings=9, pa_cap=CELL_PA_CAP))
    batches = [(3, mcengine.BATCH_SIZE), (7, 300)]
    together = mcengine._simulate(steps, 21, batches)
    for batch, (hist, *counts) in zip(batches, together):
        [(hist_alone, *counts_alone)] = mcengine._simulate(steps, 21, [batch])
        assert tuple(hist) == tuple(hist_alone)
        assert counts == counts_alone
    truncated = together[0][1]
    assert truncated > mcengine.BATCH_SIZE // 2


def test_shared_draws_keep_per_game_runs_correlated(lineup):
    # a sweep's deltas are common-random-number comparisons: game g of the
    # baseline and of a strategy cell, each run in its own step loop, plays
    # each half-inning on the same draw of its batch's generator, and rows
    # ordered by the half-inning's runs make a draw pick a like half-inning
    # in both.  One-game batches give each game's runs: 0.99 here, where
    # the two-plate-appearance step gave 0.90
    table = default_transition_table()
    runs = []
    for cell in ((Lineup.from_vectors(lineup.normals), always_normal, table),
                 (lineup, fixed_policy, table)):
        steps = mcengine._steps(mcengine.compile_simulation(
            *cell, innings=9, pa_cap=100))
        games = mcengine._simulate(steps, 99, [(i, 1) for i in range(4096)])
        runs.append([len(hist) - 1 for hist, *_ in games])
    assert np.corrcoef(runs)[0, 1] >= 0.95


# full RunStats (histogram, truncated, fallbacks, plate appearances) of two
# small runs, recorded from the engine: a kernel change that alters a byte
# of a run's output fails here, where comparing reruns would not show it
PINNED = {
    "bundled": ((512, 799, 1066, 1169, 1112, 938, 798, 609, 439, 326, 241,
                 161, 118, 79, 45, 28, 21, 10, 11, 5, 0, 3, 1, 0, 0, 1),
                0, 0, 341790),
    "empty-3-innings-cap-5": ((4764, 1888, 1087, 492, 188, 52, 15, 5, 1),
                              4547, 105076, 105076),
}


@pytest.mark.parametrize("case", PINNED)
def test_runs_match_pinned_output(lineup, case):
    n_games = 2 * mcengine.BATCH_SIZE + 300  # two batches and a tail
    if case == "bundled":
        table, limits = default_transition_table(), {}
    else:
        table, limits = TransitionTable(rows={}), dict(innings=3, pa_cap=5)
    stats = monte_carlo(lineup, fixed_policy, table, n_games, seed=2026,
                        **limits)
    assert (stats.histogram, stats.truncated_games, stats.fallback_transitions,
            stats.plate_appearances) == PINNED[case]


@pytest.fixture()
def no_shared_pool():
    """Start the test with no shared pool and stop the one it leaves."""
    mcengine.shutdown_pool()
    yield
    mcengine.shutdown_pool()


def test_one_pool_per_worker_count(monkeypatch, lineup, no_shared_pool):
    started, stopped, tasks = [], [], []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *, max_workers):
            super().__init__(max_workers=max_workers)
            self.size = max_workers
            started.append(max_workers)

        def map(self, fn, *columns, **kwargs):
            tasks.append(len(columns[0]))
            return super().map(fn, *columns, **kwargs)

        def shutdown(self, *args, **kwargs):
            stopped.append(self.size)
            super().shutdown(*args, **kwargs)

    table = default_transition_table()
    one = 100  # one batch
    two = mcengine.BATCH_SIZE + 100
    three = 2 * mcengine.BATCH_SIZE + 100
    serial = {n: monte_carlo(lineup, fixed_policy, table, n, seed=8)
              for n in (one, two, three)}
    # the pool class is looked up where the first parallel call starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 8)

    # calls of two and three batches at one worker count share one pool of
    # min(workers, cores), each with one task per batch
    for n in (two, three, two):
        assert monte_carlo(lineup, fixed_policy, table, n, seed=8,
                           workers=8) == serial[n]
    assert started == [8]
    assert tasks == [2, 3, 2]
    assert stopped == []

    # a one-batch call runs in place and leaves the pool as it is
    assert monte_carlo(lineup, fixed_policy, table, one, seed=8,
                       workers=8) == serial[one]
    assert (started, tasks, stopped) == ([8], [2, 3, 2], [])

    # a call at another worker count replaces the pool
    assert monte_carlo(lineup, fixed_policy, table, three, seed=8,
                       workers=2) == serial[three]
    assert (started, stopped) == ([8, 2], [8])

    # on one core every call runs in place, with no pool
    mcengine.shutdown_pool()
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 1)
    assert monte_carlo(lineup, fixed_policy, table, three, seed=8,
                       workers=8) == serial[three]
    assert (started, stopped) == ([8, 2], [8, 2])

    # a sweep's baseline and grid calls run on one pool
    normals = fitted_lineup().vectors
    params = default_converter_params()
    grids = dict(d_alpha_grid=(0.0, 0.1), d_woba_grid=(0.0, -0.005))
    serial_rows = run_strategy_grid(normals, params, table, n_games=three,
                                    seed=8, **grids)
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 8)
    started.clear()
    assert run_strategy_grid(normals, params, table, n_games=three, seed=8,
                             workers=8, **grids) == serial_rows
    assert started == [8]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [1, 2, 3, 5])
def test_cells_equal_each_cell_alone(monkeypatch, mixed_cells, cells_alone,
                                     n_cells, workers, no_shared_pool):
    # at 2 and 3 workers some cells' batches are split between two tasks
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 8)
    got = monte_carlo_cells(mixed_cells[:n_cells], CELL_GAMES, seed=21,
                            workers=workers, pa_cap=CELL_PA_CAP)
    assert got == cells_alone[:n_cells]


def test_no_cells_is_no_work():
    assert mcengine.run_cells([], innings=9, pa_cap=100, n_games=10, seed=1,
                              workers=2) == []


def _pickled_types(obj):
    """The types of the objects that pickling obj writes, builtin
    containers and scalars aside."""
    types = set()

    class Recording(pickle.Pickler):
        def reducer_override(self, o):
            types.add(type(o))
            return NotImplemented

    Recording(io.BytesIO()).dump(obj)
    return types


class InProcessPool:
    """Stands in for the process pool: runs a call's tasks one by one in
    this process, so a test sees every task's payload."""

    def __init__(self, *, max_workers):
        pass

    def map(self, fn, *columns):
        return map(fn, *columns)

    def shutdown(self, *args, **kwargs):
        pass


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("call", ["one cell", "cells"])
def test_each_cell_is_compiled_once_in_the_caller(monkeypatch, mixed_cells,
                                                  cells_alone, call, workers,
                                                  no_shared_pool):
    # a cell split between tasks is still compiled once, and tasks carry its
    # compiled rows, never its lineup or table
    compiled, payloads = [], []
    compile_cell, run_task = mcengine.compile_simulation, mcengine._run_task

    def counted_compile(*cell, **limits):
        compiled.append(cell)
        return compile_cell(*cell, **limits)

    def recorded_task(*task):
        payloads.append(task)
        return run_task(*task)

    monkeypatch.setattr(mcengine, "usable_cores", lambda: 8)
    monkeypatch.setattr(mcengine, "compile_simulation", counted_compile)
    monkeypatch.setattr(mcengine, "_run_task", recorded_task)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    n_cells = 1 if call == "one cell" else 3
    cells = mixed_cells[:n_cells]
    if call == "one cell":
        got = [monte_carlo(*cells[0], CELL_GAMES, seed=21, workers=workers,
                           pa_cap=CELL_PA_CAP)]
    else:
        got = monte_carlo_cells(cells, CELL_GAMES, seed=21, workers=workers,
                                pa_cap=CELL_PA_CAP)
    assert got == cells_alone[:n_cells]
    assert compiled == cells
    assert len(payloads) == min(workers, 2 * n_cells)  # two batches a cell
    for spans, *_ in payloads:
        assert {type(cell) for cell, _, _ in spans} == {mcengine.CompiledSim}
    types = _pickled_types(payloads)
    assert mcengine.CompiledSim in types
    assert not types & {Lineup, TransitionTable, TransitionEntry}


def test_a_cell_that_fails_to_compile_raises_in_the_caller(monkeypatch, lineup,
                                                            no_shared_pool):
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 2)
    table = default_transition_table()
    n_games = mcengine.BATCH_SIZE + 100
    cells = [(lineup, fixed_policy, table), (lineup, always_normal, table)]
    together = monte_carlo_cells(cells, n_games, seed=3, workers=2)
    pool, workers = mcengine._pool, multiprocessing.active_children()
    assert pool is not None and workers
    with pytest.raises(ValueError, match="24 choices, got 23"):
        monte_carlo_cells([*cells, (lineup, fixed_policy[:23], table)], n_games,
                          seed=3, workers=2)
    # no task started, so the shared pool runs on as it was
    assert mcengine._pool is pool
    assert all(p.is_alive() for p in workers)
    assert monte_carlo_cells(cells, n_games, seed=3, workers=2) == together
    assert mcengine._pool is pool


def _unpickled(maker, cell):
    """The cell, when the process that made it loads it; any other process
    that loads it is killed."""
    if os.getpid() != maker:
        os.kill(os.getpid(), signal.SIGKILL)
    return cell


class KilledInAWorker:
    """Stands in for a compiled cell.  Loading it in any process but the one
    that made it kills that process, as a worker dying mid-call would."""

    def __init__(self, cell):
        self.cell = cell
        self.maker = os.getpid()

    def __reduce__(self):
        return _unpickled, (self.maker, self.cell)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_pool_recovers_from_a_killed_worker(monkeypatch, lineup,
                                            no_shared_pool):
    monkeypatch.setattr(mcengine, "usable_cores", lambda: 2)
    table = default_transition_table()
    n_games = mcengine.BATCH_SIZE + 100
    serial = monte_carlo(lineup, fixed_policy, table, n_games, seed=3)
    assert monte_carlo(lineup, fixed_policy, table, n_games, seed=3,
                       workers=2) == serial

    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
    # the call that meets the broken pool may fail, and must stop that pool
    try:
        monte_carlo(lineup, fixed_policy, table, n_games, seed=3, workers=2)
    except BrokenProcessPool:
        pass
    assert monte_carlo(lineup, fixed_policy, table, n_games, seed=3,
                       workers=2) == serial
    assert victim.pid not in {p.pid for p in multiprocessing.active_children()}

    # a worker killed mid-call fails a multi-cell or one-cell call and stops
    # the pool; the next call, multi-cell or one-cell, starts afresh
    cells = [(lineup, fixed_policy, table), (lineup, always_normal, table)]
    together = monte_carlo_cells(cells, n_games, seed=3, workers=2)
    assert together == [monte_carlo(*cell, n_games, seed=3) for cell in cells]
    # the caller compiles the doomed lineup, equal to lineup but not it, into
    # a cell that kills the worker that loads it
    doomed = Lineup(lineup.slots)
    compile_cell = mcengine.compile_simulation

    def compile_simulation(cell_lineup, *rest, **limits):
        cell = compile_cell(cell_lineup, *rest, **limits)
        return KilledInAWorker(cell) if cell_lineup is doomed else cell

    monkeypatch.setattr(mcengine, "compile_simulation", compile_simulation)
    killers = (
        lambda: monte_carlo_cells([*cells, (doomed, fixed_policy, table)],
                                  n_games, seed=3, workers=2),
        # both tasks of a one-cell call carry its cell
        lambda: monte_carlo(doomed, fixed_policy, table, n_games, seed=3,
                            workers=2),
    )
    for kill, next_call in itertools.product(killers, ("cells", "one cell")):
        workers = multiprocessing.active_children()
        with pytest.raises(BrokenProcessPool):
            kill()
        assert mcengine._pool is None
        assert not any(p.is_alive() for p in workers)
        if next_call == "cells":
            assert monte_carlo_cells(cells, n_games, seed=3, workers=2) == together
        else:
            assert monte_carlo(lineup, fixed_policy, table, n_games, seed=3,
                               workers=2) == serial


def test_cli_import_loads_no_pool_module():
    # the first call that starts a pool imports it, so a command that runs
    # in place never pays for it; nor does it load synthdata, which the
    # CLI never uses
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, batsim.cli; print([m for m in ('multiprocessing',"
            " 'concurrent.futures.process', 'batsim.synthdata')"
            " if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_usable_cores_without_affinity(monkeypatch):
    assert mcengine.usable_cores() >= 1
    monkeypatch.delattr(mcengine.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mcengine.os, "cpu_count", lambda: None)
    assert mcengine.usable_cores() == 1
    monkeypatch.setattr(mcengine.os, "cpu_count", lambda: 6)
    assert mcengine.usable_cores() == 6
