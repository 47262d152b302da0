"""Lineups, run statistics and monte_carlo.

The Monte Carlo engine is checked against the exact run distribution of the
chain it samples: (batting slot, base-out state) is a finite Markov chain
(Bukiet, Harold & Palacios, "A Markov Chain Approach to Baseball", 1997), so
P(game runs = r) can be computed by pushing probability mass through it.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batsim import mcengine
from batsim.abilities import LEAGUE_AVERAGE, AbilityVector
from batsim.defaults import (
    default_converter_params,
    default_transition_table,
    fitted_lineup,
)
from batsim.simulation import (
    MAX_GAME_RUNS,
    Lineup,
    RunStats,
    load_histogram_csv,
    monte_carlo,
)
from batsim.strategies import (
    StrategyChoice,
    StrategyTriple,
    always_normal,
    build_triple,
    fixed_policy,
    threshold_policy,
)
from batsim.sweeps import mean_batter
from batsim.synthdata import synthesize_event_log
from batsim.transitions import (
    INNING_OVER,
    NUM_LIVE_STATES,
    Outcome,
    TransitionTable,
    build_table,
    run_expectancy,
)
from conftest import ability_vectors

ALL_K = AbilityVector(0, 0, 0, 0, 0, 1.0, 0, 0)
ALL_HR = AbilityVector(0, 0, 0, 1.0, 0, 0, 0, 0)
HRK = AbilityVector(0, 0, 0, 0.1, 0, 0.9, 0, 0)

SIMPLE = TransitionTable.simple()

# A check against the exact distribution fails by chance with probability
# at most about 1e-6: |z| of the mean beyond the two-sided normal 1e-6
# point, or Pearson's chi-squared beyond its upper 1e-6 point.
Z_MAX = 4.892
Z_CHI2 = 4.753  # one-sided normal 1e-6 point, for the chi-squared bound


@pytest.fixture(scope="session")
def league_table():
    return build_table(synthesize_event_log(60_000, seed=501), min_count=5)


@pytest.fixture(scope="session")
def league_lineup():
    return Lineup.from_vectors([LEAGUE_AVERAGE] * 9)


@pytest.fixture(scope="module")
def converted_lineup():
    """The bundled lineup with its on-base and long-hit variants, so the
    policy's choice changes the batter."""
    params = default_converter_params()
    return Lineup(tuple(build_triple(v, params, 0.1, -0.005)
                        for v in fitted_lineup()))


def _half_innings(flow, ends, pa_cap, max_runs):
    """half[l, m, r]: P(a half-inning led off by slot l scores r runs and
    slot m leads off the next), for r <= max_runs; mass past max_runs is
    dropped."""
    n = max_runs + 1
    lead = np.arange(9)
    half = np.zeros((9, 9, n))
    mass = np.zeros((9, NUM_LIVE_STATES, n))  # [leadoff, state, runs so far]
    mass[:, 0, 0] = 1.0
    for t in range(pa_cap):
        slot = (lead + t) % 9
        new = np.zeros_like(mass)
        for k in range(flow.shape[1]):
            before = mass[:, :, :n - k]
            new[:, :, k:] += flow[slot, k] @ before
            half[lead, (lead + t + 1) % 9, k:] += np.einsum(
                "ls,lsr->lr", ends[slot, k], before)
        mass = new
    # an inning still live after pa_cap is capped: the next batter leads off
    half[lead, (lead + pa_cap) % 9] += mass.sum(axis=1)
    return half


def _game_runs(half, innings):
    """P(game runs = r) from the half-innings, over the runs half holds."""
    n = half.shape[2]
    game = np.zeros((9, n))  # [slot leading off the next inning, runs]
    game[0, 0] = 1.0
    for _ in range(innings):
        nxt = np.zeros_like(game)
        for r in range(n):
            nxt[:, r:] += np.tensordot(game[:, r], half[:, :, :n - r], axes=1)
        game = nxt
    return game.sum(axis=0)


def _chain(lineup, policy, table):
    """Per batting slot, flow[slot, k], the 24x24 live-to-live mass of a
    plate appearance that scores k runs, and ends[slot, k], the mass that
    ends the inning, walked entry by entry from the table."""
    key, post, runs, prob, _ = table.flat()
    state = key // 8
    outcome_p = np.array([[triple.vector(choice).as_tuple() for choice in policy]
                          for triple in lineup.slots])
    p = outcome_p[:, state, key % 8] * prob  # (slot, entry)
    live = post < INNING_OVER
    flow = np.zeros((9, int(runs.max()) + 1, NUM_LIVE_STATES, NUM_LIVE_STATES))
    ends = np.zeros((9, int(runs.max()) + 1, NUM_LIVE_STATES))
    for slot in range(9):
        np.add.at(flow[slot], (runs[live], post[live], state[live]), p[slot, live])
        np.add.at(ends[slot], (runs[~live], state[~live]), p[slot, ~live])
    return flow, ends


def _exact_run_distribution(lineup, policy, table, *, innings, pa_cap):
    """P(game runs = r), computed from the chain without compile_simulation
    or run_batches, so it checks both.

    The run cap starts at 80 and grows until the mass beyond it is below
    1e-9; no cap past the most runs a game can score is ever needed."""
    flow, ends = _chain(lineup, policy, table)
    most = (flow.shape[1] - 1) * pa_cap * innings
    max_runs = 80
    while True:
        dist = _game_runs(_half_innings(flow, ends, pa_cap, min(max_runs, most)),
                          innings)
        if 1.0 - dist.sum() < 1e-9 or max_runs >= most:
            break
        max_runs *= 4
    assert 1.0 - dist.sum() < 1e-9
    return dist


def _pooled_chi2(histogram, exact):
    """Pearson's chi-squared of a histogram against the exact distribution,
    over runs bins pooled left to right until each expects at least 5
    games; the tail past the last full bin joins it.  Returns (statistic,
    degrees of freedom)."""
    n = sum(histogram)
    size = max(len(histogram), exact.size)
    observed = np.zeros(size)
    observed[:len(histogram)] = histogram
    expected = np.zeros(size)
    expected[:exact.size] = n * exact
    starts, filled = [0], 0.0
    for r, e in enumerate(expected):
        filled += e
        if filled >= 5.0:
            starts.append(r + 1)
            filled = 0.0
    starts = starts[:-1]  # the last start opens the tail
    obs = np.add.reduceat(observed, starts)
    exp = np.add.reduceat(expected, starts)
    return float(np.sum((obs - exp) ** 2 / exp)), len(starts) - 1


def _chi2_bound(df):
    """Upper 1e-6 point of chi-squared with df degrees of freedom, by the
    Wilson-Hilferty cube-root approximation, which lies a little above the
    true point for every df >= 1."""
    return df * (1 - 2 / (9 * df) + Z_CHI2 * math.sqrt(2 / (9 * df))) ** 3


def _assert_matches_exact(stats, exact):
    r = np.arange(exact.size)
    mean = r @ exact
    sd = math.sqrt(r ** 2 @ exact - mean ** 2)
    z = (stats.mean - mean) / (sd / math.sqrt(stats.n_games))
    assert abs(z) < Z_MAX, f"mean {stats.mean} vs exact {mean}: z = {z:.2f}"
    chi2, df = _pooled_chi2(stats.histogram, exact)
    if df > 0:
        assert chi2 < _chi2_bound(df), f"chi-squared {chi2:.1f} on {df} df"


class TestLineup:
    def test_requires_nine_slots(self):
        with pytest.raises(ValueError):
            Lineup.from_vectors([LEAGUE_AVERAGE] * 8)
        with pytest.raises(ValueError):
            Lineup.from_vectors([LEAGUE_AVERAGE] * 10)

    def test_rejects_invalid_vectors(self):
        # no lineup can hold one: the vector fails when it is made
        with pytest.raises(ValueError, match="components sum to 0.9"):
            Lineup.from_vectors([LEAGUE_AVERAGE] * 8
                                + [AbilityVector(0.5, 0, 0, 0, 0, 0.4, 0, 0)])

    def test_rejects_non_triples(self):
        with pytest.raises(TypeError):
            Lineup(slots=tuple([LEAGUE_AVERAGE] * 9))

    def test_normals(self, league_lineup):
        assert tuple(t.normal for t in league_lineup.slots) == (LEAGUE_AVERAGE,) * 9

    def test_all_strikeout_lineup_is_legal(self):
        Lineup.from_vectors([ALL_K] * 9)


class TestRunStats:
    def test_moments_match_expanded_sample(self):
        hist = (5, 3, 2)
        stats = RunStats(hist)
        sample = np.repeat(np.arange(3), hist)
        assert stats.mean == pytest.approx(sample.mean(), abs=1e-15)
        assert stats.stderr == pytest.approx(
            sample.std(ddof=1) / math.sqrt(len(sample)), abs=1e-15)
        assert stats.stderr_defined

    def test_single_game_has_undefined_stderr(self):
        stats = RunStats((0, 1))
        assert stats.n_games == 1
        assert stats.stderr == 0.0
        assert not stats.stderr_defined

    def test_degenerate_histogram(self):
        stats = RunStats((1000,))
        assert stats.mean == 0.0
        assert stats.stderr == 0.0
        assert stats.stderr_defined

    def test_rejects_bad_histograms(self):
        with pytest.raises(ValueError):
            RunStats(())
        with pytest.raises(ValueError):
            RunStats((0, 0))
        with pytest.raises(ValueError):
            RunStats((3, -1))

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            RunStats((5, 3, 2), mean=9.0)

    def test_replace_recomputes_the_derived_fields(self):
        stats = dataclasses.replace(RunStats((5, 3, 2)), histogram=(0, 0, 4))
        assert (stats.n_games, stats.mean, stats.stderr) == (4, 2.0, 0.0)
        assert stats == RunStats((0, 0, 4))

    def test_json_round_trip(self, tmp_path):
        stats = RunStats((5, 3, 2), truncated_games=1, fallback_transitions=7,
                         plate_appearances=390)
        path = tmp_path / "stats.json"
        stats.save(path)
        # stderr: sqrt((11 - 10 * 0.7 ** 2) / 9 / 10)
        assert path.read_text() == (
            '{\n "n_games": 10,\n "mean": 0.7,\n "stderr": 0.2603416558635552,\n'
            ' "stderr_defined": true,\n "histogram": [\n  5,\n  3,\n  2\n ],\n'
            ' "truncated_games": 1,\n "fallback_transitions": 7,\n'
            ' "plate_appearances": 390\n}\n')
        assert json.loads(path.read_text()) == stats.to_json_dict()

    def test_csv_round_trip(self, tmp_path):
        stats = RunStats((5, 0, 2, 1))
        stats.save(tmp_path / "s.json", tmp_path / "s.csv")
        assert load_histogram_csv(tmp_path / "s.csv") == (5, 0, 2, 1)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("games,count\n0,5\n")
        with pytest.raises(ValueError):
            load_histogram_csv(path)

    def test_csv_rejects_a_row_that_is_not_two_cells(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row, cells in (("1,3,99", 3), ("1", 1), ("1,3,", 3)):
            path.write_text(f"runs,count\n0,5\n{row}\n2,2\n")
            with pytest.raises(ValueError, match=f"bad.csv:3: {cells} cells"):
                load_histogram_csv(path)
        path.write_text("runs,count\n0,5\n\n1,3\n")  # a blank line is skipped
        assert load_histogram_csv(path) == (5, 3)

    def test_csv_rejects_more_runs_than_a_game_can_score(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"runs,count\n0,5\n{MAX_GAME_RUNS},1\n")
        assert load_histogram_csv(path)[MAX_GAME_RUNS] == 1
        assert MAX_GAME_RUNS == 900
        for runs in (MAX_GAME_RUNS + 1, 10 ** 30):
            path.write_text(f"runs,count\n0,5\n{runs},1\n")
            with pytest.raises(ValueError, match=f"bad.csv:3: runs {runs} is"
                                                 " more than a game can score"):
                load_histogram_csv(path)

    def test_csv_rejects_a_runs_value_given_twice(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("runs,count\n0,5\n1,3\n1,2\n")
        with pytest.raises(ValueError, match="bad.csv:4: runs 1 again, first"
                                             " given on line 3"):
            load_histogram_csv(path)


class TestMonteCarlo:
    def test_argument_validation(self, league_lineup):
        with pytest.raises(ValueError):
            monte_carlo(league_lineup, always_normal, SIMPLE, 0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo(league_lineup, always_normal, SIMPLE, 10, seed=1, workers=0)
        with pytest.raises(ValueError):
            monte_carlo(league_lineup, always_normal, SIMPLE, 10, seed=-1)

    def test_all_strikeout_lineup_never_scores(self):
        lineup = Lineup.from_vectors([ALL_K] * 9)
        for innings in (9, 3):
            stats = monte_carlo(lineup, always_normal, SIMPLE, 5_000, seed=4,
                                innings=innings)
            assert stats.histogram == (5_000,)
            assert stats.mean == 0.0
            assert stats.plate_appearances == 3 * innings * 5_000
            assert stats.truncated_games == stats.fallback_transitions == 0

    def test_batting_order_carries_across_innings(self):
        # Three strikeouts an inning, except slot 3 homers: it bats in
        # innings 2, 4 and 7, so every game scores exactly 3 runs in 30 PA.
        # An inning that restarted the order, or lost its place, would not.
        lineup = Lineup.from_vectors([ALL_K] * 3 + [ALL_HR] + [ALL_K] * 5)
        stats = monte_carlo(lineup, always_normal, SIMPLE, 1_000, seed=3)
        assert stats.histogram == (0, 0, 0, 1_000)
        assert stats.plate_appearances == 30 * 1_000
        exact = _exact_run_distribution(lineup, always_normal, SIMPLE,
                                        innings=9, pa_cap=100)
        assert exact[3] == pytest.approx(1.0, abs=1e-12)

    def test_empty_table_falls_back_on_every_plate_appearance(self, league_lineup):
        stats = monte_carlo(league_lineup, always_normal,
                            TransitionTable(rows={}), 2_000, seed=12)
        assert stats.fallback_transitions == stats.plate_appearances > 27 * 2_000
        assert monte_carlo(league_lineup, always_normal, SIMPLE, 2_000,
                           seed=12).fallback_transitions == 0

    def test_histogram_accounts_for_every_game(self, league_lineup, league_table):
        stats = monte_carlo(league_lineup, always_normal, league_table, 9_000, seed=5)
        assert sum(stats.histogram) == stats.n_games == 9_000

    def test_mean_recomputed_from_histogram_matches_exactly(self, league_lineup, league_table):
        stats = monte_carlo(league_lineup, fixed_policy, league_table, 9_000, seed=6)
        total = sum(r * c for r, c in enumerate(stats.histogram))
        assert stats.mean == total / stats.n_games

    def test_same_seed_reproduces_byte_identical_stats(self, league_lineup, league_table):
        a = monte_carlo(league_lineup, always_normal, league_table, 9_000, seed=7)
        b = monte_carlo(league_lineup, always_normal, league_table, 9_000, seed=7)
        assert a == b
        c = monte_carlo(league_lineup, always_normal, league_table, 9_000, seed=8)
        assert a != c

    def test_worker_count_does_not_change_results(self, league_lineup, league_table):
        serial = monte_carlo(league_lineup, always_normal, league_table, 9_000, seed=9)
        parallel = monte_carlo(league_lineup, always_normal, league_table, 9_000,
                               seed=9, workers=2)
        assert serial == parallel

    def test_truncation_is_reported(self):
        lineup = Lineup.from_vectors([ALL_HR] * 9)
        stats = monte_carlo(lineup, always_normal, SIMPLE, 100, seed=11)
        assert stats.truncated_games == 100
        assert stats.mean == 900.0  # nine capped innings of 100 solo homers
        assert stats.plate_appearances == 900 * 100
        # the cap counts plate appearances per inning, not per game
        stats = monte_carlo(lineup, always_normal, SIMPLE, 100, seed=11,
                            innings=3, pa_cap=5)
        assert stats.histogram == (0,) * 15 + (100,)
        assert stats.plate_appearances == 15 * 100
        assert stats.truncated_games == 100

    # (id, table, policy, innings, pa_cap, games)
    EXACT_CASES = [
        ("bundled-fixed", "bundled", fixed_policy, 9, 100, 60_000),
        ("empty-truncated", "empty", fixed_policy, 3, 5, 20_000),
        ("innings-3", "bundled", always_normal, 3, 100, 20_000),
        # an odd cap that binds often: games one plate appearance short of
        # it step on one-PA rows, and many steps end the half-inning at
        # their first plate appearance
        ("bundled-cap-3", "bundled", fixed_policy, 3, 3, 20_000),
    ]

    @pytest.mark.parametrize("table_kind, policy, innings, pa_cap, n_games",
                             [c[1:] for c in EXACT_CASES],
                             ids=[c[0] for c in EXACT_CASES])
    def test_agrees_with_exact_distribution(self, converted_lineup, table_kind,
                                            policy, innings, pa_cap, n_games):
        table = (default_transition_table() if table_kind == "bundled"
                 else TransitionTable(rows={}))
        stats = monte_carlo(converted_lineup, policy, table, n_games, seed=10,
                            innings=innings, pa_cap=pa_cap)
        exact = _exact_run_distribution(converted_lineup, policy, table,
                                        innings=innings, pa_cap=pa_cap)
        _assert_matches_exact(stats, exact)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_stats_are_internally_consistent(seed):
    lineup = Lineup.from_vectors([HRK] * 9)
    stats = monte_carlo(lineup, always_normal, SIMPLE, 500, seed=seed)
    assert sum(stats.histogram) == 500
    assert stats.mean >= 0.0
    assert stats.stderr >= 0.0
    total = sum(r * c for r, c in enumerate(stats.histogram))
    assert stats.mean == total / 500


def _builder_case(name, converted_lineup):
    """(lineup, policy, table, innings, pa_cap) of a compiled-row check."""
    bundled = default_transition_table()
    if name == "bundled-threshold":
        re_table = run_expectancy(bundled, mean_batter(fitted_lineup()))
        values = sorted(re_table.values)
        return (converted_lineup, threshold_policy(values[16], values[7], re_table),
                bundled, 9, 100)
    if name == "bundled-fixed":
        return converted_lineup, fixed_policy, bundled, 9, 100
    if name == "empty-truncated":
        return converted_lineup, fixed_policy, TransitionTable(rows={}), 3, 5
    # only the leadoff strikeout of each inning falls back to the simple model
    rows = dict(SIMPLE.rows)
    del rows[(0, 0, Outcome.STRIKEOUT)]
    return (Lineup.from_vectors([ALL_K] * 9), always_normal,
            TransitionTable(rows=rows), 9, 100)


@pytest.mark.parametrize("case", ["bundled-fixed", "bundled-threshold",
                                  "empty-truncated", "fallback-heavy"])
def test_compiled_rows_are_the_exact_half_innings(converted_lineup, case):
    # each leadoff row, summed into (next leadoff, runs), is the oracle's
    # half-inning distribution; no draw is involved, so the check is exact
    lineup, policy, table, innings, pa_cap = _builder_case(case, converted_lineup)
    c = mcengine.compile_simulation(lineup, policy, table, innings=innings,
                                    pa_cap=pa_cap)
    flow, ends = _chain(lineup, policy, table)
    half = _half_innings(flow, ends, pa_cap, pa_cap)  # a run needs a PA
    mass = np.diff(c.cum, axis=1, prepend=0.0)
    runs, pa, _, _ = mcengine.unpack(c.count)
    for lead in range(9):
        got = np.zeros((9, pa_cap + 1))
        np.add.at(got, ((lead + pa[lead]) % 9, runs[lead]), mass[lead])
        np.testing.assert_allclose(got, half[lead], rtol=0, atol=1e-12)


def test_exact_one_inning_mean_is_the_run_expectancy(league_table):
    # the oracle's own check: one inning of one batter from the empty-bases,
    # no-out state scores on average its run expectancy, found by value
    # iteration instead of by pushing mass
    lineup = Lineup.from_vectors([LEAGUE_AVERAGE] * 9)
    exact = _exact_run_distribution(lineup, always_normal, league_table,
                                    innings=1, pa_cap=100)
    expected = run_expectancy(league_table, LEAGUE_AVERAGE).values[0]
    assert np.arange(exact.size) @ exact == pytest.approx(expected, abs=1e-9)


@st.composite
def chains(draw):
    """(lineup, policy, table, innings, pa_cap), with or without truncation."""
    slots = tuple(StrategyTriple(draw(ability_vectors()), draw(ability_vectors()),
                                 draw(ability_vectors())) for _ in range(9))
    policy = tuple(draw(st.lists(st.sampled_from(StrategyChoice),
                                 min_size=NUM_LIVE_STATES,
                                 max_size=NUM_LIVE_STATES)))
    kind = draw(st.sampled_from(("synthetic", "empty", "simple")))
    if kind == "synthetic":
        # estimated from a short log: rows unlike the bundled ones, and the
        # keys it never saw fall back
        events = synthesize_event_log(draw(st.integers(300, 3_000)),
                                      seed=draw(st.integers(0, 2**16)))
        table = build_table(events, min_count=5)
    else:
        table = TransitionTable(rows={}) if kind == "empty" else SIMPLE
    innings = draw(st.integers(1, 9))
    pa_cap = draw(st.one_of(st.just(100), st.integers(1, 6)))
    return Lineup(slots), policy, table, innings, pa_cap


@settings(max_examples=20, deadline=None, derandomize=True)
@given(chain=chains(), seed=st.integers(0, 2**31 - 1))
def test_monte_carlo_matches_the_exact_distribution(chain, seed):
    lineup, policy, table, innings, pa_cap = chain
    stats = monte_carlo(lineup, policy, table, 8_192, seed=seed,
                        innings=innings, pa_cap=pa_cap)
    exact = _exact_run_distribution(lineup, policy, table,
                                    innings=innings, pa_cap=pa_cap)
    _assert_matches_exact(stats, exact)
