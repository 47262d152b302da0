import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batsim.abilities import LEAGUE_AVERAGE
from batsim import synthdata
from batsim.synthdata import (
    stochastic_transition,
    synthesize_event_log,
)
from batsim.transitions import (
    OUTCOMES,
    GameState,
    Outcome,
    TransitionEntry,
    TransitionTable,
    build_table,
    check_event,
    live_states,
    parse_event_log,
    write_event_csv,
)


@settings(max_examples=300)
@given(
    outs=st.integers(0, 2),
    bases=st.integers(0, 7),
    outcome=st.sampled_from(OUTCOMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_branch_conserves_runners(outs, bases, outcome, seed):
    rng = np.random.default_rng(seed)
    state = GameState(outs, bases)
    post, runs = stochastic_transition(state, outcome, rng)
    assert check_event(outs, bases, outcome, post.outs, post.bases, runs) is None


def test_rejects_finished_inning():
    with pytest.raises(ValueError):
        stochastic_transition(GameState(3, 0), Outcome.SINGLE, np.random.default_rng(0))


def test_walks_never_add_outs_and_score_at_most_one():
    rng = np.random.default_rng(5)
    for bases in range(8):
        for _ in range(50):
            post, runs = stochastic_transition(GameState(1, bases), Outcome.WALK, rng)
            assert post.outs == 1
            assert runs == (1 if bases == 7 else 0)


def test_strikeout_is_pure():
    rng = np.random.default_rng(5)
    post, runs = stochastic_transition(GameState(0, 7), Outcome.STRIKEOUT, rng)
    assert (post.outs, post.bases, runs) == (1, 7, 0)


class TestAdvancementModel:
    def test_default_is_valid(self):
        m = synthdata
        groups = (
            (m.SINGLE_SECOND_SCORES, m.SINGLE_SECOND_THROWN_OUT),
            (m.SINGLE_FIRST_TO_THIRD, m.SINGLE_FIRST_THROWN_OUT),
            (m.DOUBLE_FIRST_SCORES, m.DOUBLE_FIRST_THROWN_OUT),
            (m.GROUND_DOUBLE_PLAY, m.GROUND_FORCE_AT_SECOND),
            (m.GROUND_REACH_ERROR,), (m.GROUND_RUNNERS_ADVANCE,),
            (m.FLY_REACH_ERROR,), (m.FLY_THIRD_TAGS,), (m.FLY_SECOND_TAGS,),
        )
        for group in groups:
            assert all(p >= 0.0 for p in group) and sum(group) < 1.0, group

    def test_zeroed_model_reduces_toward_station_to_station(self):
        class NoBranchTaken:
            """Every draw lands past every branch: runners move station
            to station."""

            def random(self):
                return 0.999

        rng = NoBranchTaken()
        post, runs = stochastic_transition(GameState(0, 3), Outcome.SINGLE, rng)
        assert (post.outs, post.bases, runs) == (0, 7, 0)
        post, runs = stochastic_transition(GameState(0, 1), Outcome.GROUND_OUT, rng)
        assert (post.outs, post.bases, runs) == (1, 1, 0)


class TestSynthesizeEventLog:
    def test_deterministic_in_seed(self):
        a = synthesize_event_log(500, seed=42)
        b = synthesize_event_log(500, seed=42)
        assert a == b
        c = synthesize_event_log(500, seed=43)
        assert a != c

    def test_innings_chain_correctly(self):
        events = synthesize_event_log(2_000, seed=9)
        assert (events[0].outs_pre, events[0].bases_pre) == (0, 0)
        for prev, cur in zip(events, events[1:]):
            if prev.outs_post >= 3:
                assert (cur.outs_pre, cur.bases_pre) == (0, 0)
            else:
                assert (cur.outs_pre, cur.bases_pre) == (prev.outs_post, prev.bases_post)

    def test_every_event_is_conserved(self):
        for e in synthesize_event_log(5_000, seed=3):
            assert check_event(e.outs_pre, e.bases_pre, e.outcome,
                               e.outs_post, e.bases_post, e.runs) is None

    def test_outcome_mix_tracks_batter(self):
        n = 30_000
        events = synthesize_event_log(n, seed=17)
        probs = dict(zip(OUTCOMES, LEAGUE_AVERAGE.as_tuple()))
        for outcome, p in probs.items():
            observed = sum(1 for e in events if e.outcome is outcome) / n
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(observed - p) < 5 * sigma + 1e-9, outcome

    def test_run_rate_is_plausible(self):
        events = synthesize_event_log(50_000, seed=23)
        innings = sum(1 for e in events if e.outs_post >= 3)
        runs = sum(e.runs for e in events)
        assert 0.30 < runs / innings < 0.75

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            synthesize_event_log(0, seed=1)

    def test_csv_round_trip(self, tmp_path):
        events = synthesize_event_log(1_000, seed=8)
        path = tmp_path / "events.csv"
        write_event_csv(events, path)
        assert parse_event_log(path) == (events, [])


# ---------------------------------------------------------------- exact table

class _Uniform:
    """A draw known only to lie in [lo, hi).  A comparison with a constant
    inside the interval takes the side its walker names and narrows the
    interval to that side."""

    def __init__(self, walker):
        self.lo, self.hi, self.walker = 0.0, 1.0, walker

    def __lt__(self, c):
        if not self.lo < c < self.hi:
            return c >= self.hi
        below = self.walker.side()
        self.lo, self.hi = (self.lo, c) if below else (c, self.hi)
        return below


class _Walker:
    """A stand-in generator whose draws are _Uniforms.  The comparisons
    that split a draw take the sides in script, then the lower side."""

    def __init__(self, script):
        self.script, self.sides, self.draws = script, [], []

    def side(self) -> bool:
        i = len(self.sides)
        self.sides.append(self.script[i] if i < len(self.script) else True)
        return self.sides[-1]

    def random(self):
        self.draws.append(_Uniform(self))
        return self.draws[-1]


def _exact_row(state, outcome) -> dict:
    """{(outs, bases, runs): probability} of one plate appearance: a
    depth-first walk over every interval between the branch constants
    that each draw is compared with.  A path's probability is the product
    of its draws' interval widths."""
    row, scripts = {}, [[]]
    while scripts:
        script = scripts.pop()
        walker = _Walker(script)
        post, runs = stochastic_transition(state, outcome, walker)
        # the upper side of each comparison past the script is one more path
        scripts += [walker.sides[:i] + [False]
                    for i in range(len(script), len(walker.sides))]
        dest = (post.outs, post.bases, runs)
        row[dest] = row.get(dest, 0.0) + math.prod(d.hi - d.lo for d in walker.draws)
    return row


@pytest.fixture(scope="module")
def exact_rows():
    return {(s.outs, s.bases, outcome): _exact_row(s, outcome)
            for s in live_states() for outcome in OUTCOMES}


def test_exact_rows_form_a_transition_table(exact_rows):
    table = TransitionTable(rows={
        key: tuple(TransitionEntry(*dest, p) for dest, p in sorted(row.items()))
        for key, row in exact_rows.items()})
    assert len(table.rows) == 192
    assert sum(len(entries) for entries in table.rows.values()) == 360


def _binomial_tails(n: int, p: float, c: int) -> tuple[float, float]:
    """P(X <= c) and P(X >= c) for X ~ Binomial(n, p), 0 < p < 1."""
    k = np.arange(n)
    log_ratio = np.log((n - k) / (k + 1)) + math.log(p / (1 - p))
    pmf = np.exp(n * math.log1p(-p) + np.concatenate([[0.0], np.cumsum(log_ratio)]))
    return float(pmf[:c + 1].sum()), float(pmf[c:].sum())


MIN_EVENTS = 100


def test_sampled_table_agrees_with_the_exact_one(exact_rows):
    """Every (key, destination) of each row with at least MIN_EVENTS
    events passes a two-sided exact binomial test at 1e-6 over the number
    of comparisons (Bonferroni), so the whole test fails by chance with
    probability at most 1e-6.  An exact test, not Z_MAX on a z score, as
    many destinations expect fewer than one event in a row."""
    events = synthesize_event_log(40_000, seed=2)
    n = Counter((e.outs_pre, e.bases_pre, e.outcome) for e in events)
    table = build_table(events, min_count=MIN_EVENTS)
    observed = {key: {(e.outs, e.bases, e.runs): round(e.prob * n[key]) for e in entries}
                for key, entries in table.rows.items() if n[key] >= MIN_EVENTS}
    compared = [(key, dest) for key, row in observed.items()
                for dest in row.keys() | exact_rows[key].keys()]
    assert len(observed) >= 60  # of the 192 rows, those 40,000 events fill
    alpha = 1e-6 / len(compared)
    for key, dest in compared:
        p, c = exact_rows[key].get(dest, 0.0), observed[key].get(dest, 0)
        if not 0.0 < p < 1.0:
            assert c == n[key] * p, (key, dest)
            continue
        assert min(_binomial_tails(n[key], p, c)) > alpha / 2, (key, dest, c, n[key] * p)
