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
    check_event,
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
