import io
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batsim.abilities import LEAGUE_AVERAGE, AbilityVector
from batsim.defaults import default_transition_table, fitted_lineup
from batsim.sweeps import mean_batter
from batsim.transitions import (
    EVENT_CSV_HEADER,
    INNING_OVER,
    NUM_LIVE_STATES,
    OUTCOMES,
    EventLogError,
    GameState,
    NonAbsorbingError,
    Outcome,
    TransitionEntry,
    TransitionEvent,
    TransitionTable,
    TransitionTableError,
    _runner_count,
    build_table,
    check_event,
    live_states,
    parse_event_log,
    run_expectancy,
    simple_transition,
)
from batsim.synthdata import synthesize_event_log

HEADER = ",".join(EVENT_CSV_HEADER)


def _log(*rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


@pytest.fixture(scope="session")
def synthetic_table():
    return build_table(synthesize_event_log(40_000, seed=11), min_count=5)


class TestGameState:
    def test_bounds(self):
        with pytest.raises(ValueError):
            GameState(4, 0)
        with pytest.raises(ValueError):
            GameState(0, 8)
        with pytest.raises(ValueError):
            GameState(-1, 0)

    def test_flat_index_is_bijective_on_live_states(self):
        states = live_states()
        assert len(states) == 24
        assert sorted(s.index for s in states) == list(range(24))

    def test_inning_over(self):
        assert GameState(3, 5).is_over
        assert GameState(3, 5).index == 24
        assert not GameState(2, 7).is_over

    def test_runner_count(self):
        # the count check_event balances: one per set bit of the mask
        assert [_runner_count(b) for b in range(8)] == [0, 1, 1, 2, 1, 2, 2, 3]


def _simple_oracle(outs, bases, outcome):
    """Independent re-statement of the minimal advancement rules using
    explicit runner position lists."""
    runners = [b for b in (1, 2, 3) if bases & (1 << (b - 1))]
    if outcome in (Outcome.STRIKEOUT, Outcome.GROUND_OUT, Outcome.FLY_OUT):
        return outs + 1, bases, 0
    if outcome is Outcome.WALK:
        occupied = set(runners)
        forced, base = [], 1
        while base in occupied and base <= 3:
            forced.append(base)
            base += 1
        runs = 0
        final = occupied - set(forced)
        for b in forced:
            if b + 1 > 3:
                runs += 1
            else:
                final.add(b + 1)
        final.add(1)
        mask = sum(1 << (b - 1) for b in final)
        return outs, mask, runs
    n = {Outcome.SINGLE: 1, Outcome.DOUBLE: 2, Outcome.TRIPLE: 3,
         Outcome.HOME_RUN: 4}[outcome]
    moved = [r + n for r in runners] + [n]
    runs = sum(1 for b in moved if b > 3)
    mask = sum(1 << (b - 1) for b in moved if b <= 3)
    return outs, mask, runs


class TestSimpleTransition:
    def test_matches_oracle_everywhere(self):
        for state in live_states():
            for outcome in OUTCOMES:
                post, runs = simple_transition(state, outcome)
                expected = _simple_oracle(state.outs, state.bases, outcome)
                assert (post.outs, post.bases, runs) == expected, (state, outcome)

    def test_rejects_finished_inning(self):
        with pytest.raises(ValueError):
            simple_transition(GameState(3, 0), Outcome.SINGLE)

    def test_spot_checks(self):
        # Bases-loaded walk forces in exactly one run.
        post, runs = simple_transition(GameState(1, 7), Outcome.WALK)
        assert (post.outs, post.bases, runs) == (1, 7, 1)
        # Grand slam.
        post, runs = simple_transition(GameState(2, 7), Outcome.HOME_RUN)
        assert (post.outs, post.bases, runs) == (2, 0, 4)
        # Double with a runner on first: station-to-station, no run.
        post, runs = simple_transition(GameState(0, 1), Outcome.DOUBLE)
        assert (post.outs, post.bases, runs) == (0, 6, 0)
        # Third strikeout strands everyone.
        post, runs = simple_transition(GameState(2, 6), Outcome.STRIKEOUT)
        assert (post.outs, post.bases, runs) == (3, 6, 0)

    def test_conservation_everywhere(self):
        for state in live_states():
            for outcome in OUTCOMES:
                post, runs = simple_transition(state, outcome)
                assert check_event(state.outs, state.bases, outcome,
                                   post.outs, post.bases, runs) is None


class TestParseEventLog:
    def test_accepts_valid_rows(self):
        events, rejected = parse_event_log(_log(
            "0,0,SINGLE,0,1,0",
            "0,1,BB,0,3,0",
            "0,3,HR,0,0,3",
            "0,0,K,1,0,0",
            "2,6,FO,3,6,0",
        ))
        assert len(events) == 5
        assert rejected == []
        assert events[2].runs == 3

    def test_solo_homer_is_conserved(self):
        events, _ = parse_event_log(_log("0,0,HR,0,0,1"))
        assert events[0].outcome is Outcome.HOME_RUN

    def test_single_from_empty_cannot_score_two(self):
        with pytest.raises(EventLogError, match="line 2: conservation"):
            parse_event_log(_log("0,0,SINGLE,0,0,2"))

    def test_single_from_empty_cannot_score_three_either(self):
        with pytest.raises(EventLogError, match="line 2: conservation"):
            parse_event_log(_log("0,0,SINGLE,0,0,3"))

    def test_walk_cannot_record_an_out(self):
        # Conserved (runner traded for an out) but illegal for a walk.
        with pytest.raises(EventLogError, match="line 2: a walk cannot record an out"):
            parse_event_log(_log("0,1,BB,1,1,0"))

    def test_walk_cannot_force_two_runs(self):
        with pytest.raises(EventLogError, match="line 2: a walk can force in at most one run"):
            parse_event_log(_log("0,7,BB,0,3,2"))

    def test_outs_cannot_decrease(self):
        with pytest.raises(EventLogError, match="line 2: outs decreased from 2 to 1"):
            parse_event_log(_log("2,0,SINGLE,1,1,1"))

    def test_unknown_outcome_code(self):
        with pytest.raises(EventLogError, match="line 2: unknown outcome code 'BUNT'"):
            parse_event_log(_log("0,0,BUNT,0,1,0"))

    def test_malformed_rows(self):
        with pytest.raises(EventLogError, match="line 2: expected 6 fields, got 5"):
            parse_event_log(_log("0,0,SINGLE,0,1"))
        with pytest.raises(EventLogError, match="line 2: non-integer field"):
            parse_event_log(_log("x,0,SINGLE,0,1,0"))

    def test_bad_header(self):
        with pytest.raises(EventLogError, match="line 1: expected header"):
            parse_event_log(io.StringIO("a,b,c,d,e,f\n0,0,K,1,0,0\n"))

    def test_empty_input(self):
        with pytest.raises(EventLogError, match="event log is empty"):
            parse_event_log(io.StringIO(""))
        with pytest.raises(EventLogError, match="event log has a header but no rows"):
            parse_event_log(io.StringIO(HEADER + "\n"))

    def test_lenient_mode_collects_line_numbers(self):
        events, rejected = parse_event_log(_log(
            "0,0,SINGLE,0,1,0",
            "0,0,SINGLE,0,0,2",
            "0,0,XX,0,1,0",
            "1,0,K,2,0,0",
        ), strict=False)
        assert len(events) == 2
        assert [line for line, _ in rejected] == [3, 4]

    def test_pre_state_must_be_live(self):
        with pytest.raises(EventLogError, match="line 2: outs_pre must be 0..2, got 3"):
            parse_event_log(_log("3,0,K,3,0,0"))


class TestBuildTable:
    def test_empirical_counts(self):
        events = [TransitionEvent(0, 0, Outcome.SINGLE, 0, 1, 0)] * 3
        events += [TransitionEvent(0, 0, Outcome.SINGLE, 0, 2, 0)]
        table = build_table(events, min_count=0)
        row = table.rows.get((0, 0, Outcome.SINGLE))
        assert {(e.outs, e.bases, e.runs): e.prob for e in row} == {
            (0, 1, 0): 0.75,
            (0, 2, 0): 0.25,
        }

    def test_sparse_rows_blend_with_simple_model(self):
        # Two observations, both to second base; the simple model says first.
        events = [TransitionEvent(0, 0, Outcome.SINGLE, 0, 2, 0)] * 2
        table = build_table(events, min_count=5)
        row = {(e.outs, e.bases, e.runs): e.prob for e in table.rows[(0, 0, Outcome.SINGLE)]}
        assert row == {(0, 2, 0): 0.5, (0, 1, 0): 0.5}

    def test_blend_merges_agreeing_destinations(self):
        events = [TransitionEvent(0, 0, Outcome.SINGLE, 0, 1, 0),
                  TransitionEvent(0, 0, Outcome.SINGLE, 0, 1, 0),
                  TransitionEvent(0, 0, Outcome.SINGLE, 0, 2, 0),
                  TransitionEvent(0, 0, Outcome.SINGLE, 0, 2, 0)]
        table = build_table(events, min_count=5)
        row = {(e.outs, e.bases, e.runs): e.prob for e in table.rows[(0, 0, Outcome.SINGLE)]}
        assert row == {(0, 1, 0): 0.75, (0, 2, 0): 0.25}

    def test_no_events_rejected(self):
        with pytest.raises(EventLogError, match="no events to build a table from"):
            build_table([], min_count=0)

    def test_rows_are_proper_distributions(self, synthetic_table):
        assert len(synthetic_table.rows) > 0
        for (outs, bases, outcome), entries in synthetic_table.rows.items():
            total = math.fsum(e.prob for e in entries)
            assert total == pytest.approx(1.0, abs=1e-12)
            for e in entries:
                assert check_event(outs, bases, outcome, e.outs, e.bases, e.runs) is None

    def test_near_full_coverage_from_large_synthetic_log(self, synthetic_table):
        # Rare corners (two-out triples from loaded bases) may go unseen,
        # but the bread-and-butter rows must all be there.
        assert synthetic_table.coverage > 0.9
        for bases in range(8):
            for outs in range(3):
                assert synthetic_table.rows.get((outs, bases, Outcome.SINGLE)) is not None


class TestTableSerialization:
    def test_round_trip(self, tmp_path, synthetic_table):
        path = tmp_path / "table.json"
        synthetic_table.save(path)
        loaded = TransitionTable.load(path)
        assert loaded.rows == synthetic_table.rows

    def test_key_format(self, synthetic_table):
        obj = synthetic_table.to_json_obj()
        assert "0-0-SINGLE" in obj
        entry = obj["0-0-SINGLE"][0]
        assert set(entry) == {"outs", "bases", "runs", "p"}

    def test_rejects_bad_probability_sum(self):
        obj = {"0-0-K": [{"outs": 1, "bases": 0, "runs": 0, "p": 0.9}]}
        with pytest.raises(ValueError):
            TransitionTable.from_json_obj(obj)
        # a NaN probability fails every comparison: it is not positive
        with pytest.raises(TransitionTableError, match="non-positive"):
            TransitionTable.from_json_obj(json.loads(
                '{"0-0-K": [{"outs": 1, "bases": 0, "runs": 0, "p": NaN}]}'))

    def test_rejects_conservation_violations(self):
        obj = {"0-0-SINGLE": [{"outs": 0, "bases": 0, "runs": 2, "p": 1.0}]}
        with pytest.raises(TransitionTableError, match="^0-0-SINGLE: conservation"):
            TransitionTable.from_json_obj(obj)

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            TransitionTable.from_json_obj({"nonsense": []})
        with pytest.raises(ValueError):
            TransitionTable.from_json_obj({"3-0-K": [{"outs": 3, "bases": 0, "runs": 0, "p": 1.0}]})


ALL_HOMERS = AbilityVector(0, 0, 0, 1.0, 0, 0, 0, 0)
HOMER_OR_K = AbilityVector(0, 0, 0, 0.1, 0, 0.9, 0, 0)


class TestRunExpectancy:
    def test_homer_or_strikeout_closed_form(self):
        """With only solo homers (p) and strikeouts, the expected runs from
        n outs solve r_n = p(1 + r_n) + q r_{n+1}: a geometric series giving
        (p/q)^k ... for p=0.1: 1/3, 2/9, 1/9 from 0, 1, 2 outs."""
        re = run_expectancy(TransitionTable.simple(), HOMER_OR_K)
        assert re.value(GameState(0, 0)) == pytest.approx(1 / 3, abs=1e-9)
        assert re.value(GameState(1, 0)) == pytest.approx(2 / 9, abs=1e-9)
        assert re.value(GameState(2, 0)) == pytest.approx(1 / 9, abs=1e-9)

    def test_all_strikeout_batter_has_zero_expectancy(self):
        batter = AbilityVector(0, 0, 0, 0, 0, 1.0, 0, 0)
        re = run_expectancy(TransitionTable.simple(), batter)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in re.values)

    def test_never_ending_inning_raises(self):
        with pytest.raises(NonAbsorbingError):
            run_expectancy(TransitionTable.simple(), ALL_HOMERS)

    def test_nearly_never_ending_inning_is_finite(self):
        """One strikeout in a million plate appearances still ends the
        inning: r_n = p/q + r_{n+1} gives 3p/q, 2p/q, p/q runs from 0, 1, 2
        outs, which value iteration would need millions of sweeps to reach."""
        q = 1e-6
        re = run_expectancy(TransitionTable.simple(),
                            AbilityVector(0, 0, 0, 1.0 - q, 0, q, 0, 0))
        for outs in range(3):
            assert re.value(GameState(outs, 0)) == pytest.approx(
                (3 - outs) * (1.0 - q) / q, rel=1e-9)

    def test_more_outs_never_help(self, synthetic_table):
        re = run_expectancy(synthetic_table, LEAGUE_AVERAGE)
        for bases in range(8):
            assert re.value(GameState(0, bases)) > re.value(GameState(1, bases))
            assert re.value(GameState(1, bases)) > re.value(GameState(2, bases))

    def test_more_runners_never_hurt(self, synthetic_table):
        re = run_expectancy(synthetic_table, LEAGUE_AVERAGE)
        for outs in range(3):
            for bases in range(8):
                for bit in (1, 2, 4):
                    if not bases & bit:
                        with_runner = re.value(GameState(outs, bases | bit))
                        assert with_runner > re.value(GameState(outs, bases))

    def test_empty_table_uses_simple_fallback(self):
        re_fallback = run_expectancy(TransitionTable(rows={}), LEAGUE_AVERAGE)
        re_simple = run_expectancy(TransitionTable.simple(), LEAGUE_AVERAGE)
        assert re_fallback.values == pytest.approx(re_simple.values, abs=1e-9)

    def test_value_is_zero_after_three_outs(self, synthetic_table):
        re = run_expectancy(synthetic_table, LEAGUE_AVERAGE)
        assert re.value(GameState(3, 5)) == 0.0


TABLES = {"bundled": default_transition_table,
          "empty": lambda: TransitionTable(rows={}),
          "simple": TransitionTable.simple}


def test_pickled_table_keeps_its_entries():
    # the engine never pickles a table, but a table is plain data that
    # round-trips through pickle with its entries whole
    table = default_transition_table()
    again = pickle.loads(pickle.dumps(table))
    assert again.rows == table.rows
    assert {type(e) for row in again.rows.values() for e in row} == {TransitionEntry}


class TestLookup:
    def test_observed_key_returns_its_row(self, synthetic_table):
        key = (1, 3, Outcome.DOUBLE)
        entries, fell_back = synthetic_table.lookup(GameState(1, 3), Outcome.DOUBLE)
        assert entries is synthetic_table.rows[key]
        assert fell_back is False

    def test_missing_key_falls_back_to_simple_point_mass(self):
        state = GameState(2, 5)
        for outcome in OUTCOMES:
            entries, fell_back = TransitionTable(rows={}).lookup(state, outcome)
            post, runs = simple_transition(state, outcome)
            assert entries == (TransitionEntry(post.outs, post.bases, runs, 1.0),)
            assert fell_back is True

    @pytest.mark.parametrize("name", ["bundled", "empty", "simple", "synthetic"])
    def test_flat_marks_exactly_the_missing_keys(self, name, synthetic_table):
        table = synthetic_table if name == "synthetic" else TABLES[name]()
        key, post, runs, prob, fell_back = table.flat()
        for k in range(NUM_LIVE_STATES * 8):
            state = live_states()[k // 8]
            at = key == k
            observed = (state.outs, state.bases, OUTCOMES[k % 8]) in table.rows
            assert at.any()
            assert np.all(fell_back[at] == (not observed))
            assert math.fsum(prob[at]) == pytest.approx(1.0, rel=0, abs=1e-12)
        assert np.all((post >= 0) & (post <= INNING_OVER))
        assert np.all(runs >= 0)

    def test_flat_walks_the_chain_once(self):
        # every call returns the arrays of the first walk, read-only, so no
        # reader can change what the next one sees
        table = TransitionTable(rows=dict(default_transition_table().rows))
        first = table.flat()
        assert all(a is b for a, b in zip(table.flat(), first))
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]


def _replayed_run_expectancy(table, batter):
    """Reference run expectancy with its own walk over (state, outcome,
    entry), which skips zero-probability outcomes, and the same linear
    solve.  run_expectancy adds those outcomes as exact 0.0 terms, so the
    two build bit-identical matrices and must agree bit for bit."""
    probs = batter.as_tuple()
    src, post, runs, p = [], [], [], []
    for state in live_states():
        for outcome, p_outcome in zip(OUTCOMES, probs):
            if p_outcome <= 0.0:
                continue
            entries = table.rows.get((state.outs, state.bases, outcome))
            if entries is None:
                s2, r = simple_transition(state, outcome)
                entries = (TransitionEntry(s2.outs, s2.bases, r, 1.0),)
            for e in entries:
                src.append(state.index)
                post.append(INNING_OVER if e.outs >= 3 else e.outs * 8 + e.bases)
                runs.append(e.runs)
                p.append(p_outcome * e.prob)
    src, post = np.array(src), np.array(post)
    runs, p = np.array(runs, dtype=float), np.array(p, dtype=float)
    b = np.zeros(NUM_LIVE_STATES)
    np.add.at(b, src, p * runs)
    m = np.zeros((NUM_LIVE_STATES, NUM_LIVE_STATES))
    alive = post < INNING_OVER
    np.add.at(m, (src[alive], post[alive]), p[alive])
    return tuple(np.linalg.solve(np.eye(NUM_LIVE_STATES) - m, b).tolist())


@pytest.mark.parametrize("batter_name", ["league", "homer-or-k", "mean-lineup"])
@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_run_expectancy_replays_bit_for_bit(table_name, batter_name):
    table = TABLES[table_name]()
    batter = {"league": LEAGUE_AVERAGE, "homer-or-k": HOMER_OR_K,
              "mean-lineup": mean_batter(fitted_lineup())}[batter_name]
    assert run_expectancy(table, batter).values == _replayed_run_expectancy(table, batter)


@settings(max_examples=200)
@given(
    outs=st.integers(0, 2),
    bases=st.integers(0, 7),
    outcome=st.sampled_from(OUTCOMES),
)
def test_simple_transition_conserves_everyone(outs, bases, outcome):
    post, runs = simple_transition(GameState(outs, bases), outcome)
    assert check_event(outs, bases, outcome, post.outs, post.bases, runs) is None
