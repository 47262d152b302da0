import dataclasses

import pytest

from batsim.abilities import AbilityVector, onbase_share
from batsim.strategies import (
    ORDERING_SLACK,
    StrategyChoice,
    StrategyTriple,
    always_normal,
    fixed_policy,
    threshold_policy,
)
from batsim.transitions import RunExpectancyTable, live_states

N, O, L = StrategyChoice.NORMAL, StrategyChoice.ON_BASE, StrategyChoice.LONG_HIT

# The fixed rule, written out exhaustively: on-base with nobody out or a
# runner on second or third; long-hit with two outs and nobody past first.
FIXED_EXPECTED = {
    (0, 0): O, (0, 1): O, (0, 2): O, (0, 3): O, (0, 4): O, (0, 5): O, (0, 6): O, (0, 7): O,
    (1, 0): N, (1, 1): N, (1, 2): O, (1, 3): O, (1, 4): O, (1, 5): O, (1, 6): O, (1, 7): O,
    (2, 0): L, (2, 1): L, (2, 2): O, (2, 3): O, (2, 4): O, (2, 5): O, (2, 6): O, (2, 7): O,
}


def test_fixed_policy_full_table():
    assert len(fixed_policy) == 24
    for state in live_states():
        assert fixed_policy[state.index] is FIXED_EXPECTED[(state.outs, state.bases)], state


def test_always_normal():
    assert always_normal == (N,) * 24


class TestThresholdPolicy:
    # Expectancy rises with the flat state index: values 0.0, 0.1, ... 2.3.
    RE = RunExpectancyTable(values=tuple(i / 10 for i in range(24)))

    def test_config_requires_gap(self):
        with pytest.raises(ValueError, match=r"theta_l \(0.5\) must be below theta_o"):
            threshold_policy(0.5, 0.5, self.RE)
        with pytest.raises(ValueError, match=r"theta_l \(0.9\) must be below theta_o"):
            threshold_policy(0.3, 0.9, self.RE)
        threshold_policy(0.9, 0.3, self.RE)

    def test_regions(self):
        policy = threshold_policy(1.5, 0.4, self.RE)
        assert len(policy) == 24
        chosen = [policy[s.index] for s in live_states()]
        for state, choice in zip(live_states(), chosen):
            value = self.RE.value(state)
            if value >= 1.5:
                assert choice is O
            elif value <= 0.4:
                assert choice is L
            else:
                assert choice is N
        assert O in chosen and L in chosen and N in chosen

    def test_boundaries_are_inclusive(self):
        policy = threshold_policy(1.5, 0.4, self.RE)
        at_theta_o = next(s for s in live_states() if self.RE.value(s) == 1.5)
        at_theta_l = next(s for s in live_states() if self.RE.value(s) == 0.4)
        assert policy[at_theta_o.index] is O
        assert policy[at_theta_l.index] is L


class TestStrategyTriple:
    A = AbilityVector(0.20, 0.03, 0.002, 0.01, 0.12, 0.17, 0.26, 0.208)
    B = AbilityVector(0.10, 0.06, 0.006, 0.07, 0.05, 0.24, 0.26, 0.214)
    C = AbilityVector(0.15, 0.045, 0.004, 0.03, 0.08, 0.17, 0.28, 0.241)

    def test_vector_selection(self):
        triple = StrategyTriple(normal=self.C, on_base=self.A, long_hit=self.B)
        assert triple.vector(N) is self.C
        assert triple.vector(O) is self.A
        assert triple.vector(L) is self.B

    def test_constant_ignores_choice(self):
        triple = StrategyTriple.constant(self.C)
        assert triple.vector(N) is triple.vector(O) is triple.vector(L) is self.C
        assert triple.ordering_ok

    def test_ordering_is_derived_from_the_profiles(self):
        # A leans on singles and walks, B on power: the ordering holds with
        # A as the on-base variant and fails with B there
        assert onbase_share(self.B) + ORDERING_SLACK < onbase_share(self.C)
        assert onbase_share(self.C) + ORDERING_SLACK < onbase_share(self.A)
        assert StrategyTriple(normal=self.C, on_base=self.A,
                              long_hit=self.B).ordering_ok
        assert not StrategyTriple(normal=self.C, on_base=self.B,
                                  long_hit=self.B).ordering_ok
        assert not StrategyTriple(normal=self.C, on_base=self.A,
                                  long_hit=self.A).ordering_ok

    def test_ordering_is_not_an_argument(self):
        with pytest.raises(TypeError):
            StrategyTriple(normal=self.C, on_base=self.B, long_hit=self.B,
                           ordering_ok=True)

    def test_replace_recomputes_ordering(self):
        triple = StrategyTriple(normal=self.C, on_base=self.A, long_hit=self.B)
        assert not dataclasses.replace(triple, on_base=self.B).ordering_ok
        assert dataclasses.replace(triple, on_base=self.C).ordering_ok

    def test_a_profile_without_on_base_mass_is_flagged(self):
        all_k = AbilityVector(0, 0, 0, 0, 0, 1.0, 0, 0)
        assert not StrategyTriple.constant(all_k).ordering_ok
        for slot in ("normal", "on_base", "long_hit"):
            triple = StrategyTriple(**{"normal": self.C, "on_base": self.A,
                                       "long_hit": self.B, slot: all_k})
            assert not triple.ordering_ok
