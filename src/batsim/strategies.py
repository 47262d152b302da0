"""Situational batting strategies and per-batter strategy triples.

A strategy is a per-state choice among three versions of the same batter:
the measured profile, an on-base-tilted variant, and a long-hit-tilted
variant.  A policy is plain data: the 24-tuple of those choices, one per
live base-out state in GameState.index order.  This module supplies the
policies (no adjustment, a fixed base-out rule, and a run-expectancy
threshold rule) and the construction of the per-batter triples via the
trained conversion model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import conversion
from .abilities import AbilityVector, AbilityVectorError, onbase_share
from .transitions import (
    NUM_LIVE_STATES,
    GameState,
    RunExpectancyTable,
    live_states,
)


class StrategyChoice(Enum):
    """Each choice's value is its profile's index in a triple's (normal,
    on_base, long_hit) order."""

    NORMAL = 0
    ON_BASE = 1
    LONG_HIT = 2


# How far a converted variant's on-base share may sit on the wrong side of
# the normal profile's before its triple is flagged (StrategyTriple.ordering_ok).
ORDERING_SLACK = 0.02


@dataclass(frozen=True)
class StrategyTriple:
    """One batter's three selectable profiles.

    ordering_ok is derived from the three profiles when the triple is made:
    whether they keep the intended on-base-share ordering (long_hit <=
    normal <= on_base, each within ORDERING_SLACK).  A profile with no
    on-base mass has no share, so its triple is flagged too.  A False value
    flags the batter for reporting but never blocks play.
    """

    normal: AbilityVector
    on_base: AbilityVector
    long_hit: AbilityVector
    ordering_ok: bool = field(init=False)

    def __post_init__(self):
        try:
            share_n = onbase_share(self.normal)
            ok = (onbase_share(self.long_hit) <= share_n + ORDERING_SLACK
                  and share_n <= onbase_share(self.on_base) + ORDERING_SLACK)
        except AbilityVectorError:  # a profile without on-base mass
            ok = False
        object.__setattr__(self, "ordering_ok", ok)

    def vector(self, choice: StrategyChoice) -> AbilityVector:
        if choice is StrategyChoice.ON_BASE:
            return self.on_base
        if choice is StrategyChoice.LONG_HIT:
            return self.long_hit
        return self.normal

    @classmethod
    def constant(cls, vector: AbilityVector) -> "StrategyTriple":
        """A batter who ignores the strategy call (all three identical)."""
        return cls(normal=vector, on_base=vector, long_hit=vector)


# one choice per live base-out state, indexed by GameState.index
Policy = tuple[StrategyChoice, ...]


def _fixed_choice(state: GameState) -> StrategyChoice:
    """Fixed base-out rule.

    Go for on-base with nobody out or with a runner in scoring position;
    go for the long hit with two outs and nobody past first; otherwise
    swing normally.
    """
    scoring_position = bool(state.bases & 0b110)
    if state.outs == 0 or scoring_position:
        return StrategyChoice.ON_BASE
    if state.outs == 2:
        return StrategyChoice.LONG_HIT
    return StrategyChoice.NORMAL


# the baseline: no situational adjustment
always_normal: Policy = (StrategyChoice.NORMAL,) * NUM_LIVE_STATES

fixed_policy: Policy = tuple(_fixed_choice(s) for s in live_states())


def threshold_policy(theta_o: float, theta_l: float,
                     expectancy: RunExpectancyTable) -> Policy:
    """Choose by each state's run expectancy: on-base at or above theta_o,
    long-hit at or below theta_l, normal in between.  theta_l must sit
    strictly below theta_o so the two regions cannot overlap."""
    if not theta_l < theta_o:
        raise ValueError(
            f"theta_l ({theta_l}) must be below theta_o ({theta_o})")
    return tuple(StrategyChoice.ON_BASE if value >= theta_o
                 else StrategyChoice.LONG_HIT if value <= theta_l
                 else StrategyChoice.NORMAL
                 for value in expectancy.values)


def build_triple(normal: AbilityVector, params, d_alpha: float,
                 d_woba: float) -> StrategyTriple:
    """Convert one batter into a strategy triple.

    The on-base variant shifts the batter's on-base value share up by
    d_alpha, the long-hit variant down by the same amount; both pay the same
    non-positive overall-quality price d_woba.  With d_alpha zero the two
    variants coincide: the profile merely discounted by d_woba.
    """
    if d_alpha < 0.0:
        raise ValueError(f"d_alpha must be non-negative, got {d_alpha}")
    on_base = conversion.convert(params, normal, d_alpha, d_woba)
    long_hit = conversion.convert(params, normal, -d_alpha, d_woba)
    return StrategyTriple(normal=normal, on_base=on_base, long_hit=long_hit)
