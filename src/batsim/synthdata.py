"""Synthetic transition-event generation.

Real play-by-play feeds are licensed, so the bundled pipeline estimates its
transition table from events produced here instead.  The advancement model is
deliberately richer than the deterministic fallback: runners take extra bases,
get thrown out stretching, ground into double plays, and score on sacrifice
flies, at plausible league-ish rates, the thirteen branch-rate constants
below.  Every branch is constructed so the runner-accounting identity holds
exactly (each runner ends the play on base, scored, or out), which the tests
hammer with large random samples.
"""

from __future__ import annotations

import numpy as np

from .abilities import LEAGUE_AVERAGE
from .transitions import (
    HITS,
    OUTCOMES,
    GameState,
    Outcome,
    TransitionEvent,
    _advance_all,
    simple_transition,
)


# Branch rates for runner advancement.  All are probabilities; the mutually
# exclusive branches of one decision sum below 1, the remainder being the
# conservative default (station to station).

# Singles: batter to first; the runner from second may score, be thrown out
# at home, or stop at third; the runner from first may reach third, be cut
# down advancing, or stop at second.
SINGLE_SECOND_SCORES = 0.62
SINGLE_SECOND_THROWN_OUT = 0.02
SINGLE_FIRST_TO_THIRD = 0.28
SINGLE_FIRST_THROWN_OUT = 0.01

# Doubles: batter to second; the runner from first may score, be thrown out
# at home, or stop at third.
DOUBLE_FIRST_SCORES = 0.44
DOUBLE_FIRST_THROWN_OUT = 0.02

# Ground balls: occasional batter-reaches-on-error; with a runner on first
# and fewer than two outs, a double play or a force at second; otherwise the
# batter is retired and runners may move up one.
GROUND_REACH_ERROR = 0.045
GROUND_DOUBLE_PLAY = 0.36
GROUND_FORCE_AT_SECOND = 0.12
GROUND_RUNNERS_ADVANCE = 0.30

# Fly balls: occasional drop; with fewer than two outs the runner from third
# tags and scores, and the runner from second sometimes moves up.
FLY_REACH_ERROR = 0.03
FLY_THIRD_TAGS = 0.74
FLY_SECOND_TAGS = 0.12


def _hit_transition(state: GameState, n: int, rng) -> tuple[GameState, int]:
    """Advancement on a single (n = 1) or double (n = 2).  Lead runners
    resolve first; once a thrown-out runner makes the third out the play is
    dead, and any unresolved trailing runner takes the forced base just
    vacated ahead of it, so nobody is ever lost from the accounting or
    doubled up on a base."""
    outs = state.outs
    runs = 0
    on1 = bool(state.bases & 1)
    on2 = bool(state.bases & 2)
    on3 = bool(state.bases & 4)
    new = 0

    if n == 2:
        runs += on3 + on2
        if on1:
            u = rng.random()
            if u < DOUBLE_FIRST_SCORES:
                runs += 1
            elif u < DOUBLE_FIRST_SCORES + DOUBLE_FIRST_THROWN_OUT:
                outs += 1
            else:
                new |= 4
        new |= 2
        return GameState(outs, new), runs

    # Single: the batter claims first, so the runner from first must leave it.
    if on3:
        runs += 1
    if on2:
        u = rng.random()
        if u < SINGLE_SECOND_SCORES:
            runs += 1
        elif u < SINGLE_SECOND_SCORES + SINGLE_SECOND_THROWN_OUT:
            outs += 1
        else:
            new |= 4
    if on1:
        if outs >= 3:
            new |= 2  # play already dead; second is free, the forced spot
        else:
            u = rng.random()
            if u < SINGLE_FIRST_TO_THIRD:
                new |= 4 if not new & 4 else 2  # third blocked: stop at second
            elif u < SINGLE_FIRST_TO_THIRD + SINGLE_FIRST_THROWN_OUT:
                outs += 1
            else:
                new |= 2
    new |= 1
    return GameState(outs, new), runs


def _ground_transition(state: GameState, rng) -> tuple[GameState, int]:
    outs = state.outs
    bases = state.bases
    on1 = bool(bases & 1)
    u = rng.random()

    if u < GROUND_REACH_ERROR:  # everyone moves up one, as on a single
        return simple_transition(state, Outcome.SINGLE)

    if on1 and outs <= 1:
        v = rng.random()
        if v < GROUND_DOUBLE_PLAY:
            # Batter and the runner from first are both retired.
            new, runs = 0, 0
            if outs == 0:
                if bases & 4:
                    runs += 1
                if bases & 2:
                    new |= 4
            else:  # second out plus one ends the inning; nobody else moves
                new = bases & ~1
            return GameState(min(outs + 2, 3), new), runs
        if v < GROUND_DOUBLE_PLAY + GROUND_FORCE_AT_SECOND:
            # Force at second, batter safe at first, everyone else holds.
            return GameState(outs + 1, bases), 0

    # Batter out at first.
    if outs <= 1 and rng.random() < GROUND_RUNNERS_ADVANCE:
        new, runs = _advance_all(bases, 1)
        return GameState(outs + 1, new), runs
    return GameState(outs + 1, bases), 0


def _fly_transition(state: GameState, rng) -> tuple[GameState, int]:
    outs = state.outs
    bases = state.bases
    u = rng.random()

    if u < FLY_REACH_ERROR:  # everyone moves up one, as on a single
        return simple_transition(state, Outcome.SINGLE)

    if outs >= 2:
        return GameState(3, bases), 0

    new, runs = bases, 0
    if bases & 4 and rng.random() < FLY_THIRD_TAGS:
        new &= ~4
        runs += 1
    if bases & 2 and not (new & 4) and rng.random() < FLY_SECOND_TAGS:
        new = (new & ~2) | 4
    return GameState(outs + 1, new), runs


def stochastic_transition(state: GameState, outcome: Outcome,
                          rng) -> tuple[GameState, int]:
    """One plate appearance under the synthetic advancement model.

    rng needs only a .random() method returning uniforms in [0, 1)."""
    if state.is_over:
        raise ValueError("no transitions from an ended inning")
    if outcome is Outcome.GROUND_OUT:
        return _ground_transition(state, rng)
    if outcome is Outcome.FLY_OUT:
        return _fly_transition(state, rng)
    if outcome in (Outcome.SINGLE, Outcome.DOUBLE):
        return _hit_transition(state, HITS[outcome], rng)
    # walks, strikeouts, triples and homers leave the runners no choice
    return simple_transition(state, outcome)


def synthesize_event_log(n_events: int, seed: int) -> list[TransitionEvent]:
    """Simulate half-innings with the league-average batter at the plate and
    record every plate appearance as a transition event.  Deterministic in
    seed."""
    if n_events <= 0:
        raise ValueError("n_events must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5EED)))
    probs = np.asarray(LEAGUE_AVERAGE.as_tuple())
    cum = np.cumsum(probs)
    cum[-1] = 1.0

    events: list[TransitionEvent] = []
    state = GameState(0, 0)
    while len(events) < n_events:
        outcome = OUTCOMES[int(np.searchsorted(cum, rng.random(), side="right"))]
        post, runs = stochastic_transition(state, outcome, rng)
        events.append(TransitionEvent(state.outs, state.bases, outcome,
                                      post.outs, post.bases, runs))
        state = GameState(0, 0) if post.is_over else post
    return events
