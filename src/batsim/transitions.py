"""Base-out state transitions: event logs, empirical tables, run expectancy.

The unit of play is one plate appearance.  Before it, the game sits in one of
24 live base-out states (0-2 outs x 8 base-occupancy masks); the batter's
outcome then moves the game to a post state and scores some runs.  An inning
is over once the post state reaches 3 outs; the bases mask of an inning-ending
row records the runners stranded at that moment.

A transition table holds the observed distribution of post states for each
(state, outcome) key.  TransitionTable.lookup is the one place that answers a
key the table lacks: it falls back to the deterministic simple_transition.
TransitionTable.flat walks every key through lookup into parallel arrays,
the Markov chain that the Monte Carlo engine samples and run_expectancy
solves: with a fixed batter it is absorbing (Bukiet, Harold & Palacios 1997),
so expected runs are one linear solve of (I - M) re = b.

Every recorded transition must balance the books: the batter plus the runners
already aboard each end the play on base, scored, or out, so

    runners_before + 1 == runners_after + runs_scored + outs_gained

holds exactly (outs_and_runners).  check_event checks it: the parser on every
row of a log, and a TransitionTable on every entry when it is made.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .abilities import AbilityVector
from .fileio import atomic_write

NUM_BASES_MASKS = 8
NUM_LIVE_STATES = 24  # 3 out counts x 8 masks
INNING_OVER = 24      # collapsed index for any 3-out state

EVENT_CSV_HEADER = ("outs_pre", "bases_pre", "outcome",
                    "outs_post", "bases_post", "runs")


class Outcome(Enum):
    """Plate-appearance outcomes; values are the event-log codes."""

    SINGLE = "SINGLE"
    DOUBLE = "DOUBLE"
    TRIPLE = "TRIPLE"
    HOME_RUN = "HR"
    WALK = "BB"
    STRIKEOUT = "K"
    GROUND_OUT = "GO"
    FLY_OUT = "FO"


# Component order shared with AbilityVector.as_tuple().
OUTCOMES = (
    Outcome.SINGLE, Outcome.DOUBLE, Outcome.TRIPLE, Outcome.HOME_RUN,
    Outcome.WALK, Outcome.STRIKEOUT, Outcome.GROUND_OUT, Outcome.FLY_OUT,
)
OUTCOME_BY_CODE = {o.value: o for o in OUTCOMES}

HITS = {Outcome.SINGLE: 1, Outcome.DOUBLE: 2, Outcome.TRIPLE: 3,
        Outcome.HOME_RUN: 4}

# run_expectancy rejects a chain whose spectral radius is within this of 1
ABSORBING_MARGIN = 1e-9


class EventLogError(ValueError):
    pass


class MalformedRowError(EventLogError):
    pass


class UnknownOutcomeError(EventLogError):
    pass


class ConservationViolationError(EventLogError):
    """A row where batter + runners are not all accounted for, or a walk
    that records outs or multiple runs."""


class EmptyInputError(EventLogError):
    pass


class TransitionTableError(ValueError):
    pass


class NonAbsorbingError(RuntimeError):
    """The inning (almost) never ends, so run expectancy is not finite."""


@dataclass(frozen=True, slots=True)
class GameState:
    """Base-out state: outs in 0..3 (3 == inning over), bases as a 3-bit
    mask with bit 0 = first base, bit 1 = second, bit 2 = third."""

    outs: int
    bases: int

    def __post_init__(self):
        if not (0 <= self.outs <= 3):
            raise ValueError(f"outs must be 0..3, got {self.outs}")
        if not (0 <= self.bases <= 7):
            raise ValueError(f"bases mask must be 0..7, got {self.bases}")

    @property
    def is_over(self) -> bool:
        return self.outs >= 3

    @property
    def index(self) -> int:
        return state_index(self.outs, self.bases)


def state_index(outs: int, bases: int) -> int:
    """Flat index: live states map to 0..23, inning-over to 24."""
    return INNING_OVER if outs >= 3 else outs * 8 + bases


def live_states() -> list[GameState]:
    return [GameState(o, b) for o in range(3) for b in range(8)]


def _runner_count(bases: int) -> int:
    return (bases & 1) + ((bases >> 1) & 1) + ((bases >> 2) & 1)


def outs_and_runners(outs, bases):
    """Outs plus runners on base, of ints or integer arrays: a transition
    balances when outs_and_runners(before) + 1 == outs_and_runners(after) + runs."""
    return outs + _runner_count(bases)


@dataclass(frozen=True, slots=True)
class TransitionEvent:
    outs_pre: int
    bases_pre: int
    outcome: Outcome
    outs_post: int
    bases_post: int
    runs: int


def check_event(outs_pre, bases_pre, outcome, outs_post, bases_post, runs) -> str | None:
    """Return a reason string if the row is invalid, else None."""
    if not (0 <= outs_pre <= 2):
        return f"outs_pre must be 0..2, got {outs_pre}"
    if not (0 <= outs_post <= 3):
        return f"outs_post must be 0..3, got {outs_post}"
    if not (0 <= bases_pre <= 7):
        return f"bases_pre must be 0..7, got {bases_pre}"
    if not (0 <= bases_post <= 7):
        return f"bases_post must be 0..7, got {bases_post}"
    if runs < 0:
        return f"runs must be non-negative, got {runs}"
    outs_gained = outs_post - outs_pre
    if outs_gained < 0:
        return f"outs decreased from {outs_pre} to {outs_post}"
    if (outs_and_runners(outs_pre, bases_pre) + 1
            != outs_and_runners(outs_post, bases_post) + runs):
        return (f"conservation violated: {_runner_count(bases_pre)} runners + batter"
                f" != {_runner_count(bases_post)} runners + {runs} runs"
                f" + {outs_gained} outs")
    if outcome is Outcome.WALK:
        if outs_gained != 0:
            return "a walk cannot record an out"
        if runs > 1:
            return f"a walk can force in at most one run, got {runs}"
    return None


@dataclass(frozen=True)
class EventLogParse:
    events: tuple[TransitionEvent, ...]
    rejected: tuple[tuple[int, str], ...]  # (1-based file line, reason)


def parse_event_log(source, *, strict: bool = True) -> EventLogParse:
    """Parse a transition event CSV.

    source may be a path or any iterable of text lines.  In strict mode the
    first invalid row raises; otherwise invalid rows are collected in
    .rejected with their file line numbers.  A bad header or an empty log
    always raises.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_event_log(fh, strict=strict)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("event log is empty") from None
    if tuple(h.strip() for h in header) != EVENT_CSV_HEADER:
        raise MalformedRowError(
            f"line 1: expected header {','.join(EVENT_CSV_HEADER)}, got {header!r}")

    events: list[TransitionEvent] = []
    rejected: list[tuple[int, str]] = []

    def bad(line_no, reason, exc_type=ConservationViolationError):
        if strict:
            raise exc_type(f"line {line_no}: {reason}")
        rejected.append((line_no, reason))

    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            bad(line_no, f"expected 6 fields, got {len(row)}", MalformedRowError)
            continue
        code = row[2].strip()
        outcome = OUTCOME_BY_CODE.get(code)
        if outcome is None:
            bad(line_no, f"unknown outcome code {code!r}", UnknownOutcomeError)
            continue
        try:
            outs_pre, bases_pre = int(row[0]), int(row[1])
            outs_post, bases_post = int(row[3]), int(row[4])
            runs = int(row[5])
        except ValueError:
            bad(line_no, f"non-integer field in {row!r}", MalformedRowError)
            continue
        reason = check_event(outs_pre, bases_pre, outcome, outs_post, bases_post, runs)
        if reason is not None:
            bad(line_no, reason)
            continue
        events.append(TransitionEvent(outs_pre, bases_pre, outcome,
                                      outs_post, bases_post, runs))

    if not events and not rejected:
        raise EmptyInputError("event log has a header but no rows")
    return EventLogParse(tuple(events), tuple(rejected))


def write_event_csv(events, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_CSV_HEADER)
        for e in events:
            writer.writerow((e.outs_pre, e.bases_pre, e.outcome.value,
                             e.outs_post, e.bases_post, e.runs))


def _advance_all(bases: int, n: int) -> tuple[int, int]:
    """Advance every runner n bases; return (new mask, runs scored)."""
    new, runs = 0, 0
    for b in (1, 2, 3):
        if bases & (1 << (b - 1)):
            if b + n >= 4:
                runs += 1
            else:
                new |= 1 << (b + n - 1)
    return new, runs


def _forced_walk(bases: int) -> tuple[int, int]:
    if not bases & 1:
        return bases | 1, 0
    if not bases & 2:
        return bases | 3, 0
    if not bases & 4:
        return 7, 0
    return 7, 1


def simple_transition(state: GameState, outcome: Outcome) -> tuple[GameState, int]:
    """Minimal deterministic advancement: outs freeze runners, walks force,
    an n-base hit moves every runner exactly n bases.  Used when an
    empirical table has no data for a situation."""
    if state.is_over:
        raise ValueError("no transitions from an ended inning")
    if outcome in HITS:
        n = HITS[outcome]
        new, runs = _advance_all(state.bases, n)
        if n == 4:
            runs += 1
        else:
            new |= 1 << (n - 1)
        return GameState(state.outs, new), runs
    if outcome is Outcome.WALK:
        new, runs = _forced_walk(state.bases)
        return GameState(state.outs, new), runs
    return GameState(state.outs + 1, state.bases), 0


@dataclass(frozen=True, slots=True)
class TransitionEntry:
    outs: int
    bases: int
    runs: int
    prob: float


Key = tuple[int, int, Outcome]


@dataclass(frozen=True)
class TransitionTable:
    """Conditional distributions over post states, keyed by
    (outs, bases, outcome).  Missing keys mean "no data"; :meth:`lookup`
    answers those with :func:`simple_transition`, and every reader of the
    table goes through it."""

    rows: dict[Key, tuple[TransitionEntry, ...]]

    def __post_init__(self):
        """Each row is from a live state, and its entries pass check_event
        and have positive probabilities summing to 1.  Unpickling skips it."""
        for (outs, bases, outcome), entries in self.rows.items():
            key = f"{outs}-{bases}-{outcome.value}"
            if not (0 <= outs <= 2 and 0 <= bases <= 7):
                raise TransitionTableError(f"key {key!r} is not a live state")
            for e in entries:
                if not e.prob > 0.0:
                    raise TransitionTableError(f"{key}: non-positive probability")
                reason = check_event(outs, bases, outcome, e.outs, e.bases, e.runs)
                if reason is not None:
                    raise ConservationViolationError(f"{key}: {reason}")
            total = math.fsum(e.prob for e in entries)
            if abs(total - 1.0) > 1e-9:
                raise TransitionTableError(f"{key}: probabilities sum to {total!r}")

    def lookup(self, state: GameState, outcome: Outcome,
               ) -> tuple[tuple[TransitionEntry, ...], bool]:
        """The entries for (state, outcome) and whether they fell back: the
        observed row and False, or simple_transition's point mass and True."""
        entries = self.rows.get((state.outs, state.bases, outcome))
        if entries is not None:
            return entries, False
        post, runs = simple_transition(state, outcome)
        return (TransitionEntry(post.outs, post.bases, runs, 1.0),), True

    def flat(self) -> tuple[np.ndarray, ...]:
        """Every (state, outcome, entry) of the chain as parallel arrays:
        key = state index * 8 + outcome index, post index (INNING_OVER
        when the entry ends the inning), runs, probability given the key,
        and whether the entry fell back.  The chain is walked once per
        table: every call returns the same read-only arrays."""
        return self._flat

    @cached_property
    def _flat(self) -> tuple[np.ndarray, ...]:
        key, post, runs, prob, fell_back = [], [], [], [], []
        for state in live_states():
            for o, outcome in enumerate(OUTCOMES):
                entries, missing = self.lookup(state, outcome)
                for e in entries:
                    key.append(state.index * 8 + o)
                    post.append(state_index(e.outs, e.bases))
                    runs.append(e.runs)
                    prob.append(e.prob)
                    fell_back.append(missing)
        arrays = tuple(np.array(a) for a in (key, post, runs, prob, fell_back))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @property
    def coverage(self) -> float:
        return len(self.rows) / (NUM_LIVE_STATES * len(OUTCOMES))

    @classmethod
    def simple(cls) -> "TransitionTable":
        """Point-mass table reproducing simple_transition everywhere."""
        empty = cls(rows={})
        return cls(rows={(state.outs, state.bases, outcome):
                         empty.lookup(state, outcome)[0]
                         for state in live_states() for outcome in OUTCOMES})

    def to_json_obj(self) -> dict:
        obj = {}
        for (outs, bases, outcome), entries in sorted(
                self.rows.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value)):
            key = f"{outs}-{bases}-{outcome.value}"
            obj[key] = [
                {"outs": e.outs, "bases": e.bases, "runs": e.runs, "p": e.prob}
                for e in entries
            ]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TransitionTable":
        if not isinstance(obj, dict):
            raise TransitionTableError("transition JSON must be an object")
        rows: dict[Key, tuple[TransitionEntry, ...]] = {}
        for key, raw_entries in obj.items():
            parts = key.split("-")
            if len(parts) != 3:
                raise TransitionTableError(f"bad row key {key!r}")
            try:
                outs, bases = int(parts[0]), int(parts[1])
            except ValueError:
                raise TransitionTableError(f"bad row key {key!r}") from None
            outcome = OUTCOME_BY_CODE.get(parts[2])
            if outcome is None:
                raise TransitionTableError(f"unknown outcome in key {key!r}")
            rows[(outs, bases, outcome)] = tuple(
                TransitionEntry(int(raw["outs"]), int(raw["bases"]),
                                int(raw["runs"]), float(raw["p"]))
                for raw in raw_entries)
        return cls(rows=rows)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            json.dump(self.to_json_obj(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TransitionTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))


def build_table(events, min_count: int = 5) -> TransitionTable:
    """Estimate a transition table from parsed events.

    Each (outs, bases, outcome) row is the empirical distribution of its
    observed post states.  Rows observed fewer than min_count times are
    blended half-and-half with the simple model's point mass, which keeps
    rare situations from being governed by one or two noisy observations.
    """
    counts: dict[Key, dict[tuple[int, int, int], int]] = {}
    for e in events:
        key = (e.outs_pre, e.bases_pre, e.outcome)
        dest = (e.outs_post, e.bases_post, e.runs)
        counts.setdefault(key, {})[dest] = counts.get(key, {}).get(dest, 0) + 1

    rows: dict[Key, tuple[TransitionEntry, ...]] = {}
    for key, dests in counts.items():
        n = sum(dests.values())
        probs = {dest: c / n for dest, c in dests.items()}
        if n < min_count:
            outs, bases, outcome = key
            post, runs = simple_transition(GameState(outs, bases), outcome)
            simple_dest = (post.outs, post.bases, runs)
            probs = {dest: 0.5 * p for dest, p in probs.items()}
            probs[simple_dest] = probs.get(simple_dest, 0.0) + 0.5
        entries = tuple(
            TransitionEntry(outs, bases, runs, p)
            for (outs, bases, runs), p in sorted(probs.items())
        )
        rows[key] = entries
    if not rows:
        raise EmptyInputError("no events to build a table from")
    return TransitionTable(rows=rows)


@dataclass(frozen=True)
class RunExpectancyTable:
    """Expected runs to the end of the inning from each live state."""

    values: tuple[float, ...]  # indexed outs * 8 + bases

    def __post_init__(self):
        if len(self.values) != NUM_LIVE_STATES:
            raise ValueError("expected 24 values")

    def value(self, state: GameState) -> float:
        if state.is_over:
            return 0.0
        return self.values[state.index]

    def as_dict(self) -> dict[str, float]:
        return {f"{s.outs}-{s.bases}": self.values[s.index] for s in live_states()}

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            json.dump(self.as_dict(), fh, indent=1)
            fh.write("\n")


def run_expectancy(table: TransitionTable,
                   batter: AbilityVector) -> RunExpectancyTable:
    """Expected runs to the end of the inning with a fixed batter at the
    plate: re solves (I - M) re = b, where M is the chain's live-to-live
    matrix and b the expected runs of one plate appearance from each state.

    Raises :class:`NonAbsorbingError` when M's spectral radius is within
    ABSORBING_MARGIN of 1: the inning (essentially) never reaches 3 outs.
    """
    key, post, runs, prob, _ = table.flat()
    src = key // 8
    p = np.array(batter.as_tuple())[key % 8] * prob

    b = np.zeros(NUM_LIVE_STATES)
    np.add.at(b, src, p * runs)
    m = np.zeros((NUM_LIVE_STATES, NUM_LIVE_STATES))
    alive = post < INNING_OVER
    np.add.at(m, (src[alive], post[alive]), p[alive])

    radius = np.max(np.abs(np.linalg.eigvals(m)))
    if radius >= 1.0 - ABSORBING_MARGIN:
        raise NonAbsorbingError(
            f"the inning never ends: the chain's spectral radius is {radius:.12g}")
    re = np.linalg.solve(np.eye(NUM_LIVE_STATES) - m, b)
    return RunExpectancyTable(values=tuple(re.tolist()))
