"""Per-plate-appearance ability vectors and the rate stats derived from them.

A batter is modeled by a probability vector over eight mutually exclusive
plate-appearance outcomes: single, double, triple, home run, walk, strikeout,
ground out, fly out.  Everything downstream (game simulation, strategy
conversion, lineup fitting) consumes these vectors, so the invariants are
enforced here once: each vector checks when made that its components are
finite, non-negative and sum to one, and :func:`validate` that an out has
mass, so innings can end.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields

from .fileio import atomic_write

OUTCOME_KEYS = ("1b", "2b", "3b", "hr", "bb", "k", "g", "f")

# Strict tolerance for programmatic construction; the looser one applies only
# when reading external files, where we rescale and warn instead of failing.
SUM_TOLERANCE = 1e-9
PARSE_SUM_TOLERANCE = 1e-6


class AbilityVectorError(ValueError):
    """An invalid ability vector, a rate stat whose denominator vanished,
    or rate-stat targets that no valid vector meets."""


class NoOutProbabilityError(AbilityVectorError):
    """All out probabilities are zero: innings would never terminate."""


@dataclass(frozen=True)
class AbilityVector:
    """Outcome probabilities for one batter, in a fixed component order.

    Construction, direct, from JSON or by dataclasses.replace, rejects a
    component that is not finite or is negative, and a sum not within
    SUM_TOLERANCE of one.  Degenerate vectors (all strikeouts, all home
    runs) can be built; :func:`validate` refuses those without out mass.
    """

    p_1b: float
    p_2b: float
    p_3b: float
    p_hr: float
    p_bb: float
    p_k: float
    p_g: float
    p_f: float

    def __post_init__(self):
        for key, value in zip(OUTCOME_KEYS, self.as_tuple()):
            if not math.isfinite(value):
                raise AbilityVectorError(f"component {key} is not finite: {value!r}")
            if value < 0.0:
                raise AbilityVectorError(f"component {key} is negative: {value!r}")
        total = math.fsum(self.as_tuple())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise AbilityVectorError(f"components sum to {total!r}, not 1")

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.p_1b, self.p_2b, self.p_3b, self.p_hr,
            self.p_bb, self.p_k, self.p_g, self.p_f,
        )

    @property
    def positives(self) -> tuple[float, ...]:
        """The five on-base components (1b, 2b, 3b, hr, bb)."""
        return (self.p_1b, self.p_2b, self.p_3b, self.p_hr, self.p_bb)

    @property
    def out_mass(self) -> float:
        return self.p_k + self.p_g + self.p_f

    def to_json_dict(self) -> dict[str, float]:
        return dict(zip(OUTCOME_KEYS, self.as_tuple()))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AbilityVector":
        missing = [k for k in OUTCOME_KEYS if k not in obj]
        if missing:
            raise AbilityVectorError(f"missing outcome keys: {missing}")
        extra = [k for k in obj if k not in OUTCOME_KEYS]
        if extra:
            raise AbilityVectorError(f"unknown outcome keys: {extra}")
        for k in OUTCOME_KEYS:
            if isinstance(obj[k], bool) or not isinstance(obj[k], (int, float)):
                raise AbilityVectorError(f"component {k} must be a number, "
                                         f"got {obj[k]!r}")
        values = [float(obj[k]) for k in OUTCOME_KEYS]
        total = math.fsum(values)
        if abs(total - 1.0) > SUM_TOLERANCE:
            if abs(total - 1.0) > PARSE_SUM_TOLERANCE:
                raise AbilityVectorError(f"components sum to {total!r}")
            warnings.warn(
                f"ability vector sums to {total!r}; rescaling to 1",
                stacklevel=2,
            )
            values = [v / total for v in values]
        return validate(cls(*values))


def validate(vector: AbilityVector) -> AbilityVector:
    """Return the vector if some out has mass, the one invariant that
    construction leaves unchecked; raise :class:`NoOutProbabilityError` if
    none has."""
    if vector.out_mass <= 0.0:
        raise NoOutProbabilityError("no probability mass on k, g, or f")
    return vector


# The one set of coefficients of each rate stat in batsim, keyed by the
# on-base events of AbilityVector.positives.  The wOBA weights are a widely
# used published set, increasing bb < 1b < 2b < 3b < hr, in the key order
# converter files record them.  The on-base share is num / (num + extra):
# num weighs singles and walks by their run values, extra each extra-base
# hit by its marginal value over a single.
WOBA_WEIGHTS = {"walk": 0.692, "single": 0.865, "double": 1.334,
                "triple": 1.725, "homer": 2.065}
SHARE_NUMERATOR = {"single": 0.437, "walk": 0.294}
SHARE_EXTRA_BASE = {"double": 0.786, "triple": 1.117, "homer": 1.408}

# The widest shifts any profile can make.  An on-base share lies in [0, 1],
# so a share shift lies in [-MAX_SHARE_SHIFT, MAX_SHARE_SHIFT].  A wOBA lies
# in [0, MAX_WOBA], reached when every plate appearance is a homer, so a
# wOBA cost lies in [-MAX_WOBA, 0].
MAX_SHARE_SHIFT = 1.0
MAX_WOBA = max(WOBA_WEIGHTS.values())


@dataclass(frozen=True)
class SlashTargets:
    """Target rate line for fitting a vector: OBP, SLG, wOBA, on-base share."""

    obp: float
    slg: float
    woba: float
    onbase_share: float

    def __post_init__(self):
        # the most a valid vector reaches: when every plate appearance is a
        # homer, SLG is 4 and wOBA is MAX_WOBA
        for name, top in (("obp", 1.0), ("slg", 4.0), ("onbase_share", 1.0),
                          ("woba", MAX_WOBA)):
            v = getattr(self, name)
            if not (0.0 <= v <= top):
                raise ValueError(f"{name} must lie in [0, {top:g}], got {v!r}")


# fit_ability_vector's acceptance tolerance on each stat and its budget of
# line minimizations
FIT_TOL = 0.005
FIT_MAX_STEPS = 10_000


def _rate_stats(p1, p2, p3, ph, pb):
    """(OBP, SLG, wOBA, on-base share) of the five on-base rates, in
    AbilityVector.positives order.  SLG is NaN without at-bats (pb == 1) and
    the share is NaN without on-base mass.  Straight-line arithmetic: the
    fit calls this for every point of every line search."""
    w, n, e = WOBA_WEIGHTS, SHARE_NUMERATOR, SHARE_EXTRA_BASE
    ab = 1.0 - pb
    num = n["single"] * p1 + n["walk"] * pb
    den = num + (e["double"] * p2 + e["triple"] * p3 + e["homer"] * ph)
    return (p1 + p2 + p3 + ph + pb,
            (p1 + 2.0 * p2 + 3.0 * p3 + 4.0 * ph) / ab if ab > 0.0 else math.nan,
            (w["single"] * p1 + w["double"] * p2 + w["triple"] * p3
             + w["homer"] * ph + w["walk"] * pb),
            num / den if den > 0.0 else math.nan)


def onbase_share(vector: AbilityVector) -> float:
    """Fraction of a batter's expected run production owed to singles and walks.

    Values near 1 mark a batter whose value is almost entirely reaching base;
    values near 0 mark one whose value is almost entirely extra-base power.
    Raises :class:`AbilityVectorError` when no on-base outcome has mass.
    """
    share = _rate_stats(*vector.positives)[3]
    if math.isnan(share):
        raise AbilityVectorError("vector has no on-base probability mass")
    return share


def woba(vector: AbilityVector) -> float:
    """Weighted on-base average of the vector under WOBA_WEIGHTS."""
    return _rate_stats(*vector.positives)[2]


def slash_stats(vector: AbilityVector) -> tuple[float, float]:
    """Return (OBP, SLG) for the vector.

    OBP is the total on-base probability.  SLG is total bases per at-bat,
    where at-bats exclude walks; a vector that walks every time has no
    at-bats and raises :class:`AbilityVectorError`.
    """
    obp, slg, _, _ = _rate_stats(*vector.positives)
    if math.isnan(slg):
        raise AbilityVectorError("walk probability is 1; slugging is undefined")
    return obp, slg


def _stat_residuals(x, targets):
    """Residuals (fit minus target) for the four stats, from the five
    positive components x = (p_1b, p_2b, p_3b, p_hr, p_bb)."""
    obp, slg, wv, share = _rate_stats(*x)
    return (obp - targets.obp, slg - targets.slg,
            wv - targets.woba, share - targets.onbase_share)


def _objective(x, targets) -> float:
    r_obp, r_slg, r_woba, r_share = _stat_residuals(x, targets)
    return r_obp * r_obp + r_slg * r_slg + r_woba * r_woba + r_share * r_share


def _line_minimize(f, lo, hi, coarse=33, refine=40):
    """Minimize f on [lo, hi]: coarse scan, then golden-section refinement
    around the best coarse point.  Deterministic; tolerant of mild
    non-unimodality, which is all the stat residuals exhibit."""
    if hi <= lo:
        return lo
    step = (hi - lo) / (coarse - 1)
    best_i, best_v = 0, f(lo)
    for i in range(1, coarse):
        v = f(lo + i * step)
        if v < best_v:
            best_i, best_v = i, v
    a = lo + max(best_i - 1, 0) * step
    b = lo + min(best_i + 1, coarse - 1) * step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(refine):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def fit_ability_vector(targets: SlashTargets,
                       league: AbilityVector) -> AbilityVector:
    """Find a valid ability vector matching all four targets within FIT_TOL.

    Only the five positive components affect the four stats, so the search
    runs projected coordinate descent over those, constrained to the simplex
    slice where their sum stays below 1.  The leftover out mass is split
    among k/g/f in the league vector's proportions, which leaves every stat
    untouched (outs never enter OBP, SLG, wOBA, or the on-base share).

    Raises :class:`AbilityVectorError` if some stat still misses its
    target by more than FIT_TOL after FIT_MAX_STEPS line minimizations.
    """
    league = validate(league)
    league_pos = league.positives
    league_obp = math.fsum(league_pos)
    if league_obp <= 0.0:  # validate has refused one without out mass
        raise AbilityVectorError("league vector must have on-base and out mass")

    # Start from the league's positive profile scaled toward the target OBP.
    scale = min(targets.obp / league_obp, 0.999 / league_obp)
    x = [p * scale for p in league_pos]

    steps = 0
    while steps < FIT_MAX_STEPS:
        moved = 0.0
        for i in range(5):
            others = sum(x) - x[i]
            hi = max(1.0 - 1e-6 - others, 0.0)

            def f(v, i=i):
                trial = list(x)
                trial[i] = v
                return _objective(trial, targets)

            new = _line_minimize(f, 0.0, hi)
            moved = max(moved, abs(new - x[i]))
            x[i] = new
            steps += 1
            if steps >= FIT_MAX_STEPS:
                break
        residuals = _stat_residuals(x, targets)
        if max(abs(r) for r in residuals) <= FIT_TOL * 0.25:
            break
        if moved < 1e-12:
            break

    residuals = _stat_residuals(x, targets)
    worst = max(abs(r) for r in residuals)
    if worst > FIT_TOL:
        raise AbilityVectorError(
            f"no vector within {FIT_TOL} of targets {targets}; "
            f"worst residual {worst:.4f} after {steps} steps"
        )

    out = 1.0 - math.fsum(x)
    k_share = league.p_k / league.out_mass
    g_share = league.p_g / league.out_mass
    f_share = 1.0 - k_share - g_share
    return AbilityVector(
        x[0], x[1], x[2], x[3], x[4],
        out * k_share, out * g_share, out * f_share,
    )


def fit_residuals(vector: AbilityVector,
                  targets: SlashTargets) -> dict[str, float]:
    """Signed stat errors (fit minus target) of a fitted vector."""
    res = _stat_residuals(vector.positives, targets)
    return {f.name: r for f, r in zip(fields(SlashTargets), res)}


def load_ability_vector(path) -> AbilityVector:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise AbilityVectorError(f"{path}: expected a JSON object")
    return AbilityVector.from_json_dict(obj)


def dump_ability_vector(vector: AbilityVector, path) -> None:
    with atomic_write(path) as fh:
        json.dump(vector.to_json_dict(), fh, indent=2, sort_keys=False)
        fh.write("\n")


# Round-number league-average profile: the default anchor for lineup fitting
# and the default batter for synthetic event generation.
LEAGUE_AVERAGE = AbilityVector(
    p_1b=0.150, p_2b=0.045, p_3b=0.004, p_hr=0.030,
    p_bb=0.080, p_k=0.170, p_g=0.280, p_f=0.241,
)

# Keep field order in sync with OUTCOME_KEYS; a handful of places zip them.
assert tuple(f.name for f in fields(AbilityVector)) == tuple(
    "p_" + k for k in OUTCOME_KEYS
)
