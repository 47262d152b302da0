"""Bundled default assets: the nine-slot lineup, the synthetic empirical
transition table, and trained converter parameters.

fitted_lineup returns the lineup's ability vectors, read from the fitted
cache when its targets match and refitted in memory otherwise; fit_lineup
also returns each slot's fit residuals, which the cache records.

Everything under ``batsim/data`` is regenerated from seeds by
``scripts/build_default_assets.py``.  The fitted lineup and the transition
table come out byte for byte; the converter's weights do only on the same
numpy/BLAS build and CPU, since their last bits depend on both.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from importlib import resources

from .abilities import (
    LEAGUE_AVERAGE,
    AbilityVector,
    SlashTargets,
    fit_ability_vector,
    fit_residuals,
)
from .config import ConfigError
from .conversion import ConverterParams, load_params
from .transitions import TransitionTable

TARGETS_ASSET = "lineup_targets.json"
FITTED_ASSET = "lineup_fitted.json"
TABLE_ASSET = "transitions_default.json"
CONVERTER_ASSET = "converter_default.json"

# scripts/build_default_assets.py builds the bundled table from a synthetic
# event log of TABLE_EVENTS events drawn with TABLE_SEED, and trains the
# bundled converter on a pool of the default converter.n_players players
# with CONVERTER_SEED
TABLE_EVENTS = 150_000
TABLE_SEED = 97
CONVERTER_SEED = 0


def _data_root():
    return resources.files("batsim") / "data"


def lineup_targets_from_json(obj, where) -> list[SlashTargets]:
    """SlashTargets from a targets file: an object whose "targets" list
    holds one row of exactly the four numeric stats per slot."""
    rows = obj.get("targets") if isinstance(obj, dict) else None
    if not isinstance(rows, list):
        raise ConfigError(f"{where}: expected an object with a 'targets' list")
    stats = [f.name for f in fields(SlashTargets)]
    for i, row in enumerate(rows):
        if (not isinstance(row, dict) or set(row) != set(stats)
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in row.values())):
            raise ConfigError(f"{where}: target row {i} must hold exactly the "
                              f"numbers {', '.join(stats)}, got {row!r}")
    return [SlashTargets(**row) for row in rows]


def bundled_lineup_targets() -> list[SlashTargets]:
    obj = json.loads((_data_root() / TARGETS_ASSET).read_text(encoding="utf-8"))
    return lineup_targets_from_json(obj, TARGETS_ASSET)


def _targets_json(targets: list[SlashTargets]) -> list[dict]:
    return [asdict(t) for t in targets]


def fit_lineup(targets: list[SlashTargets],
               ) -> tuple[tuple[AbilityVector, ...], tuple[dict, ...]]:
    """Fit one ability vector per target, bypassing the bundled cache.
    Returns the vectors and, per slot, the fit residuals (signed errors,
    fit minus target, on each targeted stat)."""
    vectors = tuple(fit_ability_vector(t, LEAGUE_AVERAGE) for t in targets)
    return vectors, tuple(fit_residuals(v, t) for v, t in zip(vectors, targets))


def lineup_cache_obj(targets: list[SlashTargets], vectors, residuals) -> dict:
    """The JSON object of the fitted-lineup cache that fitted_lineup reads."""
    return {
        "targets": _targets_json(targets),
        "vectors": [v.to_json_dict() for v in vectors],
        "residuals": list(residuals),
    }


def fitted_lineup(targets: list[SlashTargets] | None = None,
                  ) -> tuple[AbilityVector, ...]:
    """The default lineup's fitted ability vectors, one per target.

    Served from the bundled cache when it matches the requested targets and
    refitted in memory otherwise.  Never writes: only
    scripts/build_default_assets.py regenerates the cache.
    """
    if targets is None:
        targets = bundled_lineup_targets()
    try:
        obj = json.loads((_data_root() / FITTED_ASSET).read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        obj = None
    if obj is not None and obj.get("targets") == _targets_json(targets):
        return tuple(AbilityVector.from_json_dict(d) for d in obj["vectors"])
    return fit_lineup(targets)[0]


def default_transition_table() -> TransitionTable:
    return TransitionTable.load(str(_data_root() / TABLE_ASSET))


def default_converter_params() -> ConverterParams:
    return load_params(str(_data_root() / CONVERTER_ASSET))
