"""Experiment configuration: one JSON document holding every knob.

The effective config (defaults merged with the user's file) can always be
dumped back out, so a run is reproducible from a single artifact plus the
package version.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .mcengine import count_shifts
from .simulation import DEFAULT_INNINGS, PA_CAP_PER_HALF_INNING


class ConfigError(ValueError):
    pass


DEFAULT_D_ALPHA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
DEFAULT_D_WOBA_GRID = (0.0, -0.005, -0.01, -0.015)


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
          str: ((str,), "a string")}


@cache
def _declared(cls) -> tuple[tuple[str, type, bool, bool], ...]:
    """Each non-section field's declared type, read from its annotation, as
    (name, scalar type, whether it is a tuple grid of them, whether None is
    allowed)."""
    declared = []
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            continue
        optional = type(None) in get_args(hint)
        if optional:
            hint = next(a for a in get_args(hint) if a is not type(None))
        grid = get_origin(hint) is tuple
        declared.append((name, get_args(hint)[0] if grid else hint, grid, optional))
    return tuple(declared)


def _require_types(section, where: str) -> None:
    """Reject a value of the wrong type before any range or file check reads
    it.  Each field's type is its annotation: an int takes an int, a float
    a finite int or float, a str a str, and a tuple grid a list of those,
    checked entry by entry; "| None" lets None pass.  A bool is none of
    these.  An accepted float field or grid is stored as floats, so a JSON
    0 and 0.0 give the same config and write the same bytes."""
    for name, kind, grid, optional in _declared(type(section)):
        value = getattr(section, name)
        if value is None and optional:
            continue
        if grid and not isinstance(value, (tuple, list)):
            raise ConfigError(f"{where}{name} must be a list, got {value!r}")
        allowed, what = _KINDS[kind]
        for v in value if grid else (value,):
            if (isinstance(v, bool) or not isinstance(v, allowed)
                    or (kind is not str and not math.isfinite(v))):
                raise ConfigError(f"{where}{name}{' entries' if grid else ''} "
                                  f"must be {what}, got {v!r}")
        if kind is float:
            object.__setattr__(section, name, tuple(map(float, value))
                               if grid else float(value))


def _require_file(path, where: str) -> None:
    if path is not None and not os.path.isfile(path):
        raise ConfigError(f"{where}: file not found: {path}")


@dataclass(frozen=True)
class LineupConfig:
    """source "targets": fit vectors from slash-line targets (bundled file
    when targets_path is null). source "vectors": load explicit ability
    vectors from a JSON list."""

    source: str = "targets"
    targets_path: str | None = None
    vectors_path: str | None = None

    def validate(self) -> None:
        _require_types(self, "lineup.")
        if self.source not in ("targets", "vectors"):
            raise ConfigError(f"lineup.source must be 'targets' or 'vectors', "
                              f"got {self.source!r}")
        if self.source == "vectors" and self.vectors_path is None:
            raise ConfigError("lineup.source 'vectors' needs lineup.vectors_path")
        _require_file(self.targets_path, "lineup.targets_path")
        _require_file(self.vectors_path, "lineup.vectors_path")


@dataclass(frozen=True)
class TransitionConfig:
    """source: "bundled" (shipped synthetic table), "simple" (deterministic
    advancement), "event-csv" (estimate from event_csv), or "synthetic"
    (regenerate from synthetic_events/synthetic_seed)."""

    source: str = "bundled"
    event_csv: str | None = None
    min_count: int = 5
    synthetic_events: int = 150_000
    synthetic_seed: int = 97

    def validate(self) -> None:
        _require_types(self, "transitions.")
        if self.source not in ("bundled", "simple", "event-csv", "synthetic"):
            raise ConfigError(f"transitions.source {self.source!r} not recognized")
        if self.source == "event-csv":
            if self.event_csv is None:
                raise ConfigError("transitions.source 'event-csv' needs "
                                  "transitions.event_csv")
            _require_file(self.event_csv, "transitions.event_csv")
        if self.min_count < 0:
            raise ConfigError("transitions.min_count must be >= 0")
        if self.synthetic_events < 1:
            raise ConfigError("transitions.synthetic_events must be >= 1")


MIN_PLAYERS = 5  # the fewest whose pairs reach the 10 that training needs


@dataclass(frozen=True)
class ConverterConfig:
    """params_path null means the bundled trained model. n_players and
    train_seed drive the train-converter command."""

    params_path: str | None = None
    n_players: int = 502
    train_seed: int = 0

    def validate(self) -> None:
        _require_types(self, "converter.")
        _require_file(self.params_path, "converter.params_path")
        if self.n_players < MIN_PLAYERS:
            raise ConfigError(f"converter.n_players must be >= {MIN_PLAYERS}")


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "fixed"
    d_alpha: float = 0.1
    d_woba: float = -0.005
    theta_o: float | None = None
    theta_l: float | None = None

    def validate(self) -> None:
        _require_types(self, "policy.")
        if self.kind not in ("normal-only", "fixed", "threshold"):
            raise ConfigError(f"policy.kind {self.kind!r} not recognized")
        if self.d_alpha < 0:
            raise ConfigError("policy.d_alpha must be >= 0")
        if self.d_woba > 0:
            raise ConfigError("policy.d_woba must be <= 0")
        if self.kind == "threshold":
            if self.theta_o is None or self.theta_l is None:
                raise ConfigError("threshold policy needs policy.theta_o "
                                  "and policy.theta_l")
            if not self.theta_l < self.theta_o:
                raise ConfigError("policy.theta_l must be < policy.theta_o")


@dataclass(frozen=True)
class SweepConfig:
    """Grids for the two sweep modes. Null theta grids are derived from the
    run-expectancy quantiles of the active transition table at sweep time."""

    mode: str = "strategy-grid"
    d_alpha_grid: tuple[float, ...] = DEFAULT_D_ALPHA_GRID
    d_woba_grid: tuple[float, ...] = DEFAULT_D_WOBA_GRID
    theta_o_grid: tuple[float, ...] | None = None
    theta_l_grid: tuple[float, ...] | None = None
    threshold_d_alpha: float = 0.1
    threshold_d_woba: float = -0.005

    def validate(self) -> None:
        _require_types(self, "sweep.")
        if self.mode not in ("strategy-grid", "threshold-grid"):
            raise ConfigError(f"sweep.mode {self.mode!r} not recognized")
        if len(self.d_alpha_grid) == 0 or len(self.d_woba_grid) == 0:
            raise ConfigError("sweep grids must be nonempty")
        if any(a < 0 for a in self.d_alpha_grid):
            raise ConfigError("sweep.d_alpha_grid values must be >= 0")
        if any(w > 0 for w in self.d_woba_grid):
            raise ConfigError("sweep.d_woba_grid values must be <= 0")
        for name in ("theta_o_grid", "theta_l_grid"):
            grid = getattr(self, name)
            if grid is not None and len(grid) == 0:
                raise ConfigError(f"sweep.{name} must be nonempty when given")
        if self.threshold_d_alpha < 0:
            raise ConfigError("sweep.threshold_d_alpha must be >= 0")
        if self.threshold_d_woba > 0:
            raise ConfigError("sweep.threshold_d_woba must be <= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    lineup: LineupConfig = field(default_factory=LineupConfig)
    transitions: TransitionConfig = field(default_factory=TransitionConfig)
    converter: ConverterConfig = field(default_factory=ConverterConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    n_games: int = 100_000
    seed: int = 2026
    workers: int = 1
    innings: int = DEFAULT_INNINGS
    pa_cap: int = PA_CAP_PER_HALF_INNING

    def validate(self) -> "ExperimentConfig":
        self.lineup.validate()
        self.transitions.validate()
        self.converter.validate()
        self.policy.validate()
        self.sweep.validate()
        _require_types(self, "")
        if self.n_games < 1:
            raise ConfigError("n_games must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.innings < 1:
            raise ConfigError("innings must be >= 1")
        if self.pa_cap < 1:
            raise ConfigError("pa_cap must be >= 1")
        try:
            count_shifts(self.innings, self.pa_cap)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self


_SECTION_TYPES = {
    "lineup": LineupConfig,
    "transitions": TransitionConfig,
    "converter": ConverterConfig,
    "policy": PolicyConfig,
    "sweep": SweepConfig,
}
_TOP_LEVEL = {f.name for f in fields(ExperimentConfig)}


def _section_from_obj(cls, obj: dict, where: str):
    _require_keys(obj, {f.name for f in fields(cls)}, where)
    kwargs = dict(obj)
    for name, _, grid, _ in _declared(cls):
        if grid and isinstance(kwargs.get(name), list):
            kwargs[name] = tuple(kwargs[name])
    return cls(**kwargs)


def config_from_json_obj(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(obj, _TOP_LEVEL, "config")
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        if name in obj:
            section = obj[name]
            if not isinstance(section, dict):
                raise ConfigError(f"config.{name} must be an object")
            kwargs[name] = _section_from_obj(cls, section, f"config.{name}")
    for name in _TOP_LEVEL - set(_SECTION_TYPES):
        if name in obj:
            kwargs[name] = obj[name]
    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def config_to_json_obj(cfg: ExperimentConfig) -> dict:
    obj = asdict(cfg)
    for section in obj.values():
        if isinstance(section, dict):
            for k, v in section.items():
                if isinstance(v, tuple):
                    section[k] = list(v)
    return obj


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"config file not found or unreadable: {path} "
                          f"({exc.strerror})") from exc
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_json_obj(obj)


def dump_config(cfg: ExperimentConfig, fh) -> None:
    json.dump(config_to_json_obj(cfg), fh, indent=2)
    fh.write("\n")


def with_overrides(cfg: ExperimentConfig, *, seed: int | None = None,
                   workers: int | None = None) -> ExperimentConfig:
    """Apply the CLI-level --seed/--workers overrides."""
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if workers is not None:
        cfg = replace(cfg, workers=workers)
    return cfg.validate()
