"""Experiment configuration: one JSON document holding every knob.

Each run setting lives here once.  The command-line flags that set one
(--seed, --workers, --players, --min-count, --policy, --mode) override its
field.  Each section and the config check themselves when made, so a config
file, a flag, direct construction and dataclasses.replace pass one gate.
The effective config (defaults, then the user's file, then those flags) can
always be dumped back out with --print-config, so a run is reproducible
from that single artifact plus the package version.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .abilities import MAX_SHARE_SHIFT, MAX_WOBA


class ConfigError(ValueError):
    pass


DEFAULT_D_ALPHA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
DEFAULT_D_WOBA_GRID = (0.0, -0.005, -0.01, -0.015)

# the allowed values of the three choice fields, also the CLI flags' choices
TABLE_SOURCES = ("bundled", "simple", "event-csv")
POLICY_KINDS = ("normal-only", "fixed", "threshold")
SWEEP_MODES = ("strategy-grid", "threshold-grid")


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
    these.  An accepted float field is stored as a float and a grid as a
    tuple of floats, so a JSON 0 and 0.0 give the same config and write the
    same bytes."""
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


def require_range(where: str, values, low: float, high: float) -> None:
    """Reject a value below low or above high, naming the bound it
    crosses."""
    for v in values:
        if v < low:
            raise ConfigError(f"{where} must be >= {low:g}, got {v!r}")
        if v > high:
            raise ConfigError(f"{where} must be <= {high:g}, got {v!r}")


def _require_choice(value, allowed: tuple[str, ...], where: str) -> None:
    if value not in allowed:
        raise ConfigError(f"{where} must be one of {', '.join(allowed)}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class LineupConfig:
    """Nine explicit ability vectors from the JSON list at vectors_path, or
    else vectors fitted to the slash-line targets at targets_path (the
    bundled targets when both are null)."""

    targets_path: str | None = None
    vectors_path: str | None = None

    def __post_init__(self):
        _require_types(self, "lineup.")
        if self.targets_path is not None and self.vectors_path is not None:
            raise ConfigError("lineup.targets_path and lineup.vectors_path "
                              "cannot both be set")
        _require_file(self.targets_path, "lineup.targets_path")
        _require_file(self.vectors_path, "lineup.vectors_path")


@dataclass(frozen=True)
class TransitionConfig:
    """source: "bundled" (shipped synthetic table), "simple" (deterministic
    advancement), or "event-csv" (estimated from event_csv, with min_count
    events per row before it replaces the simple fallback)."""

    source: str = "bundled"
    event_csv: str | None = None
    min_count: int = 5

    def __post_init__(self):
        _require_types(self, "transitions.")
        _require_choice(self.source, TABLE_SOURCES, "transitions.source")
        if self.source == "event-csv" and self.event_csv is None:
            raise ConfigError("transitions.source 'event-csv' needs "
                              "transitions.event_csv")
        _require_file(self.event_csv, "transitions.event_csv")
        if self.min_count < 0:
            raise ConfigError("transitions.min_count must be >= 0")


MIN_PLAYERS = 5  # the fewest whose pairs reach the 10 that training needs


@dataclass(frozen=True)
class ConverterConfig:
    """params_path null means the bundled trained model. n_players is the
    synthetic pool size of the train-converter command."""

    params_path: str | None = None
    n_players: int = 502

    def __post_init__(self):
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

    def __post_init__(self):
        _require_types(self, "policy.")
        _require_choice(self.kind, POLICY_KINDS, "policy.kind")
        require_range("policy.d_alpha", (self.d_alpha,), 0.0, MAX_SHARE_SHIFT)
        require_range("policy.d_woba", (self.d_woba,), -MAX_WOBA, 0.0)
        if self.theta_o is None or self.theta_l is None:
            if self.kind == "threshold":
                raise ConfigError("threshold policy needs policy.theta_o "
                                  "and policy.theta_l")
        elif not self.theta_l < self.theta_o:
            raise ConfigError("policy.theta_l must be < policy.theta_o")


@dataclass(frozen=True)
class SweepConfig:
    """Grids for the two sweep modes. Null theta grids are derived from the
    run-expectancy quantiles of the active transition table at sweep time;
    the threshold grid plays policy.d_alpha and policy.d_woba."""

    mode: str = "strategy-grid"
    d_alpha_grid: tuple[float, ...] = DEFAULT_D_ALPHA_GRID
    d_woba_grid: tuple[float, ...] = DEFAULT_D_WOBA_GRID
    theta_o_grid: tuple[float, ...] | None = None
    theta_l_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        _require_types(self, "sweep.")
        _require_choice(self.mode, SWEEP_MODES, "sweep.mode")
        if len(self.d_alpha_grid) == 0 or len(self.d_woba_grid) == 0:
            raise ConfigError("sweep grids must be nonempty")
        require_range("sweep.d_alpha_grid values", self.d_alpha_grid, 0.0,
                      MAX_SHARE_SHIFT)
        require_range("sweep.d_woba_grid values", self.d_woba_grid, -MAX_WOBA, 0.0)
        for name in ("theta_o_grid", "theta_l_grid"):
            grid = getattr(self, name)
            if grid is not None and len(grid) == 0:
                raise ConfigError(f"sweep.{name} must be nonempty when given")


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

    def __post_init__(self):
        _require_types(self, "")
        if self.n_games < 1:
            raise ConfigError("n_games must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


_SECTION_TYPES = {name: hint for name, hint
                  in get_type_hints(ExperimentConfig).items() if is_dataclass(hint)}
_TOP_LEVEL = {f.name for f in fields(ExperimentConfig)}


def config_from_json_obj(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(obj, _TOP_LEVEL, "config")
    kwargs = dict(obj)
    for name, cls in _SECTION_TYPES.items():
        if name in obj:
            section = obj[name]
            if not isinstance(section, dict):
                raise ConfigError(f"config.{name} must be an object")
            _require_keys(section, {f.name for f in fields(cls)}, f"config.{name}")
            kwargs[name] = cls(**section)
    return ExperimentConfig(**kwargs)


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
    json.dump(asdict(cfg), fh, indent=2)
    fh.write("\n")


def with_override(cfg: ExperimentConfig, path: str, value) -> ExperimentConfig:
    """cfg with the field at a dotted path ("seed", "converter.n_players")
    set to value, checked as any config is when made."""
    section, _, name = path.rpartition(".")
    if section:
        value = replace(getattr(cfg, section), **{name: value})
        name = section
    return replace(cfg, **{name: value})
