"""Experiment-config loading, validation, and round trips."""

import dataclasses
import io
import json
import os

import pytest

from batsim.abilities import MAX_SHARE_SHIFT, MAX_WOBA
from batsim.config import (
    DEFAULT_D_ALPHA_GRID,
    DEFAULT_D_WOBA_GRID,
    ConfigError,
    ConverterConfig,
    ExperimentConfig,
    LineupConfig,
    PolicyConfig,
    SweepConfig,
    TransitionConfig,
    config_from_json_obj,
    dump_config,
    load_config,
    with_override,
)


def test_defaults_validate():
    cfg = ExperimentConfig()
    assert cfg.n_games == 100_000
    assert cfg.sweep.d_alpha_grid == DEFAULT_D_ALPHA_GRID
    assert cfg.sweep.d_woba_grid == DEFAULT_D_WOBA_GRID


def test_json_round_trip():
    cfg = ExperimentConfig()
    assert config_from_json_obj(dataclasses.asdict(cfg)) == cfg


def test_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = ExperimentConfig(n_games=123, seed=9)
    with open(path, "w", encoding="utf-8") as fh:
        dump_config(cfg, fh)
    assert load_config(path) == cfg


def test_partial_document_gets_defaults():
    cfg = config_from_json_obj({"n_games": 50})
    assert cfg.n_games == 50
    assert cfg.seed == ExperimentConfig().seed


def test_unknown_top_level_key():
    # innings and pa_cap are engine parameters, not config settings
    for key in ("ngames", "innings", "pa_cap"):
        with pytest.raises(ConfigError, match=key):
            config_from_json_obj({key: 5})


def test_unknown_nested_key():
    with pytest.raises(ConfigError, match="config.policy"):
        config_from_json_obj({"policy": {"kind": "fixed", "thetao": 1.0}})


def test_non_object_root():
    with pytest.raises(ConfigError):
        config_from_json_obj([1, 2, 3])


def test_non_object_section():
    with pytest.raises(ConfigError):
        config_from_json_obj({"policy": "fixed"})


def test_grid_lists_become_tuples():
    cfg = config_from_json_obj({"sweep": {"d_alpha_grid": [0.0, 0.1]}})
    assert cfg.sweep.d_alpha_grid == (0.0, 0.1)


def test_grid_must_be_list():
    with pytest.raises(ConfigError):
        config_from_json_obj({"sweep": {"d_alpha_grid": 0.1}})


@pytest.mark.parametrize("field,value", [
    ("n_games", 0), ("seed", -1), ("workers", 0),
    ("n_games", "100"), ("n_games", 100.5), ("workers", True), ("seed", 1.0),
    ("n_games", None),
])
def test_top_level_bounds(field, value):
    with pytest.raises(ConfigError):
        config_from_json_obj({field: value})


def _from_json(path, value):
    section, _, name = path.rpartition(".")
    return config_from_json_obj({section: {name: value}} if section
                                else {name: value})


def _direct(path, value):
    section, _, name = path.rpartition(".")
    if not section:
        return ExperimentConfig(**{name: value})
    cls = type(getattr(ExperimentConfig(), section))
    return ExperimentConfig(**{section: cls(**{name: value})})


def _replace(path, value):
    cfg = ExperimentConfig()
    section, _, name = path.rpartition(".")
    if not section:
        return dataclasses.replace(cfg, **{name: value})
    return dataclasses.replace(cfg, **{section: dataclasses.replace(
        getattr(cfg, section), **{name: value})})


def _override(path, value):
    return with_override(ExperimentConfig(), path, value)


@pytest.mark.parametrize("make", [_from_json, _override, _direct, _replace])
@pytest.mark.parametrize("path,value,message", [
    ("n_games", 0, "n_games must be >= 1"),
    ("workers", 0, "workers must be >= 1"),
    ("policy.d_woba", 0.1, "policy.d_woba must be <= 0"),
    ("transitions.min_count", -1, "transitions.min_count must be >= 0"),
])
def test_every_way_of_making_a_config_checks_it(make, path, value, message):
    """A config is checked when it is made: a file, a flag's override,
    direct construction and dataclasses.replace pass one gate."""
    with pytest.raises(ConfigError, match=message):
        make(path, value)


@pytest.mark.parametrize("section,field,value", [
    ("transitions", "min_count", True), ("converter", "n_players", 80.0),
])
def test_section_integers_reject_other_types(section, field, value):
    with pytest.raises(ConfigError, match=f"{section}.{field} must be an integer"):
        config_from_json_obj({section: {field: value}})


@pytest.mark.parametrize("section,field,value", [
    ("policy", "d_alpha", "0.1"), ("policy", "d_alpha", float("inf")),
    ("policy", "d_alpha", None), ("policy", "d_woba", True),
    ("policy", "theta_o", "1.0"), ("policy", "theta_l", float("nan")),
    ("sweep", "d_alpha_grid", ["0.1"]), ("sweep", "d_woba_grid", [float("nan")]),
    ("sweep", "theta_o_grid", [1.0, True]), ("sweep", "theta_l_grid", ["0.2"]),
])
def test_section_reals_reject_other_types(section, field, value):
    with pytest.raises(ConfigError,
                       match=f"{section}.{field}( entries)? must be a finite number"):
        config_from_json_obj({section: {field: value}})


def test_section_reals_store_integers_as_floats():
    cfg = config_from_json_obj({
        "policy": {"d_alpha": 0, "d_woba": 0, "theta_o": 2},
        "sweep": {"d_alpha_grid": [0, 0.1], "d_woba_grid": [0],
                  "theta_l_grid": [1]}})
    reals = (cfg.policy.d_alpha, cfg.policy.d_woba, cfg.policy.theta_o,
             *cfg.sweep.d_alpha_grid, *cfg.sweep.d_woba_grid,
             *cfg.sweep.theta_l_grid)
    assert all(type(v) is float for v in reals)
    assert cfg.sweep.d_alpha_grid == (0.0, 0.1)
    assert dataclasses.asdict(cfg)["sweep"]["d_woba_grid"] == (0.0,)


@pytest.mark.parametrize("section,field,value", [
    ("lineup", "targets_path", [1]), ("lineup", "vectors_path", 3.0),
    ("transitions", "source", 3), ("transitions", "event_csv", ["a.csv"]),
    ("transitions", "source", None), ("converter", "params_path", True),
    ("policy", "kind", ["fixed"]), ("sweep", "mode", {}),
])
def test_section_strings_reject_other_types(section, field, value):
    with pytest.raises(ConfigError, match=f"{section}.{field} must be a string"):
        config_from_json_obj({section: {field: value}})


def test_path_is_not_taken_as_a_file_descriptor(tmp_path):
    # os.path.isfile accepts an open descriptor, so an int path to an open
    # file would pass a file check that came before the type check
    fd = os.open(tmp_path / "open.json", os.O_CREAT | os.O_RDONLY)
    try:
        assert os.path.isfile(fd)
        with pytest.raises(ConfigError, match="lineup.targets_path must be a string"):
            config_from_json_obj({"lineup": {"targets_path": fd}})
    finally:
        os.close(fd)


def test_reals_take_ints_and_optional_none():
    cfg = config_from_json_obj({
        "policy": {"kind": "threshold", "d_woba": 0, "theta_o": 2, "theta_l": 0},
        "sweep": {"d_alpha_grid": [0, 0.1], "theta_o_grid": None}})
    assert cfg.policy.theta_o == 2 and cfg.sweep.d_alpha_grid == (0, 0.1)


# a value that the config's choice of source or policy kind leaves unread is
# still checked: a run never holds a setting it could not use
@pytest.mark.parametrize("obj, message", [
    ({"transitions": {"event_csv": "missing.csv"}},
     "transitions.event_csv: file not found"),
    ({"policy": {"kind": "fixed", "theta_o": 0.3, "theta_l": 0.5}},
     "policy.theta_l must be < policy.theta_o"),
], ids=["event_csv", "thetas"])
def test_a_value_is_checked_whenever_it_is_set(obj, message, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)  # missing.csv is missing here
    with pytest.raises(ConfigError, match=message):
        config_from_json_obj(obj)


class TestLineupConfig:
    def test_bad_source(self, tmp_path):
        # the source is the path that is set: both is an error, and the
        # source key itself is gone
        p = tmp_path / "t.json"
        p.write_text("{}")
        with pytest.raises(ConfigError, match="cannot both be set"):
            LineupConfig(targets_path=str(p), vectors_path=str(p))
        with pytest.raises(ConfigError, match=r"config.lineup: \['source'\]"):
            config_from_json_obj({"lineup": {"source": "targets"}})

    def test_vectors_needs_path(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text("[]")
        assert LineupConfig(vectors_path=str(p)).vectors_path == str(p)
        with pytest.raises(ConfigError, match="not found"):
            LineupConfig(vectors_path=str(tmp_path / "nope.json"))
        # an old config naming the vectors source is rejected, not run on
        # the fitted targets
        with pytest.raises(ConfigError, match="source"):
            config_from_json_obj({"lineup": {"source": "vectors",
                                             "vectors_path": str(p)}})

    def test_missing_file_rejected_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            LineupConfig(targets_path=str(tmp_path / "nope.json"))

    def test_existing_file_accepted(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text("{}")
        LineupConfig(targets_path=str(p))


class TestTransitionConfig:
    def test_bad_source(self):
        for source in ("empirical", "synthetic"):
            with pytest.raises(ConfigError, match="transitions.source must be "
                               "one of bundled, simple, event-csv"):
                TransitionConfig(source=source)

    def test_event_csv_needs_path(self):
        with pytest.raises(ConfigError):
            TransitionConfig(source="event-csv")

    def test_negative_min_count(self):
        with pytest.raises(ConfigError):
            TransitionConfig(min_count=-1)

    def test_zero_synthetic_events(self):
        # the synthetic source and its settings are gone: a config asking
        # for them is rejected, not run on another table
        for section in ({"source": "synthetic"}, {"synthetic_events": 0},
                        {"synthetic_seed": 97}):
            with pytest.raises(ConfigError, match="transitions"):
                config_from_json_obj({"transitions": section})


class TestConverterConfig:
    def test_too_few_players(self):
        # 4 players give 6 pairs; training needs 10
        for n in (1, 4):
            with pytest.raises(ConfigError, match="converter.n_players"):
                ConverterConfig(n_players=n)
        ConverterConfig(n_players=5)

    def test_missing_params_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ConverterConfig(params_path=str(tmp_path / "p.json"))


class TestPolicyConfig:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            PolicyConfig(kind="aggressive")

    def test_negative_spread(self):
        with pytest.raises(ConfigError):
            PolicyConfig(d_alpha=-0.1)

    def test_positive_cost(self):
        with pytest.raises(ConfigError):
            PolicyConfig(d_woba=0.01)

    @pytest.mark.parametrize("shift, message", [
        ({"d_alpha": 1e300, "d_woba": 0.0}, "policy.d_alpha must be <= 1"),
        ({"d_alpha": 1.0 + 1e-9}, "policy.d_alpha must be <= 1"),
        ({"d_woba": -2.0651}, "policy.d_woba must be >= -2.065"),
    ])
    def test_shift_no_profile_can_make(self, shift, message):
        """An on-base share lies in [0, 1] and a wOBA in [0, MAX_WOBA]."""
        with pytest.raises(ConfigError, match=message):
            PolicyConfig(**shift)
        PolicyConfig(d_alpha=MAX_SHARE_SHIFT, d_woba=-MAX_WOBA)

    def test_threshold_needs_thetas(self):
        with pytest.raises(ConfigError):
            PolicyConfig(kind="threshold")

    def test_threshold_ordering(self):
        with pytest.raises(ConfigError):
            PolicyConfig(kind="threshold", theta_o=0.3, theta_l=0.5)
        PolicyConfig(kind="threshold", theta_o=1.0, theta_l=0.3)


class TestSweepConfig:
    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            SweepConfig(mode="grid")

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            SweepConfig(d_alpha_grid=())

    def test_negative_alpha_grid(self):
        with pytest.raises(ConfigError):
            SweepConfig(d_alpha_grid=(-0.1, 0.0))

    def test_positive_woba_grid(self):
        with pytest.raises(ConfigError):
            SweepConfig(d_woba_grid=(0.005,))

    @pytest.mark.parametrize("grids, message", [
        ({"d_alpha_grid": (0.1, 1e308)}, "sweep.d_alpha_grid values must be <= 1"),
        ({"d_woba_grid": (0.0, -3.0)}, "sweep.d_woba_grid values must be >= -2.065"),
    ])
    def test_grid_shift_no_profile_can_make(self, grids, message):
        with pytest.raises(ConfigError, match=message):
            SweepConfig(**grids)
        SweepConfig(d_alpha_grid=(0.0, MAX_SHARE_SHIFT), d_woba_grid=(-MAX_WOBA,))

    def test_empty_theta_grid_when_given(self):
        with pytest.raises(ConfigError):
            SweepConfig(theta_o_grid=())

    def test_null_theta_grids_allowed(self):
        SweepConfig(theta_o_grid=None, theta_l_grid=None)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)


def test_with_overrides():
    cfg = with_override(ExperimentConfig(), "seed", 7)
    cfg = with_override(cfg, "converter.n_players", 12)
    assert cfg.seed == 7 and cfg.converter.n_players == 12
    assert cfg == ExperimentConfig(seed=7, converter=ConverterConfig(n_players=12))
    for field, value in (("workers", 0), ("converter.n_players", 4),
                         ("transitions.min_count", -1), ("sweep.mode", "grid")):
        with pytest.raises(ConfigError, match=field):
            with_override(ExperimentConfig(), field, value)


def test_dump_is_valid_json():
    buf = io.StringIO()
    dump_config(ExperimentConfig(), buf)
    obj = json.loads(buf.getvalue())
    assert obj["sweep"]["d_alpha_grid"] == list(DEFAULT_D_ALPHA_GRID)
