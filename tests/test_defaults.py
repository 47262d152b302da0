"""Bundled data assets: lineup targets, fitted cache, transition table,
trained converter."""

import json
import shutil

import numpy as np
import pytest

from batsim import defaults
from batsim.abilities import (
    LEAGUE_AVERAGE,
    SlashTargets,
    fit_ability_vector,
    fit_residuals,
    onbase_share,
    validate,
    woba,
)
from batsim.config import TransitionConfig
from batsim.conversion import forward
from batsim.defaults import (
    FITTED_ASSET,
    TABLE_ASSET,
    TARGETS_ASSET,
    bundled_lineup_targets,
    default_converter_params,
    default_transition_table,
    fitted_lineup,
)
from batsim.synthdata import synthesize_event_log
from batsim.transitions import Outcome, build_table


def test_bundled_targets():
    targets = bundled_lineup_targets()
    assert len(targets) == 9
    for t in targets:
        assert 0.2 < t.obp < 0.5
        assert 0.2 < t.slg < 0.7
        assert 0.2 < t.woba < 0.5
        assert 0.3 < t.onbase_share < 0.9


def _no_fit(*args, **kwargs):
    raise AssertionError("the lineup was refitted")


def test_fitted_lineup_served_from_cache(monkeypatch):
    # the shipped cache must match the shipped targets: nothing is refitted
    monkeypatch.setattr(defaults, "fit_ability_vector", _no_fit)
    vectors = fitted_lineup()
    assert len(vectors) == 9
    for v in vectors:
        validate(v)


def test_fitted_lineup_residuals_within_fit_tolerance():
    cached = json.loads(
        (defaults._data_root() / FITTED_ASSET).read_text(encoding="utf-8"))
    for v, t, res in zip(fitted_lineup(), bundled_lineup_targets(),
                         cached["residuals"], strict=True):
        assert fit_residuals(v, t) == res
        assert set(res) == {"obp", "slg", "woba", "onbase_share"}
        assert max(abs(x) for x in res.values()) <= 0.005


def test_fitted_vectors_hit_targets():
    from batsim.abilities import slash_stats

    for v, t in zip(fitted_lineup(), bundled_lineup_targets()):
        obp, slg = slash_stats(v)
        assert obp == pytest.approx(t.obp, abs=0.005)
        assert slg == pytest.approx(t.slg, abs=0.005)
        assert woba(v) == pytest.approx(t.woba, abs=0.005)
        assert onbase_share(v) == pytest.approx(t.onbase_share, abs=0.005)


def test_custom_targets_refit_without_touching_cache(monkeypatch):
    custom = [SlashTargets(obp=0.330, slg=0.400, woba=0.320, onbase_share=0.60)]
    vectors = fitted_lineup(custom)
    assert vectors == (fit_ability_vector(custom[0], LEAGUE_AVERAGE),)
    # bundled cache still intact afterwards
    monkeypatch.setattr(defaults, "fit_ability_vector", _no_fit)
    assert len(fitted_lineup()) == 9


def _snapshot(directory):
    return {p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("cache", ["missing", "mismatched"])
def test_refit_never_writes_the_data_directory(tmp_path, monkeypatch, cache):
    bundled = fitted_lineup()
    data = tmp_path / "data"
    shutil.copytree(defaults._data_root(), data)
    # a one-slot lineup keeps the refit short; the nine-slot cache mismatches it
    targets_path = data / TARGETS_ASSET
    obj = json.loads(targets_path.read_text(encoding="utf-8"))
    obj["targets"] = obj["targets"][:1]
    targets_path.write_text(json.dumps(obj), encoding="utf-8")
    if cache == "missing":
        (data / FITTED_ASSET).unlink()
    monkeypatch.setattr(defaults, "_data_root", lambda: data)
    before = _snapshot(data)

    vectors = fitted_lineup()
    assert len(vectors) == 1
    assert vectors[0].as_tuple() == pytest.approx(bundled[0].as_tuple(),
                                                  abs=1e-12)
    assert _snapshot(data) == before


def test_default_transition_table():
    table = default_transition_table()
    assert table.coverage == 1.0
    entries = table.rows.get((0, 0, Outcome.SINGLE))
    assert entries is not None
    assert sum(e.prob for e in entries) == pytest.approx(1.0, abs=1e-9)


def test_bundled_table_regenerates_byte_for_byte(tmp_path):
    """The bundled table is the one the bundled synthetic event log builds at
    the default min_count, so a change to the event generator or the table
    builder that moves any event shows here."""
    events = synthesize_event_log(defaults.TABLE_EVENTS, seed=defaults.TABLE_SEED)
    build_table(events, min_count=TransitionConfig().min_count).save(
        tmp_path / TABLE_ASSET)
    bundled = (defaults._data_root() / TABLE_ASSET).read_bytes()
    assert (tmp_path / TABLE_ASSET).read_bytes() == bundled


def test_default_converter_params():
    params = default_converter_params()
    out = forward(params, np.zeros((1, 9)))
    assert out.shape == (1, 7)
    assert np.all(np.isfinite(out))
