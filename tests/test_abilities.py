import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings

from batsim.abilities import (
    LEAGUE_AVERAGE,
    AbilityVector,
    AbilityVectorError,
    NoOutProbabilityError,
    SlashTargets,
    fit_ability_vector,
    fit_residuals,
    onbase_share,
    slash_stats,
    validate,
    woba,
)
from conftest import ability_vectors

# Shared fixtures: a mixed mid-lineup profile and degenerate extremes.
MIXED = AbilityVector(0.15, 0.05, 0.005, 0.03, 0.08, 0.18, 0.30, 0.205)
ALL_K = AbilityVector(0, 0, 0, 0, 0, 1.0, 0, 0)
ALL_HR = AbilityVector(0, 0, 0, 1.0, 0, 0, 0, 0)
# a valid vector whose wOBA, 1.029, is above 1: 23% of it is homers
WOBA_ABOVE_ONE = AbilityVector(0.12, 0.12, 0.12, 0.23, 0.12, 0.09, 0.1, 0.1)


class TestValidate:
    def test_all_strikeout_is_valid(self):
        assert validate(ALL_K) is ALL_K

    def test_mixed_vector_is_valid(self):
        assert math.fsum(MIXED.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert validate(MIXED) is MIXED

    def test_all_homer_has_no_out_probability(self):
        with pytest.raises(NoOutProbabilityError):
            validate(ALL_HR)

    def test_negative_component(self):
        with pytest.raises(AbilityVectorError, match="component 1b is negative"):
            AbilityVector(-0.01, 0.06, 0.005, 0.03, 0.08, 0.18, 0.30, 0.255)

    def test_sum_off_by_more_than_tolerance(self):
        with pytest.raises(AbilityVectorError, match="components sum to .*, not 1"):
            AbilityVector(0.15, 0.05, 0.005, 0.03, 0.08, 0.18, 0.30, 0.2)

    def test_sum_within_strict_tolerance_passes(self):
        nudged = AbilityVector(0.15, 0.05, 0.005, 0.03, 0.08, 0.18, 0.30, 0.205 + 5e-10)
        assert validate(nudged) is nudged

    @given(ability_vectors())
    def test_generated_vectors_validate(self, vec):
        assert validate(vec) is vec


# Each invalid vector, as the components it changes in MIXED, and its
# message.  The negative one still sums to 1; the last sums to 1 - 1e-5.
_INVALID = [({"1b": math.nan}, "component 1b is not finite"),
            ({"1b": -0.01, "f": MIXED.p_f + MIXED.p_1b + 0.01},
             "component 1b is negative"),
            ({"f": MIXED.p_f - 1e-5}, "components sum to 0.9999")]


def _direct(changes):
    return AbilityVector(**{**dataclasses.asdict(MIXED),
                            **{"p_" + k: v for k, v in changes.items()}})


def _from_json(changes):
    return AbilityVector.from_json_dict({**MIXED.to_json_dict(), **changes})


def _replace(changes):
    return dataclasses.replace(MIXED, **{"p_" + k: v for k, v in changes.items()})


@pytest.mark.parametrize("make", [_direct, _from_json, _replace])
@pytest.mark.parametrize("changes,message", _INVALID)
def test_every_way_of_making_a_vector_checks_it(make, changes, message):
    """A vector is checked when it is made, however it is made, so no
    consumer (run expectancy, a lineup, a sweep's mean batter) can receive
    one that is not finite, has a negative rate or does not sum to one."""
    with pytest.raises(AbilityVectorError, match=message):
        make(changes)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(MIXED.to_json_dict()))
        loaded = AbilityVector.from_json_dict(json.loads(path.read_text()))
        assert loaded == MIXED

    def test_key_order_and_names(self):
        assert list(MIXED.to_json_dict()) == ["1b", "2b", "3b", "hr", "bb", "k", "g", "f"]

    def test_parse_rescales_small_drift_with_warning(self):
        obj = MIXED.to_json_dict()
        obj["f"] += 3e-7
        with pytest.warns(UserWarning):
            vec = AbilityVector.from_json_dict(obj)
        assert math.fsum(vec.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_parse_rejects_large_drift(self):
        obj = MIXED.to_json_dict()
        obj["f"] += 1e-4
        with pytest.raises(AbilityVectorError, match="components sum to"):
            AbilityVector.from_json_dict(obj)

    def test_parse_rejects_missing_and_unknown_keys(self):
        obj = MIXED.to_json_dict()
        del obj["3b"]
        with pytest.raises(AbilityVectorError):
            AbilityVector.from_json_dict(obj)
        obj = MIXED.to_json_dict()
        obj["hbp"] = 0.0
        with pytest.raises(AbilityVectorError):
            AbilityVector.from_json_dict(obj)


class TestOnbaseShare:
    def test_mixed_vector_hand_computed(self):
        # num = 0.437*0.15 + 0.294*0.08            = 0.08907
        # den = num + 0.786*0.05 + 1.117*0.005 + 1.408*0.03 = 0.176195
        expected = 0.08907 / 0.176195
        assert onbase_share(MIXED) == pytest.approx(expected, abs=1e-12)
        assert onbase_share(MIXED) == pytest.approx(0.5055, abs=1e-4)

    def test_walk_only_profile_is_one(self):
        vec = AbilityVector(0, 0, 0, 0, 0.5, 0.5, 0, 0)
        assert onbase_share(vec) == pytest.approx(1.0, abs=1e-15)

    def test_power_only_profile_is_zero(self):
        vec = AbilityVector(0, 0, 0, 0.2, 0, 0.8, 0, 0)
        assert onbase_share(vec) == 0.0

    def test_no_positive_mass_raises(self):
        with pytest.raises(AbilityVectorError, match="no on-base probability mass"):
            onbase_share(ALL_K)

    @given(ability_vectors())
    def test_bounded_in_unit_interval(self, vec):
        assert 0.0 <= onbase_share(vec) <= 1.0


class TestWoba:
    def test_mixed_vector_hand_computed(self):
        # 0.692*0.08 + 0.865*0.15 + 1.334*0.05 + 1.725*0.005 + 2.065*0.03
        assert woba(MIXED) == pytest.approx(0.322385, abs=1e-12)

    def test_homer_only(self):
        vec = AbilityVector(0, 0, 0, 0.05, 0, 0.95, 0, 0)
        assert woba(vec) == pytest.approx(2.065 * 0.05, abs=1e-15)

    @given(ability_vectors())
    def test_monotone_in_outcome_upgrades(self, vec):
        """Moving mass from a single to a homer never lowers the stat."""
        if vec.p_1b < 0.01:
            return
        shift = vec.p_1b / 2
        upgraded = AbilityVector(
            vec.p_1b - shift, vec.p_2b, vec.p_3b, vec.p_hr + shift,
            vec.p_bb, vec.p_k, vec.p_g, vec.p_f,
        )
        assert woba(upgraded) >= woba(vec)


class TestSlashStats:
    def test_mixed_vector_hand_computed(self):
        obp, slg = slash_stats(MIXED)
        assert obp == pytest.approx(0.315, abs=1e-12)
        # total bases = 0.15 + 0.10 + 0.015 + 0.12 = 0.385; at-bats = 0.92
        assert slg == pytest.approx(0.385 / 0.92, abs=1e-12)

    def test_all_walk_vector_raises(self):
        with pytest.raises(AbilityVectorError, match="slugging is undefined"):
            slash_stats(AbilityVector(0, 0, 0, 0, 1.0, 0, 0, 0))

    @given(ability_vectors())
    def test_obp_is_positive_mass(self, vec):
        obp, slg = slash_stats(vec)
        assert obp == pytest.approx(math.fsum(vec.positives), abs=1e-12)
        assert 0.0 <= slg <= 4.0 / (1.0 - vec.p_bb)


class TestParameterValidation:
    def test_slash_targets_range_checks(self):
        with pytest.raises(ValueError):
            SlashTargets(obp=1.2, slg=0.4, woba=0.3, onbase_share=0.5)
        with pytest.raises(ValueError):
            SlashTargets(obp=0.3, slg=4.5, woba=0.3, onbase_share=0.5)
        # wOBA reaches the homer weight, 2.065, and no further
        SlashTargets(obp=1.0, slg=4.0, woba=2.065, onbase_share=0.0)
        with pytest.raises(ValueError, match="woba must lie in"):
            SlashTargets(obp=0.3, slg=0.4, woba=2.07, onbase_share=0.5)


class TestFitAbilityVector:
    TOL = 0.005

    def test_high_onbase_table_row_fits(self):
        # Leadoff-style row: modest power, high share of value from reaching base.
        targets = SlashTargets(obp=0.393, slg=0.476, woba=0.383, onbase_share=0.54)
        vec = fit_ability_vector(targets, LEAGUE_AVERAGE)
        validate(vec)
        res = fit_residuals(vec, targets)
        assert max(abs(r) for r in res.values()) <= self.TOL

    def test_fit_matches_each_stat(self):
        targets = SlashTargets(obp=0.316, slg=0.369, woba=0.307, onbase_share=0.58)
        vec = fit_ability_vector(targets, LEAGUE_AVERAGE)
        obp, slg = slash_stats(vec)
        assert obp == pytest.approx(targets.obp, abs=self.TOL)
        assert slg == pytest.approx(targets.slg, abs=self.TOL)
        assert woba(vec) == pytest.approx(targets.woba, abs=self.TOL)
        assert onbase_share(vec) == pytest.approx(targets.onbase_share, abs=self.TOL)

    def test_out_mass_keeps_league_proportions(self):
        targets = SlashTargets(obp=0.335, slg=0.411, woba=0.331, onbase_share=0.59)
        vec = fit_ability_vector(targets, LEAGUE_AVERAGE)
        assert vec.p_k / vec.out_mass == pytest.approx(
            LEAGUE_AVERAGE.p_k / LEAGUE_AVERAGE.out_mass, abs=1e-9)
        assert vec.p_g / vec.out_mass == pytest.approx(
            LEAGUE_AVERAGE.p_g / LEAGUE_AVERAGE.out_mass, abs=1e-9)

    def test_contradictory_targets_raise(self):
        # Slugging 1.0 with on-base probability 0 cannot coexist.
        targets = SlashTargets(obp=0.0, slg=1.0, woba=0.0, onbase_share=0.0)
        with pytest.raises(AbilityVectorError, match="no vector within"):
            fit_ability_vector(targets, LEAGUE_AVERAGE)

    def test_league_anchor_must_have_out_mass(self):
        bad = AbilityVector(0.5, 0.1, 0.05, 0.05, 0.3, 0, 0, 0)
        targets = SlashTargets(obp=0.3, slg=0.4, woba=0.3, onbase_share=0.5)
        with pytest.raises(AbilityVectorError):
            fit_ability_vector(targets, bad)

    @given(ability_vectors())
    @example(WOBA_ABOVE_ONE)
    def test_own_stats_have_zero_residuals(self, vec):
        """The fit scores a vector with the same formulas that compute its
        stats, so its own stat line is met exactly, not to the last bit."""
        targets = SlashTargets(*slash_stats(vec), woba(vec), onbase_share(vec))
        assert fit_residuals(vec, targets) == {
            "obp": 0.0, "slg": 0.0, "woba": 0.0, "onbase_share": 0.0}

    @settings(max_examples=15, deadline=None)
    @given(ability_vectors())
    @example(WOBA_ABOVE_ONE)
    def test_round_trip_from_own_stats(self, vec):
        """Fitting a vector's own stat line recovers an equivalent stat line."""
        targets = SlashTargets(*slash_stats(vec), woba(vec), onbase_share(vec))
        fitted = fit_ability_vector(targets, vec)
        res = fit_residuals(fitted, targets)
        assert max(abs(r) for r in res.values()) <= self.TOL
