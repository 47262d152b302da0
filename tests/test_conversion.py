"""Tests for the strategy conversion model: pair data, MLP, training,
projection, and the convert operation."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings

from batsim.abilities import (
    LEAGUE_AVERAGE,
    WOBA_WEIGHTS,
    AbilityVector,
    onbase_share,
    validate,
    woba,
)
from batsim import conversion
from batsim.conversion import (
    HIDDEN_WIDTH,
    INPUT_ORDER,
    LAYOUT,
    N_PARAMS,
    PAIR_CSV_HEADER,
    REDUCED_KEYS,
    ConversionError,
    ConverterParams,
    PairDataset,
    ProjectionFailureError,
    ValidationMetrics,
    build_pair_dataset,
    convert,
    dump_pair_csv,
    evaluate,
    forward,
    gradient_check,
    gradients,
    _mean_loss,
    init_params,
    load_params,
    project_probabilities,
    save_params,
    synthesize_players,
    train,
)
from batsim.defaults import CONVERTER_ASSET
from batsim.strategies import build_triple, fixed_policy, always_normal
from batsim.simulation import Lineup, monte_carlo
from batsim.transitions import TransitionTable

from conftest import ability_vectors

# the wOBA weight keys in AbilityVector.positives order (1b, 2b, 3b, hr, bb)
ONBASE_EVENTS = ("single", "double", "triple", "homer", "walk")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def pool():
    return synthesize_players(220, seed=3)


@pytest.fixture(scope="session")
def pairs(pool):
    return build_pair_dataset(pool)


def shorter_schedule(mp: pytest.MonkeyPatch, **constants) -> None:
    """Set conversion's schedule constants (upper-case names) for a test."""
    for name, value in constants.items():
        mp.setattr(conversion, name, value)


@pytest.fixture(scope="session")
def trained(pairs):
    """One real training run shared by the quality tests (a few seconds)."""
    with pytest.MonkeyPatch.context() as mp:
        shorter_schedule(mp, MAX_EPOCHS=120, PATIENCE=15)
        return train(pairs, seed=0)


def zero_params() -> ConverterParams:
    return ConverterParams(np.zeros(N_PARAMS))


def one_pair(x, y) -> PairDataset:
    return PairDataset(np.asarray(x)[None, :], np.asarray(y)[None, :])


# ---------------------------------------------------------------- layout

class TestLayout:
    def test_input_order_and_csv_header_are_pinned(self):
        # both are written into converter files and pair dumps
        assert REDUCED_KEYS == ("1b", "2b", "3b", "hr", "bb", "k", "g")
        assert INPUT_ORDER == REDUCED_KEYS + ("d_onbase_share", "d_woba")
        assert ",".join(PAIR_CSV_HEADER) == (
            "1b,2b,3b,hr,bb,k,g,d_onbase_share,d_woba,"
            "d_1b,d_2b,d_3b,d_hr,d_bb,d_k,d_g")

    def test_layers_view_the_flat_vector_in_layout_order(self):
        p = ConverterParams(np.arange(N_PARAMS, dtype=float))
        offset = 0
        for name, shape in LAYOUT:
            layer = getattr(p, name)
            assert layer.shape == shape
            assert np.shares_memory(layer, p.flat)
            assert layer.ravel()[0] == offset
            offset += layer.size
        assert offset == N_PARAMS
        p.b3[6] = -1.0
        assert p.flat[-1] == -1.0

    @pytest.mark.parametrize("flat", [np.zeros(N_PARAMS - 1),
                                      np.zeros((1, N_PARAMS)),
                                      np.zeros(N_PARAMS, dtype=np.float32)])
    def test_wrong_vector_rejected(self, flat):
        with pytest.raises(ConversionError, match="flat must be"):
            ConverterParams(flat)


# ---------------------------------------------------------------- forward

class TestForward:
    def test_zero_params_zero_output(self):
        out = forward(zero_params(), np.ones((1, 9)))
        assert np.array_equal(out, np.zeros((1, 7)))

    def test_single_active_path_oracle(self):
        # one nonzero path through the net: hand-checkable scalar chain
        p = zero_params()
        p.w1[0, 0] = 2.0
        p.b1[0] = 0.5
        p.w2[0, 0] = 3.0
        p.b2[0] = -1.0
        p.w3[0, 0] = 0.25
        x = np.zeros((1, 9))
        x[0, 0] = 0.4
        # relu(0.8 + 0.5) = 1.3; relu(3.9 - 1.0) = 2.9; 2.9 * 0.25 = 0.725
        assert forward(p, x)[0, 0] == pytest.approx(0.725, abs=1e-12)

    def test_relu_kills_negative_preactivation(self):
        p = zero_params()
        p.w1[0, 0] = 2.0
        p.b1[0] = 0.5
        p.w3[0, 0] = 1.0
        x = np.zeros((1, 9))
        x[0, 0] = -1.0  # preactivation -1.5, clipped to 0
        assert np.array_equal(forward(p, x), np.zeros((1, 7)))

    def test_batch_shape(self, trained):
        params, _ = trained
        out = forward(params, np.zeros((5, 9)))
        assert out.shape == (5, 7)
        single = forward(params, np.zeros((1, 9)))
        assert single.shape == (1, 7)
        # batched and single matmuls may take different BLAS paths
        assert np.allclose(out[:1], single, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch(self, trained):
        params, _ = trained
        for shape in ((8,), (9,), (1, 8), (2, 10), (1, 1, 9)):
            with pytest.raises(ConversionError, match=r"inputs must be \(N, 9\)"):
                forward(params, np.zeros(shape))

    def test_deterministic(self, trained):
        params, _ = trained
        x = np.linspace(0.0, 0.5, 9)[None, :]
        assert np.array_equal(forward(params, x), forward(params, x))


# ---------------------------------------------------------------- loss

class TestLoss:
    def test_zero_delta_zero_params_is_zero(self):
        x = np.concatenate([LEAGUE_AVERAGE.as_tuple()[:7], [0.0, 0.0]])[None, :]
        assert _mean_loss(x, np.zeros((1, 7)), forward(zero_params(), x)) == 0.0

    def test_zero_prediction_oracle(self):
        # prediction 0 on a single sample: loss = ||y||^2 + w_woba*(y . wvec)^2
        x = np.concatenate([LEAGUE_AVERAGE.as_tuple()[:7], [0.0, 0.0]])[None, :]
        y = np.array([0.01, -0.002, 0.0, 0.003, -0.01, 0.0, 0.004])
        wvec = np.zeros(7)
        # (1b, 2b, 3b, hr, bb) order matches REDUCED_KEYS
        wvec[:5] = [WOBA_WEIGHTS[k] for k in ONBASE_EVENTS]
        expected = float(y @ y) \
            + conversion.WOBA_CONSISTENCY_WEIGHT * float(y @ wvec) ** 2
        got = _mean_loss(x, y[None, :], forward(zero_params(), x))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_negativity_term_oracle(self):
        # bias-only net predicts exactly the target, but the implied result
        # dips one component to -0.01: loss is w_neg * 0.01 alone
        src = LEAGUE_AVERAGE.as_tuple()[:7]
        x = np.concatenate([src, [0.0, 0.0]])[None, :]
        y = np.zeros((1, 7))
        y[0, 0] = -(src[0] + 0.01)
        p = zero_params()
        p.b3[:] = y[0]
        got = _mean_loss(x, y, forward(p, x))
        assert got == pytest.approx(conversion.NEGATIVITY_WEIGHT * 0.01,
                                    rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ConversionError, match="empty batch"):
            PairDataset(np.zeros((0, 9)), np.zeros((0, 7)))

    @pytest.mark.parametrize("x_shape, y_shape", [((3, 8), (3, 7)),
                                                  ((3, 9), (3, 6)),
                                                  ((3, 9), (2, 7)),
                                                  ((9,), (7,))])
    def test_batch_shape_mismatch(self, x_shape, y_shape):
        with pytest.raises(ConversionError, match=r"(inputs|targets) must be \(N, "):
            PairDataset(np.zeros(x_shape), np.zeros(y_shape))

    def test_nonnegative_on_real_pairs(self, trained, pairs):
        params, _ = trained
        x, y = pairs.inputs[:128], pairs.targets[:128]
        assert _mean_loss(x, y, forward(params, x)) >= 0.0


# ---------------------------------------------------------------- gradients

class TestGradients:
    def test_gradient_check_at_init(self, pairs):
        params = init_params(seed=7)
        batch = PairDataset(pairs.inputs[:64], pairs.targets[:64])
        worst = gradient_check(params, batch, probes=100, seed=11)
        assert worst <= 1e-4

    def test_gradient_check_after_training(self, trained, pairs):
        params, _ = trained
        batch = PairDataset(pairs.inputs[:64], pairs.targets[:64])
        worst = gradient_check(params, batch, probes=100, seed=12)
        assert worst <= 1e-4

    def test_every_bias_by_finite_differences(self, trained, pairs):
        # the random probes above may miss the small bias layers entirely
        ends = np.cumsum([math.prod(shape) for _, shape in LAYOUT])
        biases = np.concatenate([np.arange(end - math.prod(shape), end)
                                 for (name, shape), end in zip(LAYOUT, ends)
                                 if name.startswith("b")])
        assert len(biases) == 2 * HIDDEN_WIDTH + 7
        batch = PairDataset(pairs.inputs[:64], pairs.targets[:64])
        for params in (init_params(seed=7), trained[0]):
            worst = conversion._difference_error(params, batch, biases, 1e-5)
            assert worst <= 1e-4

    def test_a_difference_across_a_kink_shrinks_its_step(self):
        # the pair's implied single rate sits 3e-7 above zero, so a
        # 1e-5 step on that output's bias crosses the hinge; the slope
        # there is the squared-error term's alone, which the check matches
        x = np.zeros(9)
        x[0] = 3e-7
        batch = one_pair(x, np.zeros(7))
        b3_single = N_PARAMS - 7
        assert conversion._difference_error(zero_params(), batch,
                                            [b3_single], 1e-5) <= 1e-4

    def test_gradient_check_leaves_params_unchanged(self, pairs):
        params = init_params(seed=7)
        before = params.flat.copy()
        batch = PairDataset(pairs.inputs[:64], pairs.targets[:64])
        gradient_check(params, batch, probes=50, seed=3)
        assert params.flat.tobytes() == before.tobytes()

    def test_returned_arrays_are_not_reused(self, pairs, monkeypatch):
        params = init_params(seed=7)
        first = gradients(params,
                          PairDataset(pairs.inputs[:64], pairs.targets[:64]))
        kept = first.flat.copy()
        gradients(params,
                  PairDataset(pairs.inputs[64:128], pairs.targets[64:128]))
        shorter_schedule(monkeypatch, MAX_EPOCHS=2)
        train(build_pair_dataset(synthesize_players(16, seed=2)), seed=1)
        assert first.flat.tobytes() == kept.tobytes()
        for name, _ in LAYOUT:
            assert np.shares_memory(getattr(first, name), first.flat), name


# ---------------------------------------------------------------- players

class TestSynthesizePlayers:
    def test_small_pool_reproducible(self):
        a = synthesize_players(2, seed=9)
        b = synthesize_players(2, seed=9)
        assert a == b
        assert len(a) == 2

    def test_full_pool_ranges(self):
        players = synthesize_players(502, seed=0)
        assert len(players) == 502
        for v in players:
            validate(v)
        wobas = [woba(v) for v in players]
        shares = [onbase_share(v) for v in players]
        assert min(wobas) >= 0.230 and max(wobas) <= 0.420
        assert min(shares) >= 0.35 and max(shares) <= 0.85

    def test_different_seeds_differ(self):
        assert synthesize_players(5, seed=1) != synthesize_players(5, seed=2)

    def test_single_player_rejected(self):
        with pytest.raises(ConversionError, match="need at least 2 players"):
            synthesize_players(1, seed=0)

    def test_zero_players_rejected(self):
        with pytest.raises(ConversionError, match="need at least 2 players"):
            synthesize_players(0, seed=0)


# ---------------------------------------------------------------- pair data

class TestPairDataset:
    def test_pair_count(self, pool, pairs):
        n = len(pool)
        assert len(pairs) == n * (n - 1) // 2

    def test_all_pairs_cost_oriented(self, pairs):
        # source is the higher-wOBA side, so the delta never gains wOBA
        assert float(pairs.inputs[:, 8].max()) <= 1e-9

    def test_three_distinct_vectors(self):
        players = synthesize_players(3, seed=4)
        ds = build_pair_dataset(players)
        assert len(ds) == 3
        assert all(ds.inputs[:, 8] <= 1e-9)

    def test_sample_deltas_match_reconstruction(self, pairs):
        # input d-columns must equal the stat changes implied by the target
        def ability(reduced):  # the fly-out mass is what the seven leave
            return AbilityVector(*reduced, 1.0 - math.fsum(reduced))

        for i in (0, 17, len(pairs) - 1):
            src_reduced = pairs.inputs[i, :7]
            src = ability(src_reduced)
            dest = ability(src_reduced + pairs.targets[i])
            assert pairs.inputs[i, 7] == pytest.approx(
                onbase_share(dest) - onbase_share(src), abs=1e-9)
            assert pairs.inputs[i, 8] == pytest.approx(
                woba(dest) - woba(src), abs=1e-9)

    def test_duplicate_vectors_zero_delta(self):
        ds = build_pair_dataset([LEAGUE_AVERAGE, LEAGUE_AVERAGE])
        assert len(ds) == 1
        assert ds.inputs[0, 8] == 0.0 and ds.inputs[0, 7] == 0.0
        assert all(ds.targets[0] == 0.0)

    def test_too_few_vectors(self):
        with pytest.raises(ConversionError):
            build_pair_dataset([LEAGUE_AVERAGE])

    def test_csv_dump(self, tmp_path):
        ds = build_pair_dataset(synthesize_players(4, seed=8))
        out = tmp_path / "pairs.csv"
        dump_pair_csv(ds, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(PAIR_CSV_HEADER)
        assert len(lines) == 1 + len(ds)
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx(
            list(ds.inputs[0]) + list(ds.targets[0]), abs=0.0)


# ---------------------------------------------------------------- training

# A plain reference trainer: the same floating-point operations as train(),
# with a fresh array for every intermediate and a momentum update per layer
# instead of train()'s reused buffers and flat parameter vector.  train()
# must reproduce it bit for bit.

def reference_forward(p, x):
    a1 = x @ p["w1"] + p["b1"]
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ p["w2"] + p["b2"]
    h2 = np.maximum(a2, 0.0)
    out = h2 @ p["w3"] + p["b3"]
    return a1, h1, a2, h2, out


def reference_loss(p, x, y, wvec):
    out = reference_forward(p, x)[4]
    err = out - y
    sq = np.sum(err * err, axis=1)
    implied = x[:, :7] + out
    hinge = np.sum(np.maximum(-implied, 0.0), axis=1)
    woba_err = err @ wvec
    per_pair = sq + conversion.NEGATIVITY_WEIGHT * hinge \
        + conversion.WOBA_CONSISTENCY_WEIGHT * woba_err * woba_err
    return float(per_pair.mean())


def reference_gradients(p, x, y, wvec):
    n = x.shape[0]
    a1, h1, a2, h2, out = reference_forward(p, x)
    err = out - y
    implied = x[:, :7] + out
    g_out = 2.0 * err
    g_out -= conversion.NEGATIVITY_WEIGHT * (implied < 0.0)
    g_out += (2.0 * conversion.WOBA_CONSISTENCY_WEIGHT) \
        * (err @ wvec)[:, None] * wvec
    g_out /= n
    g_w3 = h2.T @ g_out
    g_b3 = g_out.sum(axis=0)
    g_h2 = g_out @ p["w3"].T
    g_a2 = g_h2 * (a2 > 0.0)
    g_w2 = h1.T @ g_a2
    g_b2 = g_a2.sum(axis=0)
    g_h1 = g_a2 @ p["w2"].T
    g_a1 = g_h1 * (a1 > 0.0)
    g_w1 = x.T @ g_a1
    g_b1 = g_a1.sum(axis=0)
    return {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2,
            "w3": g_w3, "b3": g_b3}


def reference_train(dataset, seed):
    """Reads the schedule from conversion's constants when called."""
    c = conversion
    wvec = np.array([WOBA_WEIGHTS[k] for k in ONBASE_EVENTS] + [0.0, 0.0])
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7A11)))
    perm = rng.permutation(len(dataset))
    n_val = max(1, int(round(len(dataset) * c.VAL_FRACTION)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_val, y_val = dataset.inputs[val_idx], dataset.targets[val_idx]
    x_train, y_train = dataset.inputs[train_idx], dataset.targets[train_idx]
    init = init_params(seed)
    arrays = {name: getattr(init, name).copy() for name, _ in LAYOUT}
    velocity = {k: np.zeros_like(v) for k, v in arrays.items()}
    best = {k: v.copy() for k, v in arrays.items()}
    best_loss, best_epoch, stale = math.inf, 0, 0
    for epoch in range(1, c.MAX_EPOCHS + 1):
        order = rng.permutation(len(train_idx))
        for start in range(0, len(order), c.BATCH_SIZE):
            sel = order[start:start + c.BATCH_SIZE]
            grads = reference_gradients(arrays, x_train[sel], y_train[sel],
                                        wvec)
            for key, g in grads.items():
                velocity[key] = c.MOMENTUM * velocity[key] \
                    - c.LEARNING_RATE * g
                arrays[key] += velocity[key]
        val_loss = reference_loss(arrays, x_val, y_val, wvec)
        if val_loss < best_loss - 1e-12:
            best_loss = val_loss
            best = {k: v.copy() for k, v in arrays.items()}
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > c.PATIENCE:
                break

    out = reference_forward(best, x_val)[4]
    err = out - y_val
    woba_err = err @ wvec
    implied7 = x_val[:, :7] + out
    implied8 = np.hstack([implied7, 1.0 - implied7.sum(axis=1, keepdims=True)])
    clamped = np.maximum(implied8, 0.0)
    projected = clamped / clamped.sum(axis=1, keepdims=True)
    metrics = ValidationMetrics(
        mse_vector=float(np.sum(err * err, axis=1).mean()),
        mse_woba=float((woba_err * woba_err).mean()),
        neg_mass_projected=float(np.maximum(-projected, 0.0).sum()),
        epochs_run=epoch, best_epoch=best_epoch)
    return best, metrics


class TestTrain:
    def test_validation_quality(self, trained):
        _, metrics = trained
        assert metrics.mse_vector <= 5e-3
        assert metrics.mse_woba <= 2e-3
        assert metrics.neg_mass_projected == 0.0

    def test_zero_delta_dataset_learned(self, monkeypatch):
        ds = build_pair_dataset([LEAGUE_AVERAGE] * 30)
        shorter_schedule(monkeypatch, MAX_EPOCHS=50, PATIENCE=50, BATCH_SIZE=64)
        _, metrics = train(ds, seed=1)
        assert metrics.mse_vector < 1e-6

    def test_deterministic(self, monkeypatch):
        ds = build_pair_dataset(synthesize_players(24, seed=6))
        shorter_schedule(monkeypatch, MAX_EPOCHS=8, PATIENCE=8)
        p1, m1 = train(ds, seed=5)
        p2, m2 = train(ds, seed=5)
        assert np.array_equal(p1.flat, p2.flat)
        assert m1 == m2

    def test_dataset_too_small(self, monkeypatch):
        ds = build_pair_dataset(synthesize_players(4, seed=2))  # 6 pairs
        shorter_schedule(monkeypatch, MAX_EPOCHS=1)
        with pytest.raises(ConversionError, match="need at least 10 pairs, got 6"):
            train(ds, seed=0)

    def test_replays_the_allocating_trainer_bit_for_bit(self, monkeypatch):
        ds = build_pair_dataset(synthesize_players(30, seed=4))  # 435 pairs
        shorter_schedule(monkeypatch, MAX_EPOCHS=3, BATCH_SIZE=100)
        # 348 training pairs: three full batches and a short one per epoch
        assert (len(ds) - round(len(ds) * conversion.VAL_FRACTION)) \
            % conversion.BATCH_SIZE
        params, metrics = train(ds, seed=8)
        ref_params, ref_metrics = reference_train(ds, seed=8)
        for k, _ in LAYOUT:
            assert getattr(params, k).tobytes() == ref_params[k].tobytes(), k
        assert metrics == ref_metrics

    def test_evaluate_consistency(self, trained, pairs):
        params, _ = trained
        m = evaluate(params, PairDataset(pairs.inputs[:256], pairs.targets[:256]),
                     epochs_run=7, best_epoch=3)
        assert m.mse_vector >= 0.0 and math.isfinite(m.mse_woba)
        assert m.neg_mass_projected >= 0.0
        assert (m.epochs_run, m.best_epoch) == (7, 3)

    def test_projected_mass_is_the_clamp_and_renormalise_sum(self, pairs):
        batch = PairDataset(pairs.inputs[:256], pairs.targets[:256])

        def clamped_mass(params):
            implied7 = batch.inputs[:, :7] + forward(params, batch.inputs)
            implied8 = np.hstack([implied7,
                                  1.0 - implied7.sum(axis=1, keepdims=True)])
            clamped = np.maximum(implied8, 0.0)
            projected = clamped / clamped.sum(axis=1, keepdims=True)
            return float(np.maximum(-projected, 0.0).sum()), (implied8 < 0).any()

        rng = np.random.default_rng(12)
        for scale in (0.1, 1.0, 10.0):
            params = ConverterParams(rng.normal(scale=scale, size=N_PARAMS))
            mass, clamps = clamped_mass(params)
            assert evaluate(params, batch, epochs_run=1,
                            best_epoch=1).neg_mass_projected == mass
        assert clamps  # the widest weights imply negative rates to clamp
        params.b3[0] = np.inf
        with np.errstate(invalid="ignore"):
            assert math.isnan(clamped_mass(params)[0])
        assert math.isnan(evaluate(params, batch, epochs_run=1,
                                   best_epoch=1).neg_mass_projected)


# ---------------------------------------------------------------- projection

class TestProjection:
    @given(ability_vectors())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_valid(self, vec):
        vals = vec.as_tuple()
        assert project_probabilities(vals) == tuple(vals)

    def test_clamp_and_renormalize(self):
        got = project_probabilities((-0.1, 0.55, 0.55, 0, 0, 0, 0, 0))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(0.5)
        assert got[2] == pytest.approx(0.5)
        assert sum(got) == pytest.approx(1.0, abs=1e-12)

    def test_all_nonpositive_fails(self):
        with pytest.raises(ProjectionFailureError):
            project_probabilities((-0.1,) * 8)

    def test_vanishing_mass_fails(self):
        with pytest.raises(ProjectionFailureError):
            project_probabilities((1e-12, 0, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fails(self, bad):
        # a NaN was clamped to zero; an inf ended in a data error
        with pytest.raises(ProjectionFailureError, match="non-finite"):
            project_probabilities((bad, 0.2, 0.1, 0.1, 0.1, 0.2, 0.2, 0.1))

    def test_clamping_more_than_a_distribution_fails(self):
        # removing exactly 1 of mass is still a projection; more is not
        assert project_probabilities((-1.0, 2.0, 0, 0, 0, 0, 0, 0))[1] == 1.0
        with pytest.raises(ProjectionFailureError, match="more than 1"):
            project_probabilities((-1.5, 2.5, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------- convert

class TestConvert:
    def test_positive_cost_rejected(self, trained):
        params, _ = trained
        with pytest.raises(ValueError):
            convert(params, LEAGUE_AVERAGE, 0.1, +0.01)

    def test_zero_params_identity(self):
        out = convert(zero_params(), LEAGUE_AVERAGE, 0.0, 0.0)
        assert out == LEAGUE_AVERAGE

    def test_outputs_always_valid(self, trained, pool):
        params, _ = trained
        for v in pool[:6]:
            for da in (-0.3, -0.1, 0.0, 0.1, 0.3):
                validate(convert(params, v, da, -0.005))

    def test_requested_shift_quality(self, trained):
        # model-quality bar: the achieved stat changes track the request
        params, _ = trained
        base = LEAGUE_AVERAGE
        out = convert(params, base, 0.1, -0.005)
        d_share = onbase_share(out) - onbase_share(base)
        d_woba = woba(out) - woba(base)
        assert abs(d_share - 0.1) <= 0.03
        assert abs(d_woba - (-0.005)) <= 0.01

    def test_shift_direction(self, trained):
        params, _ = trained
        base = LEAGUE_AVERAGE
        up = onbase_share(convert(params, base, 0.2, -0.005))
        down = onbase_share(convert(params, base, -0.2, -0.005))
        assert up > onbase_share(base) > down


# ---------------------------------------------------------------- persistence

class TestPersistence:
    def test_round_trip(self, trained, tmp_path):
        params, _ = trained
        path = tmp_path / "params.json"
        with open(path, "w", encoding="utf-8") as fh:
            save_params(params, fh, train_seed=0)
        back = load_params(path)
        assert np.array_equal(params.flat, back.flat)

    def test_metadata_block_written(self, trained, tmp_path):
        import json

        params, _ = trained
        path = tmp_path / "params.json"
        with open(path, "w", encoding="utf-8") as fh:
            save_params(params, fh, train_seed=42)
        obj = json.loads(path.read_text())
        assert obj["metadata"]["train_seed"] == 42
        assert obj["metadata"]["loss_weights"]["negativity"] == 0.1
        assert obj["metadata"]["input_order"] == list(INPUT_ORDER)

    def test_bundled_file_rewrites_byte_for_byte(self, tmp_path):
        # pins the whole file, the metadata block with its loss weights too
        bundled = resources.files("batsim") / "data" / CONVERTER_ASSET
        path = tmp_path / "params.json"
        with open(path, "w", encoding="utf-8") as fh:
            save_params(load_params(bundled), fh, train_seed=0)
        assert path.read_bytes() == bundled.read_bytes()

    def test_layer_shape_mismatch_rejected(self, trained, tmp_path):
        # a transposed w1 has the right number of values, so only the
        # per-layer shape check can catch it
        import json

        params, _ = trained
        path = tmp_path / "params.json"
        with open(path, "w", encoding="utf-8") as fh:
            save_params(params, fh, train_seed=0)
        obj = json.loads(path.read_text())
        obj["w1"] = params.w1.T.tolist()
        path.write_text(json.dumps(obj))
        with pytest.raises(ConversionError, match="w1 must have shape"):
            load_params(path)

    def test_architecture_mismatch_rejected(self, trained, tmp_path):
        import json

        params, _ = trained
        path = tmp_path / "params.json"
        with open(path, "w", encoding="utf-8") as fh:
            save_params(params, fh, train_seed=0)
        obj = json.loads(path.read_text())
        obj["architecture"] = [9, 50, 50, 7]
        path.write_text(json.dumps(obj))
        with pytest.raises(ConversionError):
            load_params(path)

    def test_input_order_mismatch_rejected(self, trained, tmp_path):
        import json

        params, _ = trained
        path = tmp_path / "params.json"
        with open(path, "w", encoding="utf-8") as fh:
            save_params(params, fh, train_seed=0)
        obj = json.loads(path.read_text())
        obj["input_order"] = list(reversed(obj["input_order"]))
        path.write_text(json.dumps(obj))
        with pytest.raises(ConversionError):
            load_params(path)

    def test_woba_weights_mismatch_rejected(self, trained, tmp_path):
        import json

        params, _ = trained
        path = tmp_path / "params.json"
        with open(path, "w", encoding="utf-8") as fh:
            save_params(params, fh, train_seed=0)
        obj = json.loads(path.read_text())
        assert obj["woba_weights"] == {
            "walk": 0.692, "single": 0.865, "double": 1.334,
            "triple": 1.725, "homer": 2.065}
        # a valid ordered set, but not the one the network was trained under
        obj["woba_weights"]["homer"] = 2.1
        path.write_text(json.dumps(obj))
        with pytest.raises(ConversionError, match="wOBA weights"):
            load_params(path)


# ---------------------------------------------------------------- triples

class TestBuildTriple:
    def test_negative_spread_rejected_before_model(self):
        # precondition fires before the converter is ever consulted
        with pytest.raises(ValueError):
            build_triple(LEAGUE_AVERAGE, None, -0.1, -0.005)

    def test_positive_cost_rejected_before_model(self):
        with pytest.raises(ValueError):
            build_triple(LEAGUE_AVERAGE, None, 0.1, +0.005)

    def test_ordering_on_mid_range_vector(self, trained):
        params, _ = trained
        t = build_triple(LEAGUE_AVERAGE, params, 0.1, -0.005)
        assert t.ordering_ok
        assert (onbase_share(t.long_hit)
                <= onbase_share(t.normal)
                <= onbase_share(t.on_base))

    def test_symmetric_spread(self, trained):
        params, _ = trained
        t = build_triple(LEAGUE_AVERAGE, params, 0.1, -0.005)
        a_n = onbase_share(t.normal)
        gap = (onbase_share(t.on_base) - a_n) - (a_n - onbase_share(t.long_hit))
        assert abs(gap) <= 0.05

    def test_zero_params_triple_collapses(self):
        t = build_triple(LEAGUE_AVERAGE, zero_params(), 0.0, 0.0)
        assert t.normal == t.on_base == t.long_hit == LEAGUE_AVERAGE

    def test_degenerate_triple_matches_baseline_exactly(self):
        # identical vectors in every role: policy choice cannot matter
        t = build_triple(LEAGUE_AVERAGE, zero_params(), 0.0, 0.0)
        lineup = Lineup((t,) * 9)
        table = TransitionTable(rows={})
        a = monte_carlo(lineup, fixed_policy, table, 400, seed=77)
        b = monte_carlo(lineup, always_normal, table, 400, seed=77)
        assert a.histogram == b.histogram
