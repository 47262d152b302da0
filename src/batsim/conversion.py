"""Counterfactual ability conversion via a small hand-rolled MLP.

The question the model answers: if this batter traded overall quality
(wOBA shift, never positive) for a different on-base/long-hit balance
(a shift in the on-base value share), what would the full outcome
probability vector plausibly look like?  Answers are learned from pairs of
real-ish player profiles: for every ordered pair the network sees the source
profile plus the (share, wOBA) deltas and regresses the component-wise
difference to the destination profile.

The network is deliberately small (two ReLU layers of 100) and implemented
directly in numpy with hand-written backprop, guarded by a finite-difference
gradient check.  One routine, :func:`_backprop`, computes the gradients for
both :func:`gradients` and :func:`train`, writing into a preallocated
:class:`_Workspace` so a training step allocates no arrays.  ``LAYOUT``
states the parameter layout once: a :class:`ConverterParams`, weights or
gradients alike, is one flat vector in that order with the six layer arrays
as views into it.  Every batch of pairs is a :class:`PairDataset`.
Everything is float64 and deterministic in the seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .abilities import (
    OUTCOME_KEYS,
    WOBA_WEIGHTS,
    AbilityVector,
    NoOutProbabilityError,
    onbase_share,
    validate,
    woba,
)
from .fileio import write_csv

# The trailing fly-out component is implied by the others, so the network
# predicts only these seven; inputs append the two requested deltas.
REDUCED_KEYS = OUTCOME_KEYS[:7]
INPUT_ORDER = REDUCED_KEYS + ("d_onbase_share", "d_woba")
HIDDEN_WIDTH = 100

# The network's layer arrays and their shapes, in flat-vector order.
LAYOUT = (
    ("w1", (9, HIDDEN_WIDTH)), ("b1", (HIDDEN_WIDTH,)),
    ("w2", (HIDDEN_WIDTH, HIDDEN_WIDTH)), ("b2", (HIDDEN_WIDTH,)),
    ("w3", (HIDDEN_WIDTH, 7)), ("b3", (7,)),
)
N_PARAMS = sum(math.prod(shape) for _, shape in LAYOUT)

# wOBA coefficients aligned with REDUCED_KEYS; outs carry no weight.
WOBA_COMPONENTS = np.array([WOBA_WEIGHTS[k] for k in (
    "single", "double", "triple", "homer", "walk")] + [0.0, 0.0])
WOBA_COMPONENTS.flags.writeable = False

# Acceptance window for synthesized player pools.
WOBA_RANGE = (0.230, 0.420)
SHARE_RANGE = (0.35, 0.85)

# Loss-term weights: NEGATIVITY_WEIGHT discourages components the projection
# would have to clamp; WOBA_CONSISTENCY_WEIGHT ties the predicted vector's
# wOBA to the requested shift.
NEGATIVITY_WEIGHT = 0.1
WOBA_CONSISTENCY_WEIGHT = 0.5

# Training schedule: momentum SGD on mini-batches, validation on a held-out
# fraction of the pairs, early stopping after PATIENCE epochs without gain.
LEARNING_RATE = 0.05
MOMENTUM = 0.9
BATCH_SIZE = 256
MAX_EPOCHS = 200
PATIENCE = 10
VAL_FRACTION = 0.2


class ConversionError(ValueError):
    pass


class ProjectionFailureError(ConversionError):
    """The network output could not be projected to a usable vector."""


def _check_inputs(x) -> None:
    shape = np.shape(x)
    if len(shape) != 2 or shape[1] != 9:
        raise ConversionError(f"inputs must be (N, 9), got {shape}")


@dataclass(frozen=True)
class PairDataset:
    """A batch of pairs: inputs (N, 9) and component-delta targets (N, 7),
    with N at least 1."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        _check_inputs(self.inputs)
        if self.targets.shape != (self.inputs.shape[0], 7):
            raise ConversionError(f"targets must be (N, 7), got {self.targets.shape}")
        if len(self) == 0:
            raise ConversionError("empty batch")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class ConverterParams:
    """Network weights: one flat float64 vector of N_PARAMS values in LAYOUT
    order.  Each layer named in LAYOUT (w1, b1, w2, b2, w3, b3) is also an
    attribute that views its slice in its shape."""

    flat: np.ndarray

    def __post_init__(self):
        flat = self.flat
        if flat.dtype != np.float64 or flat.shape != (N_PARAMS,):
            raise ConversionError(f"flat must be {N_PARAMS} float64 "
                                  f"values, got {flat.dtype} {flat.shape}")
        ends = np.cumsum([math.prod(shape) for _, shape in LAYOUT])
        for (name, shape), part in zip(LAYOUT, np.split(flat, ends[:-1])):
            object.__setattr__(self, name, part.reshape(shape))


def init_params(seed: int) -> ConverterParams:
    """He-style initialization; the output layer starts small so initial
    predictions sit near zero delta, which is the right prior."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x1217)))
    params = ConverterParams(np.zeros(N_PARAMS))
    params.w1[...] = rng.normal(0.0, math.sqrt(2.0 / 9), size=(9, HIDDEN_WIDTH))
    params.w2[...] = rng.normal(0.0, math.sqrt(2.0 / HIDDEN_WIDTH),
                                size=(HIDDEN_WIDTH, HIDDEN_WIDTH))
    params.w3[...] = rng.normal(0.0, 0.1 * math.sqrt(1.0 / HIDDEN_WIDTH),
                                size=(HIDDEN_WIDTH, 7))
    return params


def _forward_into(params: ConverterParams, x: np.ndarray, h1: np.ndarray,
                  h2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forward pass over the rows of x, writing the two hidden activations
    and the output into the given buffers of matching row count."""
    np.matmul(x, params.w1, out=h1)
    h1 += params.b1
    np.maximum(h1, 0.0, out=h1)
    np.matmul(h1, params.w2, out=h2)
    h2 += params.b2
    np.maximum(h2, 0.0, out=h2)
    np.matmul(h2, params.w3, out=out)
    out += params.b3
    return out


def forward(params: ConverterParams, x) -> np.ndarray:
    """Predicted component deltas (N, 7) for input rows x (N, 9)."""
    _check_inputs(x)
    n = len(x)
    return _forward_into(params, x, np.empty((n, HIDDEN_WIDTH)),
                         np.empty((n, HIDDEN_WIDTH)), np.empty((n, 7)))


def _mean_loss(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> float:
    """Mean per-pair loss of the predictions out for inputs x and target
    deltas y: squared delta error, plus the negativity hinge on the implied
    destination components, plus the squared wOBA mismatch."""
    err = out - y
    sq = np.sum(err * err, axis=1)
    implied = x[:, :7] + out
    hinge = np.sum(np.maximum(-implied, 0.0), axis=1)
    woba_err = err @ WOBA_COMPONENTS
    per_pair = sq + NEGATIVITY_WEIGHT * hinge \
        + WOBA_CONSISTENCY_WEIGHT * woba_err * woba_err
    return float(per_pair.mean())


class _Workspace:
    """Buffers for one backprop over batches of up to `rows` pairs: the
    forward activations, the output-layer terms and the gradient, itself a
    ConverterParams.  A shorter batch uses the leading rows.  The two
    hidden-activation buffers are reused in place for their gradients."""

    def __init__(self, rows: int):
        self.h1 = np.empty((rows, HIDDEN_WIDTH))
        self.h2 = np.empty((rows, HIDDEN_WIDTH))
        self.relu = np.empty((rows, HIDDEN_WIDTH), dtype=bool)
        self.out = np.empty((rows, 7))
        self.err = np.empty((rows, 7))
        self.g_out = np.empty((rows, 7))
        self.negative = np.empty((rows, 7), dtype=bool)
        self.woba_err = np.empty(rows)
        self.grad = ConverterParams(np.empty(N_PARAMS))


def _backprop(params: ConverterParams, x: np.ndarray, y: np.ndarray,
              ws: _Workspace) -> None:
    """Hand-derived backprop for :func:`_mean_loss`, written into ws.grad."""
    n = x.shape[0]
    h1, h2, out, err, g_out, woba_err = (
        a[:n] for a in (ws.h1, ws.h2, ws.out, ws.err, ws.g_out, ws.woba_err))
    relu, negative = ws.relu[:n], ws.negative[:n]
    g = ws.grad
    _forward_into(params, x, h1, h2, out)

    np.subtract(out, y, out=err)
    # d/d out of each term; the hinge's subgradient at exactly zero is zero.
    # `out` is free once err is taken, and serves as scratch from here on.
    np.multiply(err, 2.0, out=g_out)
    np.add(x[:, :7], out, out=out)  # implied destination components
    np.less(out, 0.0, out=negative)
    np.multiply(negative, NEGATIVITY_WEIGHT, out=out)
    g_out -= out
    np.matmul(err, WOBA_COMPONENTS, out=woba_err)
    woba_err *= 2.0 * WOBA_CONSISTENCY_WEIGHT
    np.multiply(woba_err[:, None], WOBA_COMPONENTS, out=out)
    g_out += out
    g_out /= n

    # h2 and then h1 are overwritten by their gradients once their ReLU
    # masks (h > 0 exactly where the pre-activation is) have been taken.
    np.matmul(h2.T, g_out, out=g.w3)
    np.sum(g_out, axis=0, out=g.b3)
    np.greater(h2, 0.0, out=relu)
    g_a2 = np.matmul(g_out, params.w3.T, out=h2)
    g_a2 *= relu
    np.matmul(h1.T, g_a2, out=g.w2)
    np.sum(g_a2, axis=0, out=g.b2)
    np.greater(h1, 0.0, out=relu)
    g_a1 = np.matmul(g_a2, params.w2.T, out=h1)
    g_a1 *= relu
    np.matmul(x.T, g_a1, out=g.w1)
    np.sum(g_a1, axis=0, out=g.b1)


def gradients(params: ConverterParams, batch: PairDataset) -> ConverterParams:
    """Hand-derived backprop for :func:`_mean_loss` at forward(params,
    batch.inputs).  The vector returned belongs to this call alone."""
    ws = _Workspace(len(batch))
    _backprop(params, batch.inputs, batch.targets, ws)
    return ws.grad


def _difference_error(params: ConverterParams, batch: PairDataset, coords,
                      step: float) -> float:
    """The worst relative error of the analytic gradient against central
    finite differences at the given flat coordinates.  The loss kinks where
    a hidden pre-activation or an implied component crosses zero, and a
    difference across a kink says nothing of the slope at params, so the
    step shrinks, at most a hundredfold, until both ends lie in the smooth
    piece that params lie in."""
    x, y = batch.inputs, batch.targets
    h1, h2 = np.empty((len(x), HIDDEN_WIDTH)), np.empty((len(x), HIDDEN_WIDTH))
    out = np.empty((len(x), 7))

    def loss_and_piece(p: ConverterParams) -> tuple[float, np.ndarray]:
        _forward_into(p, x, h1, h2, out)
        piece = np.hstack([h1 > 0.0, h2 > 0.0, x[:, :7] + out < 0.0])
        return _mean_loss(x, y, out), piece

    analytic = gradients(params, batch).flat
    piece = loss_and_piece(params)[1]
    bumped = ConverterParams(params.flat.copy())
    worst = 0.0
    for i in coords:
        base = bumped.flat[i]
        for h in (step, step / 10, step / 100):
            bumped.flat[i] = base + h
            up, up_piece = loss_and_piece(bumped)
            bumped.flat[i] = base - h
            down, down_piece = loss_and_piece(bumped)
            if (up_piece == piece).all() and (down_piece == piece).all():
                break
        bumped.flat[i] = base
        numeric = (up - down) / (2.0 * h)
        scale = max(abs(numeric) + abs(analytic[i]), 1e-8)
        worst = max(worst, abs(numeric - analytic[i]) / scale)
    return worst


def gradient_check(params: ConverterParams, batch: PairDataset, *,
                   probes: int = 100, step: float = 1e-5,
                   seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences at
    randomly probed flat coordinates; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    coords = rng.choice(N_PARAMS, size=min(probes, N_PARAMS), replace=False)
    return _difference_error(params, batch, coords, step)


@dataclass(frozen=True)
class ValidationMetrics:
    mse_vector: float        # mean squared error summed over the 7 components
    mse_woba: float          # mean squared error of the implied wOBA
    neg_mass_projected: float
    epochs_run: int
    best_epoch: int


def evaluate(params: ConverterParams, batch: PairDataset, *, epochs_run: int,
             best_epoch: int) -> ValidationMetrics:
    """Metrics of params on batch.  Projection (clamp, renormalise) leaves no
    negative mass in a finite output, whose eight implied rates sum to 1;
    a non-finite output's mass reads NaN."""
    out = forward(params, batch.inputs)
    err = out - batch.targets
    woba_err = err @ WOBA_COMPONENTS
    return ValidationMetrics(
        mse_vector=float(np.sum(err * err, axis=1).mean()),
        mse_woba=float((woba_err * woba_err).mean()),
        neg_mass_projected=0.0 if np.isfinite(out).all() else math.nan,
        epochs_run=epochs_run, best_epoch=best_epoch)


def train(dataset: PairDataset,
          seed: int = 0) -> tuple[ConverterParams, ValidationMetrics]:
    """Mini-batch gradient descent with momentum and early stopping.

    The pair set is split 80/20 (by VAL_FRACTION) with a permutation drawn
    from the seed; training stops once validation loss has not improved for
    PATIENCE epochs and the best-epoch weights are returned.  Fully
    deterministic in (dataset, seed).
    """
    n = len(dataset)
    if n < 10:
        raise ConversionError(f"need at least 10 pairs, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x7A11)))
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * VAL_FRACTION)))
    if n_val >= n:
        raise ConversionError("validation split would consume every pair")
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    val = PairDataset(dataset.inputs[val_idx], dataset.targets[val_idx])
    x_train, y_train = dataset.inputs[train_idx], dataset.targets[train_idx]

    # `live` is updated in place through its flat vector; `best` holds a
    # copy of that vector from the best epoch so far
    live = init_params(seed)
    flat = live.flat
    velocity = np.zeros(N_PARAMS)
    # one workspace for the batches' backprop and the validation pass
    ws = _Workspace(max(min(BATCH_SIZE, len(train_idx)), n_val))
    grad = ws.grad.flat

    best = flat.copy()
    best_loss = math.inf
    best_epoch = 0
    stale = 0
    for epoch in range(1, MAX_EPOCHS + 1):
        # the epoch's shuffled pairs, gathered once; its batches are slices
        order = rng.permutation(len(train_idx))
        xs, ys = x_train[order], y_train[order]
        for start in range(0, len(order), BATCH_SIZE):
            _backprop(live, xs[start:start + BATCH_SIZE],
                      ys[start:start + BATCH_SIZE], ws)
            # velocity = MOMENTUM * velocity - LEARNING_RATE * grad
            grad *= LEARNING_RATE
            velocity *= MOMENTUM
            velocity -= grad
            flat += velocity
        val_loss = _mean_loss(val.inputs, val.targets, _forward_into(
            live, val.inputs, ws.h1[:n_val], ws.h2[:n_val], ws.out[:n_val]))
        if val_loss < best_loss - 1e-12:
            best_loss = val_loss
            best[:] = flat
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > PATIENCE:
                break

    del ws  # freed before evaluate allocates its own arrays
    best_params = ConverterParams(best)
    return best_params, evaluate(best_params, val, epochs_run=epoch,
                                 best_epoch=best_epoch)


def synthesize_players(n: int, seed: int) -> list[AbilityVector]:
    """Generate a plausible player pool spanning the on-base/power plane.

    Profiles come from two latent traits (overall quality and a
    contact-versus-power tilt) mapped smoothly to outcome rates, plus a
    small jitter.  Draws falling outside the pool's wOBA or on-base-share
    window are rejected and redrawn, so the pool covers the window and
    little beyond it.
    """
    if n < 2:
        raise ConversionError("need at least 2 players")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x9A7E)))
    players: list[AbilityVector] = []
    attempts = 0
    max_attempts = 200 * n
    while len(players) < n:
        attempts += 1
        if attempts > max_attempts:
            raise ConversionError(
                f"only {len(players)} of {n} draws landed in the stat window")
        quality = rng.uniform(0.0, 1.0)
        contact = rng.uniform(0.0, 1.0)
        jitter = rng.normal(0.0, 0.0020, size=5)
        power = 1.0 - contact

        p_bb = 0.042 + 0.062 * quality + 0.028 * contact + jitter[0]
        p_1b = 0.118 + 0.036 * quality + 0.062 * contact - 0.020 * power + jitter[1]
        p_2b = 0.010 + 0.030 * quality * (1.0 - 0.5 * contact) + 0.014 * power + jitter[2]
        p_3b = 0.002 + 0.004 * quality + 0.005 * power + jitter[3] * 0.5
        p_hr = 0.003 + 0.010 * power + 0.070 * quality * power + jitter[4]
        positives = np.array([p_1b, p_2b, p_3b, p_hr, p_bb])
        if positives.min() <= 0.001:
            continue
        out_mass = 1.0 - positives.sum()
        k_frac = 0.26 + 0.20 * power + 0.06 * quality
        g_frac = (1.0 - k_frac) * (0.54 - 0.05 * power)
        f_frac = 1.0 - k_frac - g_frac
        vec = AbilityVector(p_1b, p_2b, p_3b, p_hr, p_bb,
                            out_mass * k_frac, out_mass * g_frac,
                            out_mass * f_frac)
        w = woba(vec)
        share = onbase_share(vec)
        if not (WOBA_RANGE[0] <= w <= WOBA_RANGE[1]):
            continue
        if not (SHARE_RANGE[0] <= share <= SHARE_RANGE[1]):
            continue
        players.append(vec)
    return players


def build_pair_dataset(players) -> PairDataset:
    """All unordered player pairs, oriented so the conversion never gains
    wOBA: the higher-wOBA profile is the source.  Equal-wOBA ties take the
    lower-share profile as source, so tied pairs ask for a non-negative
    share shift."""
    players = list(players)
    if len(players) < 2:
        raise ConversionError("need at least 2 players to form pairs")
    comp = np.array([p.as_tuple()[:7] for p in players])
    wob = np.array([woba(p) for p in players])
    share = np.array([onbase_share(p) for p in players])

    ii, jj = np.triu_indices(len(players), k=1)
    take_j = (wob[jj] > wob[ii]) | ((wob[jj] == wob[ii]) & (share[jj] < share[ii]))
    src = np.where(take_j, jj, ii)
    dst = np.where(take_j, ii, jj)

    inputs = np.hstack([
        comp[src],
        (share[dst] - share[src])[:, None],
        (wob[dst] - wob[src])[:, None],
    ])
    targets = comp[dst] - comp[src]
    return PairDataset(inputs=inputs, targets=targets)


def project_probabilities(values) -> tuple[float, ...]:
    """Clamp negatives to zero and renormalize to a unit sum.  Vectors that
    are already valid pass through untouched, so the projection is exactly
    idempotent.  A non-finite value, or a clamp that removes more mass than
    a whole distribution holds, is no small correction and fails."""
    vals = tuple(float(v) for v in values)
    if len(vals) != 8:
        raise ConversionError(f"expected 8 components, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise ProjectionFailureError(f"non-finite component in {vals}")
    total = math.fsum(vals)
    if min(vals) >= 0.0 and abs(total - 1.0) <= 1e-12:
        return vals
    removed = -math.fsum(v for v in vals if v < 0.0)
    if removed > 1.0:
        raise ProjectionFailureError(f"clamping negatives removes {removed:.6g} "
                                     "of probability mass, more than 1")
    clamped = tuple(v if v > 0.0 else 0.0 for v in vals)
    total = math.fsum(clamped)
    if total <= 1e-9:
        raise ProjectionFailureError("no positive mass to renormalize")
    return tuple(v / total for v in clamped)


def convert(params: ConverterParams, vector: AbilityVector,
            d_onbase_share: float, d_woba: float) -> AbilityVector:
    """Produce the counterfactual profile for the requested shifts.

    d_woba must be non-positive: the conversion trades balance under a
    quality budget, it never invents a better hitter.  The network's raw
    answer is projected (clamp and renormalize) to a valid vector.
    """
    if d_woba > 0.0:
        raise ValueError(f"d_woba must be non-positive, got {d_woba}")
    validate(vector)
    x = np.array(vector.as_tuple()[:7] + (d_onbase_share, d_woba))
    delta = forward(params, x[None])[0]
    implied = x[:7] + delta
    raw = tuple(implied) + (1.0 - float(implied.sum()),)
    projected = project_probabilities(raw)
    try:
        return validate(AbilityVector(*projected))
    except NoOutProbabilityError as exc:
        raise ProjectionFailureError(
            "projected vector has no out probability") from exc


def save_params(params: ConverterParams, fh, *, train_seed: int) -> None:
    """Write params as JSON to the open text file fh: layer arrays, the
    wOBA weights they were trained under, and a metadata block recording
    the input ordering, the loss weights and the training seed."""
    metadata = {
        "input_order": list(INPUT_ORDER),
        "loss_weights": {"negativity": NEGATIVITY_WEIGHT,
                         "woba_consistency": WOBA_CONSISTENCY_WEIGHT},
        "train_seed": int(train_seed),
    }
    obj = {
        "architecture": [9, HIDDEN_WIDTH, HIDDEN_WIDTH, 7],
        "input_order": list(INPUT_ORDER),
        "metadata": metadata,
        "woba_weights": WOBA_WEIGHTS,
        **{name: getattr(params, name).tolist() for name, _ in LAYOUT},
    }
    fh.write(json.dumps(obj))
    fh.write("\n")


def load_params(path) -> ConverterParams:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConversionError(f"{path}: converter params must be a JSON object")
    missing = [key for key in ("architecture", "input_order", "woba_weights",
                               *(name for name, _ in LAYOUT)) if key not in obj]
    if missing:
        raise ConversionError(f"{path}: converter params lack {missing}")
    if obj["architecture"] != [9, HIDDEN_WIDTH, HIDDEN_WIDTH, 7]:
        raise ConversionError(f"unsupported architecture {obj['architecture']}")
    if obj["input_order"] != list(INPUT_ORDER):
        raise ConversionError("input order does not match this build")
    if obj["woba_weights"] != WOBA_WEIGHTS:
        raise ConversionError(f"{path}: trained under wOBA weights "
                              f"{obj['woba_weights']}, not this build's")
    try:
        arrays = {name: np.array(obj[name], dtype=float) for name, _ in LAYOUT}
    except (TypeError, ValueError) as exc:
        raise ConversionError(f"{path}: malformed converter params: {exc}") from exc
    for name, shape in LAYOUT:
        if arrays[name].shape != shape:
            raise ConversionError(f"{path}: {name} must have shape {shape}, "
                                  f"got {arrays[name].shape}")
    bad = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
    if bad:
        raise ConversionError(f"{path}: non-finite weights in {bad}")
    return ConverterParams(np.concatenate([arrays[name].ravel()
                                           for name, _ in LAYOUT]))


PAIR_CSV_HEADER = INPUT_ORDER + tuple(f"d_{k}" for k in REDUCED_KEYS)


def dump_pair_csv(dataset: PairDataset, path) -> None:
    """Inspection dump: 9 input columns then the 7 target-delta columns."""
    write_csv(path, PAIR_CSV_HEADER, np.hstack([dataset.inputs, dataset.targets]))
