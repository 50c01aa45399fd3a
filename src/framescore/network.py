"""From-scratch feed-forward classifier with exact input gradients.

The model is a per-coordinate input standardizer followed by fully connected
ReLU layers and a single sigmoid output giving P(label = 1 = normal).
Training is mini-batch gradient descent with momentum on binary
cross-entropy; forward, backward, and input gradients are hand-written
matrix arithmetic, checked against finite differences in the test suite.

Input coordinates that are constant over the training set get a scale of
zero and their first-layer weight rows are zeroed at initialization: they
cannot influence the output, would never receive weight updates anyway, and
therefore carry exactly zero input gradient instead of initialization noise.
Training works on Z = standardized live columns of X (n trials x live
inputs) and trains the first layer in its dual form; in a grid search each
fold is standardized once, and its Gram matrix is shared by the fold's
cells. Every first-layer gradient is Z[batch].T @ delta, so momentum SGD
never moves W0 out of W0_init + span(Z.T): W0 - W0_init == Z.T @ S for an
n x h coefficient matrix S (the representer argument of Schoelkopf, Herbrich
& Smola 2001). Training updates S through the n x n Gram matrix Z @ Z.T,
which costs O(batch * n * h) per step instead of O(batch * live * h), with
n far below the live input count.

A fit pays only for what it reads. It draws only the live first-layer rows
and skips the dead ones in the random stream, so every value is the one a
full draw gives. Every later weight and every bias is a view of one flat
vector, so a momentum step over them is four ufunc calls. The train
accuracy comes from the dual form, A0 + K @ S = Z @ W0 with A0 = Z @ W0_init,
with no second forward over the live inputs. At the end the trained live
rows are scattered once into the full-width first-layer matrix, whose dead
rows are exactly zero.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .data import json_numbers, json_object, random_stream
from .errors import DataValidationError, NumericFailure

PROB_EPS = 1e-12
_DEAD_SIGMA = 1e-12

CHECKPOINT_FORMAT = "ffnet-checkpoint-v2"


@dataclass(frozen=True)
class ModelArchitecture:
    """Layer widths of the classifier; the output layer is always one unit."""

    input_dim: int
    hidden_layers: tuple[int, ...] = (64, 32)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if self.input_dim < 1:
            raise DataValidationError("input_dim must be positive")
        if any(w < 1 for w in self.hidden_layers):
            raise DataValidationError("hidden widths must be at least 1")
        # No parameter array is larger than all of them together, and numpy
        # cannot make one of more than sys.maxsize bytes.
        size = 8 * self.parameter_count
        if size > sys.maxsize:
            raise DataValidationError(
                f"hidden widths {list(self.hidden_layers)} are too large for "
                f"input_dim {self.input_dim}: their float64 parameters would "
                f"take {size} bytes, more than sys.maxsize ({sys.maxsize})"
            )

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, 1)

    @property
    def parameter_count(self) -> int:
        dims = self.layer_dims
        return sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    epochs: int = 200
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise DataValidationError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise DataValidationError("momentum must be in [0, 1)")
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise DataValidationError(f"{name} must be at least {least}")


@dataclass(frozen=True)
class InputScaler:
    """Affine per-coordinate transform x -> (x - mean) * scale.

    Coordinates with (near-)zero variance get scale 0, so the transformed
    input is identically zero there.
    """

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        if mean.shape != scale.shape or mean.ndim != 1:
            raise DataValidationError("scaler mean/scale must be matching vectors")
        if not (np.isfinite(mean).all() and np.isfinite(scale).all()
                and (scale >= 0).all()):
            raise DataValidationError(
                "scaler mean and scale must be finite, and scale at least 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def fit(cls, X: np.ndarray) -> "InputScaler":
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            sigma = X.std(axis=0)
        overflow = ~(np.isfinite(mean) & np.isfinite(sigma))
        if overflow.any():
            raise DataValidationError(
                "the features' mean or standard deviation overflows float64, "
                f"first at input coordinate {int(overflow.argmax())}")
        live = sigma > _DEAD_SIGMA
        scale = np.where(live, 1.0 / np.where(live, sigma, 1.0), 0.0)
        return cls(mean=mean, scale=scale)

    @property
    def live_mask(self) -> np.ndarray:
        return self.scale > 0

    def transform(self, X: np.ndarray) -> np.ndarray:
        Z = X - self.mean
        Z *= self.scale
        return Z


@dataclass
class TrainedModel:
    """Architecture, fitted scaler, per-layer weights, and run metadata."""

    architecture: ModelArchitecture
    scaler: InputScaler
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        dims = self.architecture.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise DataValidationError("layer count mismatch")
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            if self.weights[i].shape != (a, b) or self.biases[i].shape != (b,):
                raise DataValidationError(
                    f"layer {i}: weight shape {self.weights[i].shape} does not "
                    f"match architecture ({a}, {b})"
                )
            if not (np.isfinite(self.weights[i]).all()
                    and np.isfinite(self.biases[i]).all()):
                raise DataValidationError(f"layer {i}: non-finite parameters")
        if self.scaler.mean.shape != (self.architecture.input_dim,):
            raise DataValidationError("scaler dimension mismatch")


def _flat_layers(dims) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zero vector holding every weight after the first layer and then
    every bias, with its views shaped as those layers, in that order."""
    shapes = [*zip(dims[1:-1], dims[2:]), *((b,) for b in dims[1:])]
    sizes = [math.prod(s) for s in shapes]
    flat = np.zeros(sum(sizes))
    return flat, [v.reshape(s) for v, s in
                  zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]


def _init_layers(architecture: ModelArchitecture, rng: np.random.Generator,
                 scaler: InputScaler):
    """`init_model`'s draw, in the form training uses it: the model with an
    all-zero first layer, the live rows of that layer as one contiguous
    matrix, and the flat vector that every later weight and every bias of
    the model is a view of.

    The stream is the one a full draw of every layer reads: each live run
    of first-layer rows is drawn, and each dead run is skipped with
    `advance`, as one PCG64 output makes one double.
    """
    dims = architecture.layer_dims
    flat, layers = _flat_layers(dims)
    width = dims[1]
    live = scaler.live_mask
    limit = np.sqrt(6.0 / (dims[0] + width))
    parts, done = [np.empty((0, width))], 0
    runs = np.flatnonzero(np.diff(live, prepend=False, append=False))
    for start, stop in runs.reshape(-1, 2).tolist():
        rng.bit_generator.advance((start - done) * width)
        parts.append(rng.uniform(-limit, limit, size=(stop - start, width)))
        done = stop
    rng.bit_generator.advance((dims[0] - done) * width)
    for W, a, b in zip(layers, dims[1:-1], dims[2:]):
        limit = np.sqrt(6.0 / (a + b))
        W[...] = rng.uniform(-limit, limit, size=(a, b))
    depth = len(dims) - 2
    model = TrainedModel(architecture, scaler,
                         [np.zeros((dims[0], width)), *layers[:depth]],
                         layers[depth:])
    # One live run, as in a padded dataset, needs no copy.
    W0 = parts[1] if len(parts) == 2 else np.concatenate(parts)
    return model, W0, flat


def init_model(architecture: ModelArchitecture, rng: np.random.Generator,
               scaler: InputScaler) -> TrainedModel:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases, and
    exactly +0.0 in the first-layer rows of dead inputs: they never receive
    weight updates, so they add no initialization noise to input gradients."""
    model, W0, _ = _init_layers(architecture, rng, scaler)
    model.weights[0][scaler.live_mask] = W0
    return model


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _activate(z: np.ndarray, weights, biases):
    """The layers after the first, from the first layer's pre-activation z:
    probabilities, hidden pre-activations, and the inputs of layers 1.."""
    pre, post = [], []
    for W, b in zip(weights, biases):
        h = np.maximum(z, 0.0)
        pre.append(z)
        post.append(h)
        z = h @ W + b
    return _sigmoid(z[:, 0]), pre, post


def _deltas(weights, y, probs, pre):
    """Mean-over-batch loss derivative at each layer's pre-activation, from
    the weights of the layers after the first."""
    d = (probs - y)[:, None] / len(y)
    deltas = [d]
    for W, z in zip(weights[::-1], pre[::-1]):
        d = (d @ W.T) * (z > 0)
        deltas.insert(0, d)
    return deltas


def _backward(weights, y, probs, pre, post):
    """Mean-over-batch gradients for every weight and bias."""
    deltas = _deltas(weights[1:], y, probs, pre)
    return [h.T @ d for h, d in zip(post, deltas)], [d.sum(axis=0) for d in deltas]


def _forward_batch(model: TrainedModel, X: np.ndarray):
    """Probabilities plus cached pre-activations and activations per layer
    for raw inputs X; the one layer loop of inference."""
    h = model.scaler.transform(X)
    W, b = model.weights, model.biases
    probs, pre, post = _activate(h @ W[0] + b[0], W[1:], b[1:])
    return probs, pre, [h, *post]


def bce_loss(probability, y):
    """Binary cross-entropy in nats, elementwise, with the probability
    clipped away from {0, 1}."""
    p = np.clip(probability, PROB_EPS, 1.0 - PROB_EPS)
    return -(y * np.log(p) + (1 - y) * np.log(1 - p))


def loss_gradients(model: TrainedModel, X: np.ndarray, y: np.ndarray):
    """Gradients of the mean BCE over (X, y) w.r.t. weights and biases."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    probs, pre, post = _forward_batch(model, X)
    return _backward(model.weights, y, probs, pre, post)


def input_gradient(model: TrainedModel, x: np.ndarray, y: int) -> np.ndarray:
    """Exact gradient of the loss w.r.t. the model's standardized input.

    Constant (zero-scale) coordinates have zero first-layer weights and
    therefore exactly zero gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.architecture.input_dim,):
        raise DataValidationError(
            f"input shape {x.shape} does not match input_dim "
            f"{model.architecture.input_dim}"
        )
    probs, pre, _ = _forward_batch(model, x[None, :])
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    d0 = _deltas(model.weights[1:], np.array([y]), p, pre)[0]
    return (d0 @ model.weights[0].T)[0]


def _standardize(X: np.ndarray):
    """The input scaler fitted to X, Z = the standardized live columns of X,
    and the Gram matrix K = Z @ Z.T: all that training takes from X besides
    its shape."""
    scaler = InputScaler.fit(X)
    # Dead inputs are zero after standardizing and their first-layer rows
    # stay zero, so only the live columns of Z and rows of W0 take part.
    live = scaler.live_mask
    Z = X[:, live]
    Z -= scaler.mean[live]
    Z *= scaler.scale[live]
    return scaler, Z, Z @ Z.T


@np.errstate(over="ignore", invalid="ignore")
def train(
    X: np.ndarray,
    y: np.ndarray,
    architecture: ModelArchitecture,
    config: TrainConfig,
    *,
    standardized=None,
) -> TrainedModel:
    """Mini-batch SGD with momentum; deterministic for a fixed seed.

    X holds one flattened feature trial per row; y holds trial labels with
    1 = normal. A batch_size above the row count trains on whole-set
    batches. The fitted input scaler, per-epoch loss trace, final training
    accuracy and the batch size used are stored on the returned model.
    A non-finite batch loss, or anything non-finite after the last update,
    raises NumericFailure; numpy's overflow and invalid flags stay silent.
    `standardized` is `_standardize(X)` when the caller already holds it,
    as a grid search does for each fold; None computes it here.

    The result is bit for bit that of a loop over full-width initial
    weights with one momentum update per parameter array and a forward pass
    for the train accuracy: only the live first-layer rows are drawn, the
    other parameters step as one flat vector, and the train accuracy is
    read from the dual form.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(X)
    if n == 0:
        raise DataValidationError("training set is empty")
    if X.ndim != 2 or X.shape[1] != architecture.input_dim:
        raise DataValidationError(
            f"training matrix shape {X.shape} does not match input_dim "
            f"{architecture.input_dim}"
        )
    batch_size = min(config.batch_size, n)

    scaler, Z, K = _standardize(X) if standardized is None else standardized
    model, W0, P = _init_layers(architecture, random_stream(config.seed, 0),
                                scaler)
    # Every first-layer gradient is Z[idx].T @ d0, so W0 - W0_init == Z.T @ S
    # for an n x h coefficient matrix S, updated with the same momentum rule
    # as the weights: a step costs O(batch * n * h), not O(batch * live * h).
    A0 = Z @ W0
    S = np.zeros_like(A0)
    V = np.zeros_like(A0)
    weights, biases = model.weights[1:], model.biases
    # The later weights and every bias are views of P, their gradients views
    # of G.
    G, grads = _flat_layers(architecture.layer_dims)
    grad_w, grad_b = grads[: len(weights)], grads[len(weights) :]
    VP = np.zeros_like(P)
    shuffle = random_stream(config.seed, 1)

    trace = []
    for epoch in range(config.epochs):
        order = shuffle.permutation(n)
        epoch_loss = 0.0
        for bi, start in enumerate(range(0, n, batch_size)):
            idx = order[start : start + batch_size]
            yb = y[idx]
            probs, pre, post = _activate(A0[idx] + K[idx] @ S + biases[0],
                                         weights, biases[1:])
            batch_loss = float(bce_loss(probs, yb).mean())
            if not math.isfinite(batch_loss):
                raise NumericFailure(
                    f"non-finite loss at epoch {epoch}, batch {bi}"
                )
            epoch_loss += batch_loss * len(idx)
            deltas = _deltas(weights, yb, probs, pre)
            for h, d, g in zip(post, deltas[1:], grad_w):
                np.matmul(h.T, d, out=g)
            for d, g in zip(deltas, grad_b):
                d.sum(axis=0, out=g)
            VP *= config.momentum
            G *= config.learning_rate
            VP -= G
            P += VP
            # W0's momentum step in coefficients: Z.T @ V is W0's velocity,
            # and its gradient Z[idx].T @ deltas[0] touches rows idx of V.
            V *= config.momentum
            V[idx] -= config.learning_rate * deltas[0]
            S += V
        trace.append(epoch_loss / n)
    # Z @ W0 == A0 + K @ S, so the train-set forward needs no n x live
    # product.
    probs, _, _ = _activate(A0 + K @ S + biases[0], weights, biases[1:])
    W0 += (S.T @ Z).T
    if not all(np.isfinite(a).all() for a in (probs, P, W0)):
        raise NumericFailure("non-finite parameters after the last update")
    model.weights[0][scaler.live_mask] = W0

    model.metadata = {
        "seed": config.seed,
        "config": {
            "learning_rate": config.learning_rate,
            "momentum": config.momentum,
            "epochs": config.epochs,
            "batch_size": batch_size,
        },
        "train_accuracy": _accuracy(probs, y),
        "loss_trace": trace,
    }
    return model


def predict_proba(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    probs, _, _ = _forward_batch(model, np.asarray(X, dtype=np.float64))
    return probs


def _accuracy(probs: np.ndarray, y: np.ndarray) -> float:
    predicted = (probs >= 0.5).astype(np.int64)
    return float((predicted == np.asarray(y).astype(np.int64)).mean())


def evaluate_accuracy(model: TrainedModel, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of trials classified correctly at probability threshold 0.5."""
    return _accuracy(predict_proba(model, X), y)


DEFAULT_GRID_HIDDEN = ((32,), (64,), (64, 32), (128, 64))
DEFAULT_GRID_LEARNING_RATES = (1e-3, 1e-4)


@dataclass(frozen=True)
class GridCell:
    architecture: ModelArchitecture
    config: TrainConfig
    mean_val_accuracy: float
    fold_accuracies: tuple[float, ...]


@dataclass(frozen=True)
class GridSearchResult:
    cells: tuple[GridCell, ...]
    best_index: int
    warnings: tuple[str, ...]

    @property
    def best(self) -> GridCell:
        return self.cells[self.best_index]


def grid_search(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    hidden_options=DEFAULT_GRID_HIDDEN,
    learning_rates=DEFAULT_GRID_LEARNING_RATES,
    folds: int = 3,
) -> GridSearchResult:
    """K-fold cross-validated selection over hidden widths x learning rates,
    hidden-major, each cell training `config` at its rate; `config.seed`
    also draws the folds. The best cell maximizes mean validation accuracy;
    ties prefer fewer parameters, then a lower learning rate, then earlier
    grid position.

    The search runs fold-major: each fold's training rows are standardized
    once and every cell trains on them before the next fold. A fit that
    fails raises NumericFailure naming its grid cell and fold, and the one
    named is the first failure in fold order, then in cell order. A fold
    whose validation rows hold one class is noted in `warnings`.
    """
    if not hidden_options or not learning_rates:
        raise DataValidationError("grid must not be empty")
    if folds < 2:
        raise DataValidationError("folds must be at least 2")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(X)
    if n < folds:
        raise DataValidationError(f"{n} samples cannot form {folds} folds")

    fold_indices = np.array_split(random_stream(config.seed, 2).permutation(n), folds)

    notes = tuple(f"fold {fi}: validation split contains a single class"
                  for fi, val_idx in enumerate(fold_indices)
                  if len(np.unique(y[val_idx])) < 2)

    specs = [(ModelArchitecture(X.shape[1], tuple(hidden)),
              replace(config, learning_rate=lr))
             for hidden in hidden_options for lr in learning_rates]
    accs = [[] for _ in specs]
    for fi, val_idx in enumerate(fold_indices):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        # Each fit slices X[mask] again: one copy held across the fold's
        # cells would raise the peak RSS of training.
        standardized = _standardize(X[mask])
        for ci, (arch, cell_config) in enumerate(specs):
            try:
                fold_model = train(X[mask], y[mask], arch, cell_config,
                                   standardized=standardized)
            except NumericFailure as exc:
                raise NumericFailure(
                    f"grid cell {ci} (hidden {list(arch.hidden_layers)}, "
                    f"lr {cell_config.learning_rate}), fold {fi}: {exc}") from exc
            accs[ci].append(evaluate_accuracy(fold_model, X[val_idx], y[val_idx]))
            # Freed before the next fit, which would otherwise run beside a
            # spent model (a 128-wide first layer is 6.5 MB on the default
            # data).
            del fold_model
        del standardized
    cells = [GridCell(arch, cell_config, float(np.mean(a)), tuple(a))
             for (arch, cell_config), a in zip(specs, accs)]

    best_index = min(
        range(len(cells)),
        key=lambda i: (
            -cells[i].mean_val_accuracy,
            cells[i].architecture.parameter_count,
            cells[i].config.learning_rate,
            i,
        ),
    )
    return GridSearchResult(tuple(cells), best_index, notes)


def save_model(model: TrainedModel, path) -> None:
    """Checkpoint as the JSON text `json.dumps(payload)`. Each weight matrix
    is one string, the base64 of its row-major little-endian float64 bytes;
    the scaler, biases and metadata are JSON numbers. Every float
    round-trips exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "architecture": {
            "input_dim": model.architecture.input_dim,
            "hidden_layers": list(model.architecture.hidden_layers),
        },
        "scaler": {
            "mean": model.scaler.mean.tolist(),
            "scale": model.scaler.scale.tolist(),
        },
        "weights": [base64.b64encode(W.astype("<f8", copy=False).tobytes())
                    .decode("ascii") for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "metadata": model.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def _architecture(obj) -> ModelArchitecture:
    hidden = obj["hidden_layers"]
    if type(obj["input_dim"]) is not int or not isinstance(hidden, list) \
            or any(type(w) is not int for w in hidden):
        raise TypeError("want an integer input_dim and a list of integer "
                        f"hidden_layers, got {obj!r}")
    return ModelArchitecture(obj["input_dim"], tuple(hidden))


def load_model(path) -> TrainedModel:
    """Read a `save_model` checkpoint. A malformed one raises
    DataValidationError naming the path and the field. The weights are
    read-only views of the decoded base64 bytes; nothing writes them."""
    with open(path, "rb") as fh:
        payload = json_object(fh.read(), path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise DataValidationError(
            f"{path}: unsupported checkpoint format {payload.get('format')!r}"
        )

    def read(name, build):
        if name not in payload:
            raise DataValidationError(f"{path}: checkpoint field {name!r} is missing")
        try:
            return build(payload[name])
        except (DataValidationError, KeyError, TypeError, ValueError) as exc:
            why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise DataValidationError(
                f"{path}: checkpoint field {name!r}: {why}") from exc

    def floats(value, what: str) -> np.ndarray:
        return json_numbers(value, what).astype(np.float64, copy=False)

    arch = read("architecture", _architecture)
    dims = arch.layer_dims
    scaler = read("scaler", lambda s: InputScaler(
        mean=floats(s["mean"], "mean"), scale=floats(s["scale"], "scale")))

    def matrices(ws):
        if len(ws) != len(dims) - 1:
            raise DataValidationError("layer count mismatch")
        # A string that is not base64, or whose bytes do not fill the layer,
        # raises a ValueError here; anything but a string, a TypeError.
        return [np.frombuffer(base64.b64decode(text, validate=True), "<f8")
                .reshape(a, b) for text, a, b in zip(ws, dims[:-1], dims[1:])]

    weights = read("weights", matrices)
    biases = read("biases", lambda bs: [floats(b, f"layer {i}")
                                        for i, b in enumerate(bs)])
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataValidationError(
            f"{path}: checkpoint field 'metadata' must be a JSON object")
    try:
        return TrainedModel(arch, scaler, weights, biases, metadata)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
