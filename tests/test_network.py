import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framescore import network
from framescore.errors import DataValidationError, NumericFailure
from framescore.network import (
    DEFAULT_GRID_HIDDEN,
    DEFAULT_GRID_LEARNING_RATES,
    InputScaler,
    ModelArchitecture,
    TrainConfig,
    TrainedModel,
    _forward_batch,
    _standardize,
    bce_loss,
    evaluate_accuracy,
    grid_search,
    init_model,
    input_gradient,
    load_model,
    loss_gradients,
    predict_proba,
    save_model,
    train,
)


def make_model(input_dim, hidden, weights=None, biases=None, scaler=None):
    arch = ModelArchitecture(input_dim, hidden)
    dims = arch.layer_dims
    if weights is None:
        weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    if biases is None:
        biases = [np.zeros(b) for b in dims[1:]]
    if scaler is None:
        scaler = identity_scaler(input_dim)
    return TrainedModel(arch, scaler, weights, biases)


def identity_scaler(input_dim):
    return InputScaler(np.zeros(input_dim), np.ones(input_dim))


def random_model(rng, input_dim, hidden):
    return init_model(ModelArchitecture(input_dim, hidden), rng,
                      identity_scaler(input_dim))


def probability(model, x):
    """P(normal) for one flattened feature vector."""
    return predict_proba(model, x[None])[0]


def mean_loss(model, X, y):
    return float(
        np.mean([bce_loss(probability(model, x), yi) for x, yi in zip(X, y)])
    )


def fd_input_gradient(model, x, y, step_scale=1e-6):
    """Central finite differences of the loss w.r.t. each input coordinate."""
    grad = np.zeros_like(x)
    for i in range(len(x)):
        h = step_scale * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        lp = bce_loss(probability(model, xp), y)
        lm = bce_loss(probability(model, xm), y)
        grad[i] = (lp - lm) / (2.0 * h)
    return grad


def assert_close_rel(a, b, rtol):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    assert np.all(np.abs(a - b) <= rtol * denom), \
        f"max rel err {np.max(np.abs(a - b) / denom):.3e}"


def min_preactivation(model, X):
    """Smallest |pre-activation| over all hidden units and samples."""
    lo = np.inf
    for x in np.atleast_2d(X):
        _, pre, _ = _forward_batch(model, x[None])
        for z in pre:
            lo = min(lo, float(np.abs(z).min()))
    return lo


def kink_free_case(base_seed, input_dim, hidden, n_samples=1, margin=1e-3):
    """Random model and inputs with no pre-activation near a ReLU kink.

    Finite differences are only valid where the step does not cross a kink,
    so derive sub-seeds until every hidden unit has margin.
    """
    for attempt in range(50):
        rng = np.random.default_rng((base_seed, attempt))
        model = random_model(rng, input_dim, hidden)
        X = rng.normal(size=(n_samples, input_dim))
        y = rng.integers(0, 2, size=n_samples).astype(float)
        if min_preactivation(model, X) > margin:
            return model, X, y
    raise AssertionError("no kink-free case found")


class TestForward:
    def test_zero_parameters_give_half(self):
        model = make_model(4, (3, 2))
        assert probability(model, np.array([1.0, -2.0, 3.0, 0.5])) == 0.5

    def test_orthogonal_linear_layer_gives_half(self):
        model = make_model(2, (), weights=[np.array([[1.0], [-1.0]])])
        assert probability(model, np.array([3.0, 3.0])) == 0.5

    def test_single_unit_monotone_in_positive_weight(self):
        model = make_model(1, (), weights=[np.array([[2.0]])])
        p1, p2, p3 = predict_proba(model, np.array([[0.1], [0.5], [2.0]]))
        assert p1 < p2 < p3

    def test_probability_in_open_interval(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 6, (5, 4))
        for _ in range(10):
            assert 0.0 < probability(model, rng.normal(size=6)) < 1.0


class TestBceLoss:
    def test_half_probability(self):
        assert bce_loss(0.5, 1) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        assert bce_loss(1.0 - 1e-9, 1) == pytest.approx(0.0, abs=1e-8)

    def test_hand_value(self):
        assert bce_loss(0.9, 0) == pytest.approx(-np.log(0.1), rel=1e-12)

    def test_clamped_endpoints_finite(self):
        assert np.isfinite(bce_loss(0.0, 1))
        assert np.isfinite(bce_loss(1.0, 0))

    @given(p=st.floats(1e-9, 1 - 1e-9))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_non_negativity(self, p):
        # the identity is exact in real arithmetic; 1-p rounding costs a few
        # ulps of relative accuracy near the endpoints
        assert bce_loss(p, 1) >= 0.0
        assert bce_loss(p, 1) == pytest.approx(bce_loss(1 - p, 0), rel=1e-6)


class TestInputGradient:
    def test_hand_chain_rule(self):
        model = make_model(2, (), weights=[np.array([[1.0], [-1.0]])])
        grad = input_gradient(model, np.array([0.0, 0.0]), 1)
        assert grad == pytest.approx([-0.5, 0.5], abs=1e-12)

    def test_zero_network_zero_gradient(self):
        model = make_model(3, (4,))
        grad = input_gradient(model, np.array([1.0, 2.0, 3.0]), 0)
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        model, X, y = kink_free_case(seed, 12, (8, 6))
        assert_close_rel(input_gradient(model, X[0], int(y[0])),
                         fd_input_gradient(model, X[0], int(y[0])), 1e-5)

    def test_fitted_scaler_chains_through(self):
        """Raw-space finite differences equal the gradient times the scale."""
        rng = np.random.default_rng(11)
        X_fit = np.column_stack(
            [rng.normal(5.0, 3.0, 40), rng.normal(-2.0, 0.5, 40),
             np.full(40, 7.0)]  # constant: dead coordinate
        )
        scaler = InputScaler.fit(X_fit)
        model = init_model(ModelArchitecture(3, (5,)), rng, scaler)
        x = np.array([4.0, -1.5, 7.0])
        analytic_std_space = input_gradient(model, x, 1)
        fd_raw_space = fd_input_gradient(model, x, 1)
        assert_close_rel(analytic_std_space * scaler.scale, fd_raw_space, 1e-5)
        assert analytic_std_space[2] == 0.0  # dead coordinate, zeroed row

    def test_relu_dead_zone_gives_zero_gradient(self):
        # coordinate 0 feeds only the first hidden unit, held inactive
        w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        w2 = np.array([[1.0], [1.0]])
        model = make_model(2, (2,), weights=[w1, w2],
                           biases=[np.array([-10.0, 0.0]), np.zeros(1)])
        grad = input_gradient(model, np.array([1.0, 1.0]), 1)
        assert grad[0] == 0.0
        assert grad[1] != 0.0


class TestParameterGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_match_finite_differences(self, seed):
        model, X, y = kink_free_case(100 + seed, 5, (4, 3), n_samples=6)
        grads_w, grads_b = loss_gradients(model, X, y)
        h = 1e-6
        for li in range(len(model.weights)):
            fd = np.zeros_like(model.weights[li])
            it = np.nditer(fd, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = model.weights[li][idx]
                model.weights[li][idx] = orig + h
                lp = mean_loss(model, X, y)
                model.weights[li][idx] = orig - h
                lm = mean_loss(model, X, y)
                model.weights[li][idx] = orig
                fd[idx] = (lp - lm) / (2 * h)
                it.iternext()
            assert_close_rel(grads_w[li], fd, 1e-5)
            fd_b = np.zeros_like(model.biases[li])
            for j in range(len(fd_b)):
                orig = model.biases[li][j]
                model.biases[li][j] = orig + h
                lp = mean_loss(model, X, y)
                model.biases[li][j] = orig - h
                lm = mean_loss(model, X, y)
                model.biases[li][j] = orig
                fd_b[j] = (lp - lm) / (2 * h)
            assert_close_rel(grads_b[li], fd_b, 1e-5)


def separable_toy(n=24, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    X[:, 0] += np.where(np.arange(n) % 2 == 0, 3.0, -3.0)
    y = (np.arange(n) % 2 == 0).astype(float)
    return X, y


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        X, y = separable_toy()
        model = train(X, y, ModelArchitecture(2, (4,)),
                      TrainConfig(epochs=200, batch_size=8, seed=1))
        assert model.metadata["train_accuracy"] == 1.0
        assert len(model.metadata["loss_trace"]) == 200

    def test_loss_trace_decreases(self):
        X, y = separable_toy()
        model = train(X, y, ModelArchitecture(2, (4,)),
                      TrainConfig(epochs=50, batch_size=8, seed=1))
        trace = model.metadata["loss_trace"]
        assert trace[-1] < trace[0]

    def test_bit_identical_checkpoints_for_same_seed(self, tmp_path):
        X, y = separable_toy()
        paths = []
        for name in ("a.json", "b.json"):
            model = train(X, y, ModelArchitecture(2, (4, 3)),
                          TrainConfig(epochs=20, batch_size=8, seed=7))
            path = tmp_path / name
            save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self):
        X, y = separable_toy()
        m1 = train(X, y, ModelArchitecture(2, (4,)),
                   TrainConfig(epochs=5, batch_size=8, seed=1))
        m2 = train(X, y, ModelArchitecture(2, (4,)),
                   TrainConfig(epochs=5, batch_size=8, seed=2))
        assert not np.array_equal(m1.weights[0], m2.weights[0])

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataValidationError):
            train(np.zeros((0, 2)), np.zeros(0), ModelArchitecture(2, ()),
                  TrainConfig())

    def test_batch_size_larger_than_set_is_whole_set(self):
        X, y = separable_toy(n=8)
        arch = ModelArchitecture(2, (4,))
        big = train(X, y, arch, TrainConfig(batch_size=16, epochs=3, seed=1))
        whole = train(X, y, arch, TrainConfig(batch_size=8, epochs=3, seed=1))
        for got, want in zip(big.weights + big.biases,
                             whole.weights + whole.biases):
            assert got.tobytes() == want.tobytes()
        assert big.metadata == whole.metadata
        assert big.metadata["config"]["batch_size"] == 8

    def test_non_finite_loss_raises_with_location(self):
        X = np.array([[1.0, -1.0], [2.0, 1.0], [0.5, 0.3], [-1.0, 2.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        config = TrainConfig(learning_rate=1e300, epochs=5, batch_size=4,
                             seed=0)
        with pytest.raises(NumericFailure, match=r"epoch \d+, batch \d+"):
            train(X, y, ModelArchitecture(2, (4,)), config)

    def test_last_update_divergence_raises(self):
        # One epoch of one batch: no loss is checked after the only update.
        X = np.array([[1.0, -1.0], [2.0, 1.0], [0.5, 0.3], [-1.0, 2.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        config = TrainConfig(learning_rate=1e300, epochs=1, batch_size=4,
                             seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure,
                               match="non-finite parameters after the last "
                                     "update"):
                train(X, y, ModelArchitecture(2, (4,)), config)

    def test_dead_coordinates_pruned(self):
        X, y = separable_toy()
        X = np.column_stack([X, np.full(len(X), 3.14)])
        model = train(X, y, ModelArchitecture(3, (4,)),
                      TrainConfig(epochs=5, batch_size=8, seed=0))
        assert np.all(model.weights[0][2] == 0.0)
        assert not model.scaler.live_mask[2]


def full_draw(rng, dims):
    """Every initial weight matrix, drawn in full, layer after layer."""
    return [rng.uniform(-np.sqrt(6.0 / (a + b)), np.sqrt(6.0 / (a + b)),
                        size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]


class TestLiveRowDraw:
    """Training draws only the live first-layer rows and skips the dead ones
    in the stream: each double must take one PCG64 output."""

    @given(live=st.lists(st.booleans(), min_size=1, max_size=30),
           hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
           seed=st.integers(0, 2**64))
    @example(live=[False] * 5, hidden=(3,), seed=0)
    @example(live=[True] * 5, hidden=(3,), seed=0)
    @example(live=[False, True, True, False], hidden=(4, 2), seed=1)
    @example(live=[True, False, True, True, False, False, True, False],
             hidden=(2,), seed=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_a_full_draw(self, live, hidden, seed):
        live = np.array(live)
        arch = ModelArchitecture(len(live), hidden)
        scaler = InputScaler(np.zeros(len(live)), live.astype(float))
        full_rng = np.random.default_rng(seed)
        full = full_draw(full_rng, arch.layer_dims)

        rng = np.random.default_rng(seed)
        model, W0, _ = network._init_layers(arch, rng, scaler)
        assert W0.tobytes() == full[0][live].tobytes()
        # The later layers come from where the full first layer ends.
        for got, want in zip(model.weights[1:], full[1:]):
            assert got.tobytes() == want.tobytes()
        assert rng.random(4).tolist() == full_rng.random(4).tolist()

        model = init_model(arch, np.random.default_rng(seed), scaler)
        assert model.weights[0][live].tobytes() == full[0][live].tobytes()
        dead = model.weights[0][~live]
        assert np.all(dead == 0.0) and not np.signbit(dead).any()
        assert all(b.tobytes() == np.zeros_like(b).tobytes()
                   for b in model.biases)


def per_parameter_train(X, y, architecture, config):
    """The dual-form loop with one momentum update per parameter array, a
    full draw of every initial layer, and the train accuracy from a forward
    pass over the trained first layer: weights, biases, loss trace and train
    accuracy."""
    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def layers(z, weights, biases):
        pre, post = [], []
        for W, b in zip(weights, biases):
            h = np.maximum(z, 0.0)
            pre.append(z)
            post.append(h)
            z = h @ W + b
        return sigmoid(z[:, 0]), pre, post

    scaler, Z, K = _standardize(X)
    live = scaler.live_mask
    dims = architecture.layer_dims
    weights = full_draw(
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,))),
        dims)
    biases = [np.zeros(b) for b in dims[1:]]
    weights[0][~live] = 0.0
    W0 = weights[0][live]
    A0 = Z @ W0
    S = np.zeros_like(A0)
    V = np.zeros_like(A0)
    params = weights[1:] + biases
    velocities = [np.zeros_like(p) for p in params]
    shuffle = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(1,)))
    n, batch_size = len(X), min(config.batch_size, len(X))
    trace = []
    for _ in range(config.epochs):
        order = shuffle.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            yb = y[idx]
            probs, pre, post = layers(A0[idx] + K[idx] @ S + biases[0],
                                      weights[1:], biases[1:])
            p = np.clip(probs, 1e-12, 1.0 - 1e-12)
            epoch_loss += float(
                -(yb * np.log(p) + (1 - yb) * np.log(1 - p)).mean()) * len(idx)
            d = (probs - yb)[:, None] / len(yb)
            deltas = [d]
            for li in range(len(weights) - 2, -1, -1):
                d = (d @ weights[li + 1].T) * (pre[li] > 0)
                deltas.insert(0, d)
            grads = [h.T @ d for h, d in zip(post, deltas[1:])]
            grads += [d.sum(axis=0) for d in deltas]
            for p, v, g in zip(params, velocities, grads):
                v *= config.momentum
                g *= config.learning_rate
                v -= g
                p += v
            V *= config.momentum
            V[idx] -= config.learning_rate * deltas[0]
            S += V
        trace.append(epoch_loss / n)
    W0 += (S.T @ Z).T
    weights[0][live] = W0
    probs, _, _ = layers(Z @ W0 + biases[0], weights[1:], biases[1:])
    accuracy = float(((probs >= 0.5).astype(np.int64)
                      == y.astype(np.int64)).mean())
    return weights, biases, trace, accuracy


def reference_train(X, y, architecture, config):
    """The full-width training loop: every batch is standardized again and
    every momentum update allocates new arrays."""
    scaler = InputScaler.fit(X)
    model = init_model(
        architecture,
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,))),
        scaler,
    )
    shuffle = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(1,)))
    vel_w = [np.zeros_like(W) for W in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    trace = []
    for _ in range(config.epochs):
        order = shuffle.permutation(len(X))
        epoch_loss = 0.0
        for start in range(0, len(X), config.batch_size):
            idx = order[start : start + config.batch_size]
            Xb, yb = X[idx], y[idx]
            p = np.clip(predict_proba(model, Xb), 1e-12, 1.0 - 1e-12)
            epoch_loss += float(
                -(yb * np.log(p) + (1 - yb) * np.log(1 - p)).mean()) * len(idx)
            grads_w, grads_b = loss_gradients(model, Xb, yb)
            for i in range(len(model.weights)):
                vel_w[i] = config.momentum * vel_w[i] - config.learning_rate * grads_w[i]
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * grads_b[i]
                model.weights[i] += vel_w[i]
                model.biases[i] += vel_b[i]
        trace.append(epoch_loss / len(X))
    return model, trace


def assert_matches_reference(X, y, arch, config, dead_count):
    """Weights to 64 ulp of each layer's largest reference weight, the loss
    trace to 1e-12, and dead first-layer rows exactly +0.0."""
    model = train(X, y, arch, config)
    ref, ref_trace = reference_train(X, y, arch, config)
    for got, want in zip(model.weights + model.biases,
                         ref.weights + ref.biases):
        atol = 64 * np.finfo(float).eps * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    np.testing.assert_allclose(model.metadata["loss_trace"], ref_trace,
                               rtol=1e-12)
    dead = ~model.scaler.live_mask
    assert dead.sum() == dead_count
    assert np.all(model.weights[0][dead] == 0.0)
    assert not np.signbit(model.weights[0][dead]).any()


class TestCompactTraining:
    """`train` fits the first layer as W0_init + Z.T @ S on live coordinates
    only; the result must match the full-width primal loop up to rounding."""

    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_full_width_reference(self, hidden, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 12)) * rng.uniform(0.5, 4.0, size=12)
        X[:, [0, 5, 6, 11]] = [2.5, -1.0, 0.0, 7.0]
        y = (X[:, 1] + X[:, 3] > 0).astype(float)
        config = TrainConfig(learning_rate=0.05, epochs=25, batch_size=8,
                             seed=seed)
        assert_matches_reference(X, y, ModelArchitecture(12, hidden), config, 4)

    @pytest.mark.parametrize("hidden", [(), (8,), (6, 4)])
    def test_matches_reference_with_fewer_rows_than_inputs(self, hidden):
        # The product's regime: far fewer trials than live inputs.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(24, 300)) * rng.uniform(0.5, 4.0, size=300)
        dead = rng.choice(300, size=100, replace=False)
        X[:, dead] = rng.normal(size=100)
        y = (X[:, rng.choice(np.setdiff1d(np.arange(300), dead), 5)].sum(axis=1)
             > 0).astype(float)
        config = TrainConfig(learning_rate=0.01, epochs=40, batch_size=8,
                             seed=1)
        assert_matches_reference(X, y, ModelArchitecture(300, hidden), config,
                                 100)

    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
    def test_standardized_argument_changes_no_bit(self, hidden):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 12)) * rng.uniform(0.5, 4.0, size=12)
        X[:, [0, 5, 6, 11]] = [2.5, -1.0, 0.0, 7.0]
        y = (X[:, 1] + X[:, 3] > 0).astype(float)
        arch = ModelArchitecture(12, hidden)
        config = TrainConfig(learning_rate=0.05, epochs=10, batch_size=8,
                             seed=2)
        scaler, Z, K = shared = _standardize(X)
        live = scaler.live_mask
        assert live.sum() == 8
        want = (X[:, live] - scaler.mean[live]) * scaler.scale[live]
        assert Z.tobytes() == want.tobytes()
        assert K.tobytes() == (want @ want.T).tobytes()
        assert scaler.transform(X).tobytes() == (
            (X - scaler.mean) * scaler.scale).tobytes()

        plain = train(X, y, arch, config)
        # Twice on one triple, as a fold's cells share it: training must
        # not write to it.
        for _ in range(2):
            got = train(X, y, arch, config, standardized=shared)
            for a, b in zip(got.weights + got.biases,
                            plain.weights + plain.biases):
                assert a.tobytes() == b.tobytes()
            assert got.scaler.mean.tobytes() == plain.scaler.mean.tobytes()
            assert got.scaler.scale.tobytes() == plain.scaler.scale.tobytes()
            assert got.metadata == plain.metadata

    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_per_parameter_loop_bit_for_bit(self, hidden, shared):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 12)) * rng.uniform(0.5, 4.0, size=12)
        # Dead inputs in three runs: the first, two in the middle, the last.
        X[:, [0, 5, 6, 11]] = [2.5, -1.0, 0.0, 7.0]
        # Random labels keep the train accuracy away from 1.
        y = rng.integers(0, 2, size=30).astype(float)
        arch = ModelArchitecture(12, hidden)
        config = TrainConfig(learning_rate=0.05, epochs=12, batch_size=8,
                             seed=3)
        got = train(X, y, arch, config,
                    standardized=_standardize(X) if shared else None)
        weights, biases, trace, accuracy = per_parameter_train(X, y, arch,
                                                               config)
        for a, b in zip(got.weights + got.biases, weights + biases):
            assert a.tobytes() == b.tobytes()
        assert np.array(got.metadata["loss_trace"]).tobytes() == \
            np.array(trace).tobytes()
        assert got.metadata["train_accuracy"] == accuracy
        assert 0.0 < accuracy < 1.0

    @pytest.mark.parametrize("epochs", [1, 3, 10])
    def test_train_accuracy_matches_evaluate_accuracy(self, epochs):
        rng = np.random.default_rng(epochs)
        X = rng.normal(size=(40, 10))
        X[:, [2, 7]] = [3.0, -0.5]
        # Noisy labels keep the accuracy away from 0 and 1.
        y = ((X[:, 0] + rng.normal(size=40)) > 0).astype(float)
        model = train(X, y, ModelArchitecture(10, (6,)),
                      TrainConfig(learning_rate=0.05, epochs=epochs,
                                  batch_size=8, seed=epochs))
        assert model.metadata["train_accuracy"] == evaluate_accuracy(model, X, y)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"momentum": 1.0},
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_invalid_train_config(self, kwargs):
        with pytest.raises(DataValidationError):
            TrainConfig(**kwargs)

    def test_invalid_architecture(self):
        with pytest.raises(DataValidationError):
            ModelArchitecture(0, (4,))
        with pytest.raises(DataValidationError):
            ModelArchitecture(4, (0,))

    def test_parameter_count(self):
        arch = ModelArchitecture(10, (4, 3))
        assert arch.parameter_count == (10 + 1) * 4 + (4 + 1) * 3 + (3 + 1) * 1


class TestGridSearch:
    def test_singleton_grid_selected(self):
        X, y = separable_toy()
        result = grid_search(X, y, TrainConfig(epochs=5, batch_size=8),
                             [[4]], [1e-3], folds=3)
        assert result.best_index == 0
        assert len(result.cells) == 1

    def test_identical_cells_tie_break_to_first(self):
        X, y = separable_toy()
        result = grid_search(X, y, TrainConfig(epochs=5, batch_size=8),
                             [[4], [4]], [1e-3], folds=3)
        assert result.best_index == 0

    def test_tie_break_prefers_fewer_parameters(self):
        X, y = separable_toy()
        result = grid_search(X, y, TrainConfig(epochs=60, batch_size=8),
                             [[8], [4]], [1e-3], folds=3)
        accs = [c.mean_val_accuracy for c in result.cells]
        if accs[0] == accs[1]:
            assert result.best_index == 1

    def test_tie_break_prefers_lower_learning_rate(self):
        X, y = separable_toy()
        result = grid_search(X, y, TrainConfig(epochs=60, batch_size=8),
                             [[4]], [1e-2, 1e-3], folds=3)
        accs = [c.mean_val_accuracy for c in result.cells]
        if accs[0] == accs[1]:
            assert result.cells[result.best_index].config.learning_rate == 1e-3

    def test_single_class_fold_notes_but_does_not_warn(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(9, 2))
        y = np.zeros(9)
        y[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = grid_search(X, y, TrainConfig(epochs=2, batch_size=3),
                                 [[2]], [1e-3], folds=3)
        assert any("validation split contains a single class" in note
                   for note in result.warnings)
        assert np.isfinite(result.best.mean_val_accuracy)

    def test_empty_grid_rejected(self):
        for hidden, rates in (([], [1e-3]), ([[4]], [])):
            with pytest.raises(DataValidationError, match="grid must not be empty"):
                grid_search(np.zeros((4, 2)), np.zeros(4), TrainConfig(),
                            hidden, rates, folds=2)

    def test_default_grid_shape(self):
        X, y = separable_toy()
        config = TrainConfig(momentum=0.5, epochs=1, batch_size=8, seed=3)
        result = grid_search(X, y, config)
        assert [(c.architecture, c.config) for c in result.cells] == [
            (ModelArchitecture(2, hidden), replace(config, learning_rate=lr))
            for hidden in DEFAULT_GRID_HIDDEN
            for lr in DEFAULT_GRID_LEARNING_RATES]
        assert len(result.cells) == 8
        assert all(len(c.fold_accuracies) == 3 for c in result.cells)

    def test_deterministic(self):
        X, y = separable_toy()
        config = TrainConfig(epochs=3, batch_size=8, seed=5)
        r1 = grid_search(X, y, config, [[4]], [1e-3], folds=3)
        r2 = grid_search(X, y, config, [[4]], [1e-3], folds=3)
        assert r1.cells[0].fold_accuracies == r2.cells[0].fold_accuracies

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_cells_equal_a_per_cell_reference_loop(self, data):
        folds = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(folds + 1, 20).filter(lambda n: n % folds))
        hidden = data.draw(st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=2),
            min_size=1, max_size=3))
        rates = data.draw(st.lists(st.sampled_from([1e-3, 1e-2, 0.1]),
                                   min_size=1, max_size=2))
        seed = data.draw(st.integers(0, 2**32 - 1))
        config = TrainConfig(epochs=2, batch_size=data.draw(st.integers(1, 8)),
                             seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, data.draw(st.integers(1, 3))))
        y = rng.integers(0, 2, size=n).astype(np.float64)

        result = grid_search(X, y, config, hidden, rates, folds)

        # Folds from the seed's stream 2, then every (cell, fold) fit apart.
        order = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(2,))).permutation(n)
        expected = []
        for widths in hidden:
            arch = ModelArchitecture(X.shape[1], tuple(widths))
            for lr in rates:
                cell_config = replace(config, learning_rate=lr)
                accs = []
                for val_idx in np.array_split(order, folds):
                    mask = np.ones(n, dtype=bool)
                    mask[val_idx] = False
                    model = train(X[mask], y[mask], arch, cell_config)
                    accs.append(evaluate_accuracy(model, X[val_idx], y[val_idx]))
                expected.append((arch, cell_config, float(np.mean(accs)),
                                 tuple(accs)))
        assert [(c.architecture, c.config, c.mean_val_accuracy,
                 c.fold_accuracies) for c in result.cells] == expected

    def test_each_fold_is_standardized_once(self, monkeypatch):
        calls = {"_standardize": 0, "train": 0}

        def counted(name):
            fn = getattr(network, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(network, name, counted(name))
        X, y = separable_toy()
        result = grid_search(X, y, TrainConfig(epochs=2, batch_size=8),
                             [[2], [3], [4]], [1e-3], folds=3)
        assert len(result.cells) == 3
        assert calls == {"_standardize": 3, "train": 9}

    def test_numeric_failure_names_cell_and_fold(self):
        X, y = separable_toy()
        with np.errstate(all="ignore"), pytest.raises(
                NumericFailure,
                match=r"hidden \[4\], lr 1e\+300\), fold 0: non-finite loss") as exc:
            grid_search(X, y, TrainConfig(epochs=2, batch_size=8), [[4]],
                        [1e-3, 1e300], folds=3)
        assert str(exc.value).startswith("grid cell 1 ")
        assert isinstance(exc.value.__cause__, NumericFailure)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        X, y = separable_toy()
        model = train(X, y, ModelArchitecture(2, (4, 3)),
                      TrainConfig(epochs=10, batch_size=8, seed=3))
        model.metadata["test_accuracy"] = 0.9375
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.architecture == model.architecture
        for a, b in zip(loaded.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, model.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.scaler.mean, model.scaler.mean)
        assert np.array_equal(loaded.scaler.scale, model.scaler.scale)
        assert loaded.metadata["test_accuracy"] == 0.9375

    def test_bytes_match_streaming_encoder(self, tmp_path):
        X, y = separable_toy()
        model = train(X, y, ModelArchitecture(2, (4, 3)),
                      TrainConfig(epochs=10, batch_size=8, seed=3))
        model.metadata["extra"] = {"name": "h\u00fcft", "values": [
            0.1, -0.0, 1e-300, 2**60, float("nan"), float("inf")]}
        path = tmp_path / "model.json"
        save_model(model, path)
        streamed = io.StringIO()
        json.dump(json.loads(path.read_text(encoding="utf-8")), streamed)
        streamed.write("\n")
        assert path.read_bytes() == streamed.getvalue().encode("utf-8")

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(DataValidationError):
            load_model(path)

    def test_accuracy_helper(self):
        model = make_model(1, (), weights=[np.array([[5.0]])])
        X = np.array([[2.0], [-2.0]])
        assert evaluate_accuracy(model, X, np.array([1.0, 0.0])) == 1.0
        assert evaluate_accuracy(model, X, np.array([0.0, 1.0])) == 0.0
