import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from emprops import dataset as ds
from emprops import descriptors, evaluation, forest as rf, modelio, mtnn, pipeline
from emprops.errors import (
    CorruptFile,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteLoss,
    VersionMismatch,
)
from emprops.molgraph import parse_smiles
from emprops.rng import SplitMix64

from conftest import CORPUS
from test_rng import scalar_shuffle


def finite_difference(net, features, selector, targets, h=1e-6):
    """Central finite differences on the full training loss, one entry of
    net.params at a time, so the result is laid out like the gradient."""

    def loss():
        out = mtnn.forward(net, features, selector)
        value = float(np.mean((out - targets) ** 2))
        for w in net.weights:
            value += net.config.l2_penalty * float(np.sum(w * w))
        return value

    grad = np.zeros_like(net.params)
    for i in range(net.params.size):
        original = net.params[i]
        net.params[i] = original + h
        upper = loss()
        net.params[i] = original - h
        lower = loss()
        net.params[i] = original
        grad[i] = (upper - lower) / (2 * h)
    return grad


def max_relative_error(analytic, numeric):
    """Relative error of the full gradient vector.

    Norm-based rather than per-component: central differences carry an
    absolute noise floor of about eps * |loss| / h, which would swamp the
    comparison on individual near-zero entries.
    """
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / scale


def random_case(seed, selector_dim, hidden_sizes, selector_layer_index, l2):
    """Deterministic random net and batch, resampled until every hidden
    pre-activation clears the relu kink by a margin safe for h=1e-6."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        config = mtnn.MTNetConfig(
            input_dim=4,
            selector_dim=selector_dim,
            hidden_sizes=hidden_sizes,
            selector_layer_index=selector_layer_index,
            l2_penalty=l2,
            seed=int(rng.integers(0, 2**31)),
        )
        net = mtnn.init_network(config)
        batch = int(rng.integers(2, 6))
        features = rng.normal(size=(batch, 4))
        selector = None
        if selector_dim:
            selector = np.eye(selector_dim)[rng.integers(0, selector_dim, batch)]
        targets = rng.normal(size=batch)
        if _kink_clearance(net, features, selector) > 1e-4:
            return net, features, selector, targets
    raise AssertionError("could not find a kink-free case")


def _kink_clearance(net, features, selector):
    clearance = math.inf
    activation = features
    for i in range(len(net.config.hidden_sizes)):
        layer_in = activation
        if net.config.selector_dim and i + 1 == net.config.selector_layer_index:
            layer_in = np.concatenate([activation, selector], axis=1)
        pre = layer_in @ net.weights[i].T + net.biases[i]
        clearance = min(clearance, float(np.min(np.abs(pre))))
        activation = np.maximum(pre, 0.0)
    return clearance


# ---------------------------------------------------------------------------
# Oracles: the per-weight init, per-layer gradients and per-layer Adam
# training that the flat parameter vector replaced. Nets here are plain
# namespaces holding one weight and one bias array per layer.
# ---------------------------------------------------------------------------

def _next_float(rng: SplitMix64) -> float:
    """Uniform in [0, 1) with the full 53-bit mantissa."""
    return (rng.next_u64() >> 11) * 2.0 ** -53


def scalar_init_network(config):
    rng = SplitMix64(config.seed)
    weights, biases = [], []
    for fan_out, fan_in in mtnn.layer_shapes(config):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = np.empty((fan_out, fan_in), dtype=np.float64)
        flat = w.reshape(-1)
        for i in range(flat.size):
            flat[i] = (2.0 * _next_float(rng) - 1.0) * limit
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return SimpleNamespace(config=config, weights=weights, biases=biases)


def per_layer_inputs(net, features, selector):
    """The 2-D forward pass, keeping per-layer inputs."""
    config = net.config
    inputs = []
    activation = features
    n_hidden = len(config.hidden_sizes)
    for i in range(n_hidden):
        layer_in = activation
        if config.selector_dim > 0 and i + 1 == config.selector_layer_index:
            layer_in = np.concatenate([activation, selector], axis=1)
        inputs.append(layer_in)
        activation = np.maximum(layer_in @ net.weights[i].T + net.biases[i], 0.0)
    inputs.append(activation)
    output = activation @ net.weights[n_hidden].T + net.biases[n_hidden]
    return inputs, output[:, 0]


def per_layer_mse(net, features, selector, targets):
    residual = per_layer_inputs(net, features, selector)[1] - targets
    return float(residual @ residual) / len(targets)


def per_layer_gradients(net, features, selector, targets):
    config = net.config
    n = features.shape[0]
    inputs, out = per_layer_inputs(net, features, selector)
    residual = out - targets
    loss = float(residual @ residual) / n
    d_weights = [np.zeros_like(w) for w in net.weights]
    d_biases = [np.zeros_like(b) for b in net.biases]
    delta = (2.0 / n) * residual[:, None]
    n_hidden = len(config.hidden_sizes)
    for layer in range(n_hidden, -1, -1):
        d_weights[layer] = delta.T @ inputs[layer]
        d_biases[layer] = delta.sum(axis=0)
        if layer == 0:
            break
        back = (delta @ net.weights[layer]) * (inputs[layer] > 0.0)
        if config.selector_dim > 0 and layer == config.selector_layer_index - 1:
            back = back[:, : back.shape[1] - config.selector_dim]
        delta = back
    if config.l2_penalty > 0.0:
        for layer, w in enumerate(net.weights):
            loss += config.l2_penalty * float(np.sum(w * w))
            d_weights[layer] += 2.0 * config.l2_penalty * w
    return d_weights, d_biases, loss


def per_layer_train(net, features, selector, targets, config, val=None):
    """Returns (net, history, best_epoch) like mtnn.train, or raises its
    NonFiniteLoss when the net it returns has a non-finite training loss."""

    def snapshot():
        return SimpleNamespace(config=net.config, weights=[w.copy() for w in net.weights],
                               biases=[b.copy() for b in net.biases])

    rng = SplitMix64(config.seed)
    n = len(targets)
    m_w = [np.zeros_like(w) for w in net.weights]
    v_w = [np.zeros_like(w) for w in net.weights]
    m_b = [np.zeros_like(b) for b in net.biases]
    v_b = [np.zeros_like(b) for b in net.biases]
    step = 0
    best, best_val, best_epoch, stale = snapshot(), math.inf, 0, 0
    history = []
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n))
        scalar_shuffle(rng, order)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            d_w, d_b, _ = per_layer_gradients(
                net, features[batch], None if selector is None else selector[batch],
                targets[batch])
            step += 1
            correction1 = 1.0 - mtnn.ADAM_BETA1 ** step
            correction2 = 1.0 - mtnn.ADAM_BETA2 ** step
            for i in range(len(net.weights)):
                m_w[i] = mtnn.ADAM_BETA1 * m_w[i] + (1 - mtnn.ADAM_BETA1) * d_w[i]
                v_w[i] = mtnn.ADAM_BETA2 * v_w[i] + (1 - mtnn.ADAM_BETA2) * d_w[i] ** 2
                net.weights[i] -= config.learning_rate * (m_w[i] / correction1) / (
                    np.sqrt(v_w[i] / correction2) + mtnn.ADAM_EPSILON
                )
                m_b[i] = mtnn.ADAM_BETA1 * m_b[i] + (1 - mtnn.ADAM_BETA1) * d_b[i]
                v_b[i] = mtnn.ADAM_BETA2 * v_b[i] + (1 - mtnn.ADAM_BETA2) * d_b[i] ** 2
                net.biases[i] -= config.learning_rate * (m_b[i] / correction1) / (
                    np.sqrt(v_b[i] / correction2) + mtnn.ADAM_EPSILON
                )
        entry = {"epoch": epoch}
        history.append(entry)
        if val is None:
            continue
        entry["val_mse"] = per_layer_mse(net, *val)
        if entry["val_mse"] < best_val:
            best, best_val, best_epoch, stale = snapshot(), entry["val_mse"], epoch, 0
        else:
            stale += 1
            if stale > config.patience:
                break
    if val is None:
        best, best_epoch = net, config.max_epochs
    if not math.isfinite(per_layer_mse(best, features, selector, targets)):
        raise NonFiniteLoss(f"non-finite training loss at epoch {best_epoch}")
    return best, history, best_epoch


def flat_params(net):
    return np.concatenate([a.reshape(-1) for pair in zip(net.weights, net.biases)
                           for a in pair])


ORACLE_CONFIGS = [
    # (selector_dim, hidden_sizes, selector_layer_index, l2_penalty)
    (0, (8,), 0, 0.0),
    (3, (8,), 1, 1e-3),
    (3, (6, 4), 1, 0.0),
    (3, (6, 4), 2, 1e-4),
    (0, (5, 4, 3), 0, 1e-3),
]


class TestFlatEqualsOracles:
    @pytest.mark.parametrize("sel_dim,hidden,sel_idx,l2", ORACLE_CONFIGS)
    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    def test_init(self, sel_dim, hidden, sel_idx, l2, seed):
        config = mtnn.MTNetConfig(5, sel_dim, hidden, sel_idx, l2_penalty=l2, seed=seed)
        net = mtnn.init_network(config)
        assert net.params.tobytes() == flat_params(scalar_init_network(config)).tobytes()

    def test_views_share_the_vector(self):
        net = mtnn.init_network(mtnn.MTNetConfig(5, 3, (6, 4), 2, seed=1))
        assert net.params.size == mtnn.parameter_count(net.config) == 6 * 6 + 4 * 10 + 5
        for array in net.weights + net.biases:
            assert np.shares_memory(array, net.params)
        net.biases[-1][0] = 7.0
        assert net.params[-1] == 7.0

    @pytest.mark.parametrize("sel_dim,hidden,sel_idx,l2", ORACLE_CONFIGS)
    @pytest.mark.parametrize("batch_size,validate", [(7, True), (16, False), (5, True),
                                                     (64, False)])
    def test_train(self, sel_dim, hidden, sel_idx, l2, batch_size, validate):
        rng = np.random.default_rng(batch_size + len(hidden))
        n, n_val = 37, 11
        x, x_val = rng.normal(size=(n, 5)), rng.normal(size=(n_val, 5))
        y, y_val = rng.normal(size=n), rng.normal(size=n_val)
        s = s_val = None
        if sel_dim:
            s = np.eye(sel_dim)[rng.integers(0, sel_dim, n)]
            s_val = np.eye(sel_dim)[rng.integers(0, sel_dim, n_val)]
        val = (x_val, s_val, y_val) if validate else None
        net_config = mtnn.MTNetConfig(5, sel_dim, hidden, sel_idx, l2_penalty=l2, seed=3)
        train_config = mtnn.TrainConfig(learning_rate=1e-2, batch_size=batch_size,
                                        max_epochs=40, patience=4, seed=9)

        result = mtnn.train(mtnn.init_network(net_config), x, s, y, train_config, val=val)
        oracle, history, best_epoch = per_layer_train(scalar_init_network(net_config),
                                                      x, s, y, train_config, val=val)
        assert result.history == history
        assert result.best_epoch == best_epoch
        assert result.net.params.tobytes() == flat_params(oracle).tobytes()
        if validate:
            # early stopping returned an earlier epoch than the last one
            assert best_epoch < len(history)


class TestInit:
    def test_deterministic(self):
        config = mtnn.MTNetConfig(6, 3, (8, 4), 2, seed=5)
        a = mtnn.init_network(config)
        b = mtnn.init_network(config)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_selector_widens_fan_in(self):
        config = mtnn.MTNetConfig(6, 3, (8, 4), 2, seed=0)
        net = mtnn.init_network(config)
        assert net.weights[0].shape == (8, 6)
        assert net.weights[1].shape == (4, 8 + 3)
        assert net.weights[2].shape == (1, 4)

    def test_single_task_unaugmented(self):
        config = mtnn.MTNetConfig(6, 0, (8, 4), 0, seed=0)
        net = mtnn.init_network(config)
        assert net.weights[1].shape == (4, 8)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            mtnn.MTNetConfig(0, 0, (4,), 0)
        with pytest.raises(InvalidConfig):
            mtnn.MTNetConfig(4, 2, (4,), 2)  # selector index out of range
        with pytest.raises(InvalidConfig):
            mtnn.MTNetConfig(4, 0, (), 0)


class TestForward:
    def test_hand_traced_relu(self):
        config = mtnn.MTNetConfig(1, 0, (1,), 0, seed=0)
        net = mtnn.init_network(config)
        net.weights[0][:] = 1.0
        net.weights[1][:] = 1.0
        assert mtnn.forward(net, np.array([[2.0]]))[0] == 2.0
        assert mtnn.forward(net, np.array([[-5.0]]))[0] == 0.0

    def test_selector_changes_output(self):
        config = mtnn.MTNetConfig(2, 3, (4,), 1, seed=0)
        net = mtnn.init_network(config)
        # selector column k gets weight k+1 into every unit
        for k in range(3):
            net.weights[0][:, 2 + k] = float(k + 1)
        net.biases[0][:] = 1.0  # keep units active
        x = np.zeros((1, 2))
        outputs = [
            mtnn.forward(net, x, np.eye(3)[k][None, :])[0] for k in range(3)
        ]
        assert len(set(outputs)) == 3

    def test_zeroed_selector_columns_make_output_invariant(self):
        config = mtnn.MTNetConfig(3, 4, (5, 3), 2, seed=9)
        net = mtnn.init_network(config)
        net.weights[1][:, 5:] = 0.0
        x = np.random.default_rng(1).normal(size=(4, 3))
        outputs = [mtnn.forward(net, x, np.tile(np.eye(4)[k], (4, 1))) for k in range(4)]
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)

    @pytest.mark.parametrize("hidden,sel_idx", [((16,), 1), ((64, 32), 1), ((64, 32), 2),
                                                ((128, 64), 2), ((32, 32, 32), 3)])
    @pytest.mark.parametrize("n", [1, 3, 37])
    @pytest.mark.parametrize("sel_dim", [0, 11])
    def test_groups_equal_separate_calls(self, hidden, sel_idx, n, sel_dim):
        config = mtnn.MTNetConfig(40, sel_dim, hidden, sel_idx, seed=n)
        net = mtnn.init_network(config)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(4, n, 40)) * np.array([1e-3, 1.0, 1e3, 1.0])[:, None, None]
        s = np.eye(sel_dim)[rng.integers(0, sel_dim, (4, n))] if sel_dim else None
        out = mtnn.forward(net, x, s)
        assert out.shape == (4, n)
        for g in range(4):
            alone = mtnn.forward(net, x[g], s[g] if sel_dim else None)
            assert out[g].tobytes() == alone.tobytes()

    def test_dimension_mismatch(self):
        config = mtnn.MTNetConfig(3, 2, (4,), 1, seed=0)
        net = mtnn.init_network(config)
        with pytest.raises(DimensionMismatch):
            mtnn.forward(net, np.zeros((1, 5)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            mtnn.forward(net, np.zeros((1, 3)))  # missing selector
        with pytest.raises(DimensionMismatch, match="batch sizes"):
            mtnn.forward(net, np.zeros((2, 1, 3)), np.zeros((1, 2, 2)))  # groups differ


class TestGradients:
    def test_zero_residual_zero_gradient(self):
        config = mtnn.MTNetConfig(2, 0, (3,), 0, l2_penalty=0.0, seed=2)
        net = mtnn.init_network(config)
        x = np.array([[0.5, -0.2]])
        y = mtnn.forward(net, x)
        grad, loss = mtnn.gradients(net, x, None, y)
        assert loss == 0.0
        assert grad.shape == net.params.shape
        assert np.all(grad == 0.0)

    def test_l2_term_alone(self):
        config = mtnn.MTNetConfig(2, 0, (3,), 0, l2_penalty=0.5, seed=2)
        net = mtnn.init_network(config)
        x = np.array([[0.5, -0.2]])
        y = mtnn.forward(net, x)
        grad, _ = mtnn.gradients(net, x, None, y)
        d_w, d_b = mtnn.layer_views(config, grad)
        for g, w in zip(d_w, net.weights):
            assert np.allclose(g, 2 * 0.5 * w, atol=1e-12)
        assert all(np.all(g == 0.0) for g in d_b)

    def test_matches_finite_differences(self):
        cases = [
            (0, 0, (4,), 0, 0.0),
            (1, 3, (4,), 1, 0.0),
            (2, 3, (5, 3), 1, 1e-3),
            (3, 3, (5, 3), 2, 0.0),
            (4, 2, (4, 4, 3), 3, 1e-4),
        ]
        for seed, sel_dim, hidden, sel_idx, l2 in cases:
            net, x, s, y = random_case(seed, sel_dim, hidden, sel_idx, l2)
            grad, _ = mtnn.gradients(net, x, s, y)
            assert max_relative_error(grad, finite_difference(net, x, s, y)) < 1e-5

    def test_batch_order_invariance(self):
        net, x, s, y = random_case(7, 3, (5, 3), 2, 0.0)
        grad, _ = mtnn.gradients(net, x, s, y)
        perm = np.array([2, 0, 1, 3])[: len(y)]
        grad2, _ = mtnn.gradients(net, x[perm], s[perm] if s is not None else None, y[perm])
        assert np.allclose(grad, grad2, rtol=1e-12, atol=1e-14)


class TestTrain:
    def toy(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        return x, y

    def test_overfits_linear_toy(self):
        x, y = self.toy()
        config = mtnn.MTNetConfig(1, 0, (16,), 0, seed=1)
        train_config = mtnn.TrainConfig(learning_rate=1e-2, batch_size=4,
                                        max_epochs=2000, patience=2000, seed=3)
        result = mtnn.train(mtnn.init_network(config), x, None, y, train_config)
        final = math.sqrt(float(np.mean((mtnn.forward(result.net, x) - y) ** 2)))
        assert final < 1e-2
        assert len(result.history) <= 2000

    def test_identical_seeds_identical_histories(self):
        x, y = self.toy()
        config = mtnn.MTNetConfig(1, 0, (8,), 0, seed=4)
        train_config = mtnn.TrainConfig(learning_rate=1e-2, batch_size=2,
                                        max_epochs=50, patience=50, seed=9)
        r1 = mtnn.train(mtnn.init_network(config), x, None, y, train_config)
        r2 = mtnn.train(mtnn.init_network(config), x, None, y, train_config)
        assert r1.history == r2.history
        for w1, w2 in zip(r1.net.weights, r2.net.weights):
            assert np.array_equal(w1, w2)

    def test_patience_zero_stops_at_first_non_improvement(self):
        x, y = self.toy()
        config = mtnn.MTNetConfig(1, 0, (4,), 0, seed=2)
        train_config = mtnn.TrainConfig(learning_rate=1e-2, batch_size=4,
                                        max_epochs=500, patience=0, seed=5)
        result = mtnn.train(mtnn.init_network(config), x, None, y, train_config,
                            val=(x, None, y))
        val_curve = [entry["val_mse"] for entry in result.history]
        # training stops right after the first epoch that fails to improve
        for earlier, later in zip(val_curve, val_curve[1:-1]):
            assert later < earlier
        if len(val_curve) >= 2:
            assert val_curve[-1] >= val_curve[-2]
        assert result.best_epoch == len(val_curve) - 1

    def test_divergence_raises(self):
        x, y = self.toy()
        config = mtnn.MTNetConfig(1, 0, (8,), 0, seed=3)
        train_config = mtnn.TrainConfig(learning_rate=1e150, batch_size=4,
                                        max_epochs=50, patience=50, seed=1)
        with pytest.raises(NonFiniteLoss):
            mtnn.train(mtnn.init_network(config), x * 1e3, None, y * 1e3, train_config)


# ---------------------------------------------------------------------------
# train_many: each network of a stack against the per-layer oracle
# ---------------------------------------------------------------------------

# row counts per stack; at batch size 8, rows 1, 9, 17, 25, 33 and 41 end
# an epoch on a one-row batch
STACKS = {
    "one": (37,),
    "two-equal": (37, 37),
    "five-distinct": (25, 41, 9, 17, 1),
    "eleven": (17, 40, 40, 9, 33, 25, 40, 8, 12, 3, 17),
}
STACK_CONFIGS = [
    # (selector_dim, hidden_sizes, selector_layer_index, l2_penalty)
    (0, (8,), 0, 1e-3),
    (3, (8,), 1, 0.0),
    (3, (8, 6), 2, 1e-4),
]


def stack_rows(seed, n, sel_dim, validate):
    """(features, selector, targets, val) of one network of a stack."""
    rng = np.random.default_rng(seed)

    def rows(count):
        selector = np.eye(sel_dim)[rng.integers(0, sel_dim, count)] if sel_dim else None
        return rng.normal(size=(count, 5)), selector, rng.normal(size=count)

    x, s, y = rows(n)
    return x, s, y, rows(5 + seed % 4) if validate else None


class TestTrainMany:
    @pytest.mark.parametrize("counts", STACKS.values(), ids=STACKS.keys())
    @pytest.mark.parametrize("sel_dim,hidden,sel_idx,l2", STACK_CONFIGS)
    @pytest.mark.parametrize("validate", [False, True])
    def test_each_network_equals_the_oracle(self, counts, sel_dim, hidden, sel_idx, l2,
                                            validate):
        jobs, expected = [], []
        for i, n in enumerate(counts):
            x, s, y, val = stack_rows(100 + i, n, sel_dim, validate)
            net_config = mtnn.MTNetConfig(5, sel_dim, hidden, sel_idx, l2_penalty=l2, seed=i)
            train_config = mtnn.TrainConfig(learning_rate=3e-2, batch_size=8, max_epochs=25,
                                            patience=2, seed=50 + i)
            jobs.append(mtnn.TrainJob(mtnn.init_network(net_config), x, s, y, train_config, val))
            expected.append(per_layer_train(scalar_init_network(net_config), x, s, y,
                                            train_config, val=val))

        results = mtnn.train_many(jobs)
        for result, (oracle, history, best_epoch) in zip(results, expected):
            assert result.history == history
            assert result.best_epoch == best_epoch
            assert result.net.params.tobytes() == flat_params(oracle).tobytes()
        if validate and len(counts) == 11:
            # in stack order (most rows first), some network stopped before
            # a network on each side of it did, leaving a hole in the runs
            epochs = [len(results[i].history)
                      for i in sorted(range(len(counts)), key=lambda i: -counts[i])]
            assert any(epochs[g] < min(max(epochs[:g]), max(epochs[g + 1:]))
                       for g in range(1, len(epochs) - 1))

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_divergence_stops_only_its_own_network(self):
        """Networks whose rows hold a 1e300 feature: their first-layer weights on
        it start negative, so each diverges once one of them turns positive."""
        # (rows, seed, where the 1e300 row sits, the error it stops with)
        cases = [
            (9, 62, "train", "non-finite loss at epoch 5"),
            (40, 224, None, None),
            (25, 186, "train", "non-finite loss at epoch 7"),
            (40, 218, "train", "non-finite loss at epoch 22"),
            (17, 244, "train", "non-finite loss at epoch 7"),
            (40, 252, "val", "non-finite validation loss at epoch 11"),
            (17, 186, None, None),
            (9, 224, None, None),
        ]

        def job(n, seed, where):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(n, 3))
            y = x[:, 0] * 3 + rng.normal(size=n)
            x_val, y_val = rng.normal(size=(6, 3)), rng.normal(size=6)
            if where == "train":
                x[0] = (1e300, 0.0, 0.0)
            if where == "val":
                x_val[0] = (1e300, 0.0, 0.0)
            net = mtnn.init_network(mtnn.MTNetConfig(3, 0, (4,), 0, seed=seed))
            if where:
                assert (net.weights[0][:, 0] < 0).all()
            config = mtnn.TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=30,
                                      patience=30, seed=seed)
            return mtnn.TrainJob(net, x, None, y, config, (x_val, None, y_val))

        jobs = [job(n, seed, where) for n, seed, where, _ in cases]
        results = mtnn.train_many(jobs)
        # the 9-row network sits last in the stack and stops first
        assert [str(r) if isinstance(r, NonFiniteLoss) else None for r in results] == \
            [message for *_, message in cases]
        for (n, seed, where, message), stacked, result in zip(cases, jobs, results):
            solo = job(n, seed, where)
            if message:
                with pytest.raises(NonFiniteLoss, match=f"^{message}$"):
                    mtnn.train(solo.net, solo.features, None, solo.targets, solo.config,
                               val=solo.val)
                # both stopped before the update of the step that diverged
                assert stacked.net.params.tobytes() == solo.net.params.tobytes()
                assert np.isfinite(stacked.net.params).all()
                continue
            oracle, history, best_epoch = per_layer_train(
                scalar_init_network(solo.net.config), solo.features, None, solo.targets,
                solo.config, val=solo.val)
            assert result.history == history
            assert result.best_epoch == best_epoch
            assert result.net.params.tobytes() == flat_params(oracle).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_divergence_in_the_last_epoch_is_caught_once_training_ends(self):
        """Every batch loss is finite, but the last epoch's updates leave a
        1e300 training row with a non-finite loss: the network returns that
        error instead of its parameters, or its earlier finite best
        snapshot when it validates."""
        # (rows, seed, where the 1e300 row sits, validates, the error it ends with)
        cases = [
            (9, 62, "train", False, "non-finite training loss at epoch 4"),
            (40, 224, None, True, None),
            (9, 62, "train", True, "non-finite training loss at epoch 4"),  # best epoch 4
            (25, 62, "train", True, None),  # best epoch 2
            (17, 186, None, False, None),
        ]

        def job(n, seed, where, validates):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(n, 3))
            y = x[:, 0] * 3 + rng.normal(size=n)
            x_val = rng.normal(size=(6, 3))
            y_val = x_val[:, 0] * 3 + rng.normal(size=6)
            if where == "train":
                x[0] = (1e300, 0.0, 0.0)
            net = mtnn.init_network(mtnn.MTNetConfig(3, 0, (4,), 0, seed=seed))
            config = mtnn.TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=4,
                                      patience=4, seed=seed)
            return mtnn.TrainJob(net, x, None, y, config, (x_val, None, y_val) if validates
                                 else None)

        results = mtnn.train_many([job(*case[:4]) for case in cases])
        assert [str(r) if isinstance(r, NonFiniteLoss) else None for r in results] == \
            [message for *_, message in cases]
        for (n, seed, where, validates, message), result in zip(cases, results):
            solo = job(n, seed, where, validates)
            args = (scalar_init_network(solo.net.config), solo.features, None, solo.targets,
                    solo.config)
            if message:
                with pytest.raises(NonFiniteLoss, match=f"^{message}$"):
                    per_layer_train(*args, val=solo.val)
                continue
            oracle, history, best_epoch = per_layer_train(*args, val=solo.val)
            assert result.history == history
            assert result.best_epoch == best_epoch
            assert result.net.params.tobytes() == flat_params(oracle).tobytes()
        assert results[3].best_epoch == 2

    def test_groups_interleaved_configs_into_stacks(self):
        """Jobs of two architectures and two batch sizes, interleaved: each
        result, in job order, equals its group's trained alone and the
        per-layer oracle."""
        groups = [((8,), 8), ((6, 4), 8), ((8,), 5), ((6, 4), 5)]
        cases = [(i, groups[i % len(groups)], n)
                 for i, n in enumerate((17, 9, 25, 12, 9, 30, 17, 4, 11))]

        def job(i, hidden, batch_size, n):
            x, s, y, val = stack_rows(200 + i, n, 0, True)
            net_config = mtnn.MTNetConfig(5, 0, hidden, 0, l2_penalty=1e-4, seed=i)
            train_config = mtnn.TrainConfig(learning_rate=3e-2, batch_size=batch_size,
                                            max_epochs=12, patience=2, seed=70 + i)
            return mtnn.TrainJob(mtnn.init_network(net_config), x, s, y, train_config, val)

        results = mtnn.train_many([job(i, *group, n) for i, group, n in cases])
        for group in groups:
            members = [(i, n) for i, g, n in cases if g == group]
            alone = mtnn.train_many([job(i, *group, n) for i, n in members])
            for (i, n), solo in zip(members, alone):
                result = results[i]
                assert result.net.params.tobytes() == solo.net.params.tobytes()
                assert (result.history, result.best_epoch) == (solo.history, solo.best_epoch)
                oracle_job = job(i, *group, n)
                oracle, history, best_epoch = per_layer_train(
                    scalar_init_network(oracle_job.net.config), oracle_job.features, None,
                    oracle_job.targets, oracle_job.config, val=oracle_job.val)
                assert (result.history, result.best_epoch) == (history, best_epoch)
                assert result.net.params.tobytes() == flat_params(oracle).tobytes()


def linear_design(n_materials=24, n_features=3, n_channels=2, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_materials, n_features))
    weights = rng.normal(size=(n_channels, n_features))
    rows = np.repeat(np.arange(n_materials), n_channels)
    channel_idx = np.tile(np.arange(n_channels), n_materials)
    targets = np.einsum("ij,ij->i", weights[channel_idx], features[rows])
    registry = ds.PropertyRegistry(
        channels=tuple(
            ds.PropertyChannel("det_velocity" if c == 0 else "det_pressure", "calc")
            for c in range(n_channels)
        )
    )
    return ds.DesignMatrix(
        features=features[rows],
        channel_idx=channel_idx,
        targets=targets,
        material_ids=[f"M{i:03d}" for i in rows],
        registry=registry,
    )


class TestGridSearch:
    def test_single_cell(self):
        design = linear_design()
        grid = evaluation.GridSpec(hidden_sizes=((8,),), selector_layer_index=("last",),
                                   learning_rate=(1e-2,), batch_size=(16,), l2_penalty=(0.0,))
        base = mtnn.TrainConfig(max_epochs=40, patience=10)
        result = mtnn.grid_search(grid, design, base, inner_k=3, seed=2)
        assert result.best_cell["hidden_sizes"] == (8,)
        assert len(result.table) == 1

    def test_crippling_l2_loses(self):
        design = linear_design()
        grid = evaluation.GridSpec(hidden_sizes=((8,),), selector_layer_index=("last",),
                                   learning_rate=(1e-2,), batch_size=(16,),
                                   l2_penalty=(0.0, 1e6))
        base = mtnn.TrainConfig(max_epochs=40, patience=10)
        result = mtnn.grid_search(grid, design, base, inner_k=3, seed=2)
        assert result.best_cell["l2_penalty"] == 0.0
        scores = {row["l2_penalty"]: row["mean_val_rmse"] for row in result.table}
        assert scores[0.0] < scores[1e6]

    def test_deterministic_winner(self):
        design = linear_design()
        grid = evaluation.GridSpec(hidden_sizes=((4,), (8,)), selector_layer_index=("last",),
                                   learning_rate=(1e-2,), batch_size=(16,), l2_penalty=(0.0,))
        base = mtnn.TrainConfig(max_epochs=25, patience=10)
        a = mtnn.grid_search(grid, design, base, inner_k=3, seed=4)
        b = mtnn.grid_search(grid, design, base, inner_k=3, seed=4)
        assert a.best_cell == b.best_cell
        assert a.table == b.table

    def test_selector_token_resolution(self):
        grid = evaluation.GridSpec(hidden_sizes=((8, 4),),
                                   selector_layer_index=("last", "second_to_last"))
        cells = grid.cells(selector_dim=3)
        indices = [c["selector_layer_index"] for c in cells]
        assert indices == [2, 1]
        # for a single hidden layer the two tokens collapse to one cell
        grid1 = evaluation.GridSpec(hidden_sizes=((8,),),
                                    selector_layer_index=("last", "second_to_last"))
        assert len(grid1.cells(selector_dim=3)) == 1


class TestPersistence:
    def make_bundle(self, seed=0):
        rng = np.random.default_rng(seed)
        registry = ds.PropertyRegistry(channels=(
            ds.PropertyChannel("det_velocity", "calc"),
            ds.PropertyChannel("impact_h50", "exp", transform="log10"),
        ))
        graphs = [parse_smiles(s) for s in ("CC", "CCO", "C[N+](=O)[O-]")]
        schema = descriptors.fit_schema(graphs, include_density=False)
        config = mtnn.MTNetConfig(len(schema), 2, (6, 4), 2, l2_penalty=1e-4, seed=seed)
        net = mtnn.init_network(config)
        n = 8
        features = rng.normal(size=(n, len(schema)))
        std = ds.Standardizer.fit(features, rng.normal(size=n),
                                  rng.integers(0, 2, n), 2)
        return pipeline.ModelBundle(kind="mtnn", registry=registry, schema=schema,
                                    net=net, standardizer=std)

    def test_round_trip_bit_exact(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)
        restored = pipeline.load_model(path)
        rng = np.random.default_rng(42)
        n_features = bundle.net.config.input_dim
        for _ in range(100):
            x = rng.normal(size=(1, n_features))
            s = np.eye(2)[rng.integers(0, 2, 1)]
            a = mtnn.forward(bundle.net, x, s)
            b = mtnn.forward(restored.net, x, s)
            assert np.array_equal(a, b)

    def test_truncated_file(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(CorruptFile):
            pipeline.load_model(path)

    def test_unknown_magic(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(CorruptFile):
            pipeline.load_model(path)

    def test_version_bump(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # little-endian u32 version field
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            pipeline.load_model(path)

    def test_flipped_payload_bit(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            pipeline.load_model(path)

    def test_payload_is_the_parameter_vector(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)
        header, payload = modelio.read_container(path, modelio.MAGIC_MTNN)
        assert payload == bundle.net.params.astype("<f8").tobytes()
        assert header["layer_shapes"] == [[6, len(bundle.schema)], [4, 8], [1, 4]]
        restored = pipeline.load_model(path).net
        assert restored.params.tobytes() == bundle.net.params.tobytes()
        assert np.shares_memory(restored.weights[1], restored.params)

    @staticmethod
    def rewrite_header(path, edit):
        header, payload = modelio.read_container(path, modelio.MAGIC_MTNN)
        edit(header)
        modelio.write_container(path, modelio.MAGIC_MTNN, header,
                                [np.frombuffer(payload, dtype="<f8")])

    def test_layer_shapes_must_match_config(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)
        self.rewrite_header(path, lambda h: h["layer_shapes"].reverse())
        with pytest.raises(CorruptFile, match="layer_shapes"):
            pipeline.load_model(path)

    def test_payload_length_must_match_config(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "model.emmt"
        pipeline.save_model(path, bundle)

        def widen(header):
            header["config"]["hidden_sizes"] = [6, 5]
            header["layer_shapes"][1][0] = 5
            header["layer_shapes"][2][1] = 5

        self.rewrite_header(path, widen)
        with pytest.raises(CorruptFile, match="payload"):
            pipeline.load_model(path)

    def test_predict_matrix_log_overflow_is_inf(self):
        bundle = self.make_bundle()
        bundle.net.biases[-1][:] = 1e6
        predictions = pipeline.predict_matrix(bundle, "CCO")
        assert predictions["impact_h50:exp"] == math.inf
        assert math.isfinite(predictions["det_velocity:calc"])

    def test_predict_matrix_channels_and_positivity(self, tmp_path):
        bundle = self.make_bundle()
        predictions = pipeline.predict_matrix(bundle, "CCO")
        assert list(predictions) == ["det_velocity:calc", "impact_h50:exp"]
        assert predictions["impact_h50:exp"] > 0.0  # inverse log10

    def test_predict_matrix_matches_manual_loop(self):
        bundle = self.make_bundle()
        graph = parse_smiles("CCO")
        features = descriptors.featurize(graph, bundle.schema)
        x = bundle.standardizer.apply_features(features[None, :])
        predictions = pipeline.predict_matrix(bundle, graph)
        for idx, channel in enumerate(bundle.registry):
            selector = np.zeros((1, 2))
            selector[0, idx] = 1.0
            raw = mtnn.forward(bundle.net, x, selector)[0]
            value = bundle.standardizer.invert_targets(np.array([raw]), np.array([idx]))[0]
            assert predictions[channel.key].hex() == channel.invert_transform(float(value)).hex()


def per_channel_predict_matrix(bundle, graph):
    """predict_matrix as one single-row predict_rows call per channel, the
    way it ran before one stacked forward served every channel: the oracle."""
    features = pipeline.features_for(bundle, graph, None)[None, :]
    return {channel.key: channel.invert_transform(
                float(pipeline.predict_rows(bundle, features, np.array([idx]))[0]))
            for idx, channel in enumerate(bundle.registry)}


def screening_bundle(kind, hidden_sizes=(16,), selector_layer_index=1, seed=0):
    """A bundle with random parameters over the corpus schema: an MT-NN on
    the eleven default channels, an ST-NN or a forest on one."""
    rng = np.random.default_rng(seed)
    schema = descriptors.fit_schema([parse_smiles(s) for s in CORPUS.values()],
                                    include_density=False)
    features = np.array([descriptors.featurize(parse_smiles(s), schema)
                         for s in CORPUS.values()])
    registry = ds.default_registry() if kind == "mtnn" else ds.PropertyRegistry(
        channels=(ds.PropertyChannel("det_velocity", "calc"),))
    n_channels = len(registry)
    targets = rng.normal(size=len(features)) * 10.0
    if kind == "forest":
        forest = rf.fit_forest(features, targets, rf.ForestConfig(n_trees=5, seed=seed))
        return pipeline.ModelBundle(kind="forest", registry=registry, schema=schema,
                                    forest=forest)
    config = mtnn.MTNetConfig(len(schema), n_channels if n_channels > 1 else 0, hidden_sizes,
                              selector_layer_index, seed=seed)
    net = mtnn.init_network(config)
    net.params += rng.normal(size=net.params.shape) * 0.1
    std = ds.Standardizer.fit(features, targets, rng.integers(0, n_channels, len(features)),
                              n_channels)
    return pipeline.ModelBundle(kind="mtnn", registry=registry, schema=schema, net=net,
                                standardizer=std)


SCREENING_BUNDLES = [("mtnn", hidden, index) for hidden in ((16,), (64, 32), (128, 64))
                     for index in range(1, len(hidden) + 1)] + [("st-nn", (64, 32), 1),
                                                                ("forest", None, None)]


@pytest.mark.parametrize("kind,hidden_sizes,selector_layer_index", SCREENING_BUNDLES,
                         ids=[f"{k}-{h}-{i}" for k, h, i in SCREENING_BUNDLES])
def test_predict_matrix_equals_per_channel_oracle(kind, hidden_sizes, selector_layer_index):
    bundle = screening_bundle(kind, hidden_sizes, selector_layer_index)
    if kind == "st-nn":
        assert bundle.net.config.selector_dim == 0
    for smiles in CORPUS.values():
        graph = parse_smiles(smiles)
        new, old = pipeline.predict_matrix(bundle, graph), per_channel_predict_matrix(bundle, graph)
        assert list(new) == list(old)
        assert [v.hex() for v in new.values()] == [v.hex() for v in old.values()], smiles


@pytest.mark.parametrize("engine", ["emprops.mtnn", "emprops.forest"])
def test_engine_loads_no_protocol_module(engine):
    """Each engine loads only errors, rng and workers of emprops: not the
    dataset, the protocol (evaluation) or the molecule graph. A fresh
    interpreter, so that no other test's imports count."""
    src = str(Path(mtnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (f"import sys, {engine}\n"
            "print(*sorted(name for name in sys.modules if name.startswith('emprops')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) == {"emprops", "emprops.errors", "emprops.rng",
                                          "emprops.workers", engine}
