import math

import numpy as np
import pytest

from emprops import dataset as ds
from emprops import mtnn, pipeline
from emprops.errors import (
    CorruptFile,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteLoss,
    VersionMismatch,
)


def finite_difference(net, features, selector, targets, h=1e-6):
    """Central finite differences on the full training loss."""

    def loss():
        out = mtnn.forward(net, features, selector)
        value = float(np.mean((out - targets) ** 2))
        for w in net.weights:
            value += net.config.l2_penalty * float(np.sum(w * w))
        return value

    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]
    for arrays, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, grad in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                upper = loss()
                flat[i] = original - h
                lower = loss()
                flat[i] = original
                gflat[i] = (upper - lower) / (2 * h)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    """Relative error of the full flattened gradient vector.

    Norm-based rather than per-component: central differences carry an
    absolute noise floor of about eps * |loss| / h, which would swamp the
    comparison on individual near-zero entries.
    """
    a = np.concatenate([g.reshape(-1) for group in analytic for g in group])
    b = np.concatenate([g.reshape(-1) for group in numeric for g in group])
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / scale


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

    def test_dimension_mismatch(self):
        config = mtnn.MTNetConfig(3, 2, (4,), 1, seed=0)
        net = mtnn.init_network(config)
        with pytest.raises(DimensionMismatch):
            mtnn.forward(net, np.zeros((1, 5)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            mtnn.forward(net, np.zeros((1, 3)))  # missing selector


class TestGradients:
    def test_zero_residual_zero_gradient(self):
        config = mtnn.MTNetConfig(2, 0, (3,), 0, l2_penalty=0.0, seed=2)
        net = mtnn.init_network(config)
        x = np.array([[0.5, -0.2]])
        y = mtnn.forward(net, x)
        d_w, d_b, loss = mtnn.gradients(net, x, None, y)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in d_w)
        assert all(np.all(g == 0.0) for g in d_b)

    def test_l2_term_alone(self):
        config = mtnn.MTNetConfig(2, 0, (3,), 0, l2_penalty=0.5, seed=2)
        net = mtnn.init_network(config)
        x = np.array([[0.5, -0.2]])
        y = mtnn.forward(net, x)
        d_w, d_b, _ = mtnn.gradients(net, x, None, y)
        for grad, w in zip(d_w, net.weights):
            assert np.allclose(grad, 2 * 0.5 * w, atol=1e-12)
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
            d_w, d_b, _ = mtnn.gradients(net, x, s, y)
            fd_w, fd_b = finite_difference(net, x, s, y)
            assert max_relative_error((d_w, d_b), (fd_w, fd_b)) < 1e-5

    def test_batch_order_invariance(self):
        net, x, s, y = random_case(7, 3, (5, 3), 2, 0.0)
        d_w, d_b, _ = mtnn.gradients(net, x, s, y)
        perm = np.array([2, 0, 1, 3])[: len(y)]
        d_w2, d_b2, _ = mtnn.gradients(net, x[perm], s[perm] if s is not None else None, y[perm])
        for a, b in zip(d_w + d_b, d_w2 + d_b2):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises(self):
        x, y = self.toy()
        config = mtnn.MTNetConfig(1, 0, (8,), 0, seed=3)
        train_config = mtnn.TrainConfig(learning_rate=1e150, batch_size=4,
                                        max_epochs=50, patience=50, seed=1)
        with pytest.raises(NonFiniteLoss):
            mtnn.train(mtnn.init_network(config), x * 1e3, None, y * 1e3, train_config)


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
        grid = mtnn.GridSpec(hidden_sizes=((8,),), selector_layer_index=("last",),
                             learning_rate=(1e-2,), batch_size=(16,), l2_penalty=(0.0,))
        base = mtnn.TrainConfig(max_epochs=40, patience=10)
        result = mtnn.grid_search(grid, design, base, inner_k=3, seed=2)
        assert result.best_cell["hidden_sizes"] == (8,)
        assert len(result.table) == 1

    def test_crippling_l2_loses(self):
        design = linear_design()
        grid = mtnn.GridSpec(hidden_sizes=((8,),), selector_layer_index=("last",),
                             learning_rate=(1e-2,), batch_size=(16,),
                             l2_penalty=(0.0, 1e6))
        base = mtnn.TrainConfig(max_epochs=40, patience=10)
        result = mtnn.grid_search(grid, design, base, inner_k=3, seed=2)
        assert result.best_cell["l2_penalty"] == 0.0
        scores = {row["l2_penalty"]: row["mean_val_rmse"] for row in result.table}
        assert scores[0.0] < scores[1e6]

    def test_deterministic_winner(self):
        design = linear_design()
        grid = mtnn.GridSpec(hidden_sizes=((4,), (8,)), selector_layer_index=("last",),
                             learning_rate=(1e-2,), batch_size=(16,), l2_penalty=(0.0,))
        base = mtnn.TrainConfig(max_epochs=25, patience=10)
        a = mtnn.grid_search(grid, design, base, inner_k=3, seed=4)
        b = mtnn.grid_search(grid, design, base, inner_k=3, seed=4)
        assert a.best_cell == b.best_cell
        assert a.table == b.table

    def test_selector_token_resolution(self):
        grid = mtnn.GridSpec(hidden_sizes=((8, 4),),
                             selector_layer_index=("last", "second_to_last"))
        cells = grid.cells(selector_dim=3)
        indices = [c["selector_layer_index"] for c in cells]
        assert indices == [2, 1]
        # for a single hidden layer the two tokens collapse to one cell
        grid1 = mtnn.GridSpec(hidden_sizes=((8,),),
                              selector_layer_index=("last", "second_to_last"))
        assert len(grid1.cells(selector_dim=3)) == 1


class TestPersistence:
    def make_bundle(self, seed=0):
        rng = np.random.default_rng(seed)
        registry = ds.PropertyRegistry(channels=(
            ds.PropertyChannel("det_velocity", "calc"),
            ds.PropertyChannel("impact_h50", "exp", transform="log10"),
        ))
        from emprops import descriptors
        from emprops.molgraph import parse_smiles

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

    def test_predict_matrix_channels_and_positivity(self, tmp_path):
        bundle = self.make_bundle()
        predictions = pipeline.predict_matrix(bundle, "CCO")
        assert list(predictions) == ["det_velocity:calc", "impact_h50:exp"]
        assert predictions["impact_h50:exp"] > 0.0  # inverse log10

    def test_predict_matrix_matches_manual_loop(self):
        bundle = self.make_bundle()
        from emprops.molgraph import parse_smiles
        from emprops import descriptors

        graph = parse_smiles("CCO")
        features = descriptors.featurize(graph, bundle.schema).values
        x = bundle.standardizer.apply_features(features[None, :])
        predictions = pipeline.predict_matrix(bundle, graph)
        for idx, channel in enumerate(bundle.registry):
            selector = np.zeros((1, 2))
            selector[0, idx] = 1.0
            raw = mtnn.forward(bundle.net, x, selector)[0]
            value = bundle.standardizer.invert_targets(np.array([raw]), np.array([idx]))[0]
            assert predictions[channel.key] == pytest.approx(
                channel.invert_transform(float(value)), abs=1e-12
            )
