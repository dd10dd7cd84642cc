import numpy as np
import pytest

from emprops import dataset as ds
from emprops import descriptors, pipeline
from emprops import forest as rf
from emprops.errors import CorruptFile, DimensionMismatch, EmptyData, InvalidConfig
from emprops.molgraph import parse_smiles
from emprops.rng import SplitMix64, derive_seed
from test_rng import scalar_sample_indices


def oracle_best_split(x, y, min_samples_leaf=1):
    """Brute force: every midpoint of every feature, direct SSE sums,
    ties resolved to the lowest feature index then lowest threshold. Uses
    the same noise margin as the implementation so mathematically tied
    candidates resolve by the tie rule on both sides."""
    n, d = x.shape
    parent = float(np.sum((y - y.mean()) ** 2))
    margin = 1e-12 * max(parent, 1.0)
    best = None
    for feature in range(d):
        values = np.unique(x[:, feature])
        for lo, hi in zip(values, values[1:]):
            threshold = (float(lo) + float(hi)) / 2.0
            mask = x[:, feature] <= threshold
            n_left = int(mask.sum())
            if n_left < min_samples_leaf or n - n_left < min_samples_leaf:
                continue
            left, right = y[mask], y[~mask]
            reduction = parent - float(np.sum((left - left.mean()) ** 2)) \
                - float(np.sum((right - right.mean()) ** 2))
            if reduction > margin and (best is None or reduction > best[2] + margin):
                best = (feature, threshold, reduction)
    return best


def scalar_best_split(x, y, feature_indices, min_samples_leaf=1):
    """The per-threshold scan that rf.best_split vectorizes, kept as the
    reference it must equal exactly: same cumulative sums, same SSE
    arithmetic, same incumbent chain."""
    def sse(total, total_sq, count):
        return total_sq - total * total / count

    n = len(y)
    if n < 2:
        return None
    parent_sse = sse(float(y.sum()), float((y * y).sum()), n)
    margin = 1e-12 * max(parent_sse, 1.0)
    best = None
    for feature in sorted(feature_indices):
        column = x[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_x = column[order]
        sorted_y = y[order]
        cum = np.cumsum(sorted_y)
        cum_sq = np.cumsum(sorted_y * sorted_y)
        total, total_sq = float(cum[-1]), float(cum_sq[-1])
        for i in range(n - 1):
            if sorted_x[i] == sorted_x[i + 1]:
                continue
            left_n = i + 1
            right_n = n - left_n
            if left_n < min_samples_leaf or right_n < min_samples_leaf:
                continue
            left_sse = sse(float(cum[i]), float(cum_sq[i]), left_n)
            right_sse = sse(total - float(cum[i]), total_sq - float(cum_sq[i]), right_n)
            reduction = parent_sse - left_sse - right_sse
            threshold = (float(sorted_x[i]) + float(sorted_x[i + 1])) / 2.0
            if reduction > margin and (best is None or reduction > best[2] + margin):
                best = (feature, threshold, reduction)
    return best


def scalar_fit_forest(x, y, config):
    """The recursive, draw-per-call grower that fit_forest replaced: one
    next_below per bootstrap row, nodes in preorder, feature draws in node
    order, the scalar split scan at every node."""
    n, d = x.shape
    max_features = config.resolve_max_features(d)
    trees = []
    for tree_index in range(config.n_trees):
        rng = SplitMix64(derive_seed(config.seed, tree_index))
        sample = np.array([rng.next_below(n) for _ in range(n)])
        xs, ys = x[sample], y[sample]
        nodes = []

        def grow(rows, depth):
            index = len(nodes)
            values = ys[rows]
            nodes.append([-1.0, 0.0, float(values.mean()), -1.0, -1.0])
            if depth >= config.max_depth or len(rows) < 2 * config.min_samples_leaf:
                return index
            candidates = (list(range(d)) if max_features >= d
                          else scalar_sample_indices(rng, d, max_features))
            split = scalar_best_split(xs[rows], values, candidates, config.min_samples_leaf)
            if split is None:
                return index
            feature, threshold, _ = split
            mask = xs[rows, feature] <= threshold
            nodes[index][:2] = [float(feature), threshold]
            nodes[index][3] = float(grow(rows[mask], depth + 1))
            nodes[index][4] = float(grow(rows[~mask], depth + 1))
            return index

        grow(np.arange(n), 0)
        trees.append(np.array(nodes))
    return trees


def scalar_predict(tree, row):
    """One row down one tree, node by node: the walk predict_forest vectorizes."""
    node = 0
    while tree[node, rf.FEATURE] >= 0:
        goes_left = row[int(tree[node, rf.FEATURE])] <= tree[node, rf.THRESHOLD]
        node = int(tree[node, rf.LEFT] if goes_left else tree[node, rf.RIGHT])
    return tree[node, rf.VALUE]


def root(tree):
    """Row 0 of a tree array as (feature, threshold, value)."""
    return int(tree[0, rf.FEATURE]), tree[0, rf.THRESHOLD], tree[0, rf.VALUE]


class TestBestSplit:
    def test_step_data(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        feature, threshold, reduction = rf.best_split(x, y, [0])
        assert (feature, threshold) == (0, 2.5)
        assert reduction == pytest.approx(1.0, abs=1e-12)

    def test_constant_targets(self):
        x = np.array([[1.0], [2.0], [3.0]])
        assert rf.best_split(x, np.ones(3), [0]) is None

    def test_constant_feature(self):
        x = np.ones((4, 1))
        assert rf.best_split(x, np.array([0.0, 1.0, 2.0, 3.0]), [0]) is None

    def test_min_samples_leaf_respected(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0])
        split = rf.best_split(x, y, [0], min_samples_leaf=2)
        assert split is not None
        assert split[1] == 2.5  # the (3, 1) split is barred

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            got = rf.best_split(x, y, list(range(d)))
            expected = oracle_best_split(x, y)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == expected[0]
                assert got[1] == pytest.approx(expected[1], abs=1e-12)

    def test_equals_scalar_scan_exactly(self):
        rng = np.random.default_rng(2026)
        for case in range(3000):
            n = int(rng.integers(1, 25))
            d = int(rng.integers(1, 6))
            kind = case % 4
            if kind == 0:
                x = rng.normal(size=(n, d))
            elif kind == 1:  # many duplicate values
                x = rng.integers(0, 3, size=(n, d)).astype(float)
            elif kind == 2:  # identical columns: the same partition on every feature
                x = np.repeat(rng.normal(size=(n, 1)), d, axis=1)
            else:
                x = np.round(rng.normal(size=(n, d)), 1)
            if case % 3 == 0:
                y = rng.integers(0, 4, size=n).astype(float)
            else:
                y = rng.normal(size=n)
            features = [int(f) for f in rng.permutation(d)[: int(rng.integers(1, d + 1))]]
            min_samples_leaf = int(rng.integers(1, 4))
            assert rf.best_split(x, y, features, min_samples_leaf) == \
                scalar_best_split(x, y, features, min_samples_leaf), case

    def test_adjacent_floats_keep_upper_midpoint(self):
        # The midpoint of adjacent floats rounds to the upper value, so the
        # split sends both rows left. Pinned so outputs stay byte-identical.
        x = np.array([[-50.00000000000001], [-50.0]])
        y = np.array([0.0, 1.0])
        split = rf.best_split(x, y, [0])
        assert split == scalar_best_split(x, y, [0])
        assert split[1] == -50.0


class TestFitTree:
    def test_depth_one_equals_oracle(self):
        rng = np.random.default_rng(77)
        config = rf.ForestConfig(n_trees=1, max_depth=1, min_samples_leaf=1,
                                 max_features=3, seed=0)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            d = 3
            x = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            feature, threshold, _ = root(rf.fit_tree(x, y, config))
            expected = oracle_best_split(x, y)
            if expected is None:
                assert feature == -1
            else:
                assert feature == expected[0]
                assert threshold == pytest.approx(expected[1], abs=1e-12)

    def test_leaf_holds_mean(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([2.0, 4.0])
        config = rf.ForestConfig(n_trees=1, max_depth=1, min_samples_leaf=2, max_features=1)
        feature, _, value = root(rf.fit_tree(x, y, config))
        assert feature == -1
        assert value == 3.0


class TestForest:
    def test_constant_targets(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        y = np.full(10, 7.0)
        forest = rf.fit_forest(x, y, rf.ForestConfig(n_trees=10, seed=1, max_features=1))
        pred = rf.predict_forest(forest, x)
        assert np.allclose(pred, 7.0)

    def test_single_tree_full_features_on_step_data(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        config = rf.ForestConfig(n_trees=1, max_depth=1, min_samples_leaf=1,
                                 max_features=1, seed=3)
        forest = rf.fit_forest(x, y, config)
        # bootstrap resampling may shift the threshold, but the tree must
        # be the best split of its own bootstrap sample
        feature, _, _ = root(forest.trees[0])
        if feature != -1:
            assert feature == 0

    def test_same_seed_identical_forests(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        config = rf.ForestConfig(n_trees=12, max_depth=6, seed=42)
        a = rf.fit_forest(x, y, config)
        b = rf.fit_forest(x, y, config)
        grid = rng.normal(size=(20, 4))
        assert np.array_equal(rf.predict_forest(a, grid), rf.predict_forest(b, grid))

    def test_predictions_bounded_by_training_targets(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        forest = rf.fit_forest(x, y, rf.ForestConfig(n_trees=15, seed=9))
        pred = rf.predict_forest(forest, rng.normal(size=(50, 3)) * 3)
        assert np.all(pred >= y.min() - 1e-12)
        assert np.all(pred <= y.max() + 1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty children average nothing
    def test_equals_recursive_scalar_grower(self):
        rng = np.random.default_rng(31)
        for case in range(12):
            n = int(rng.integers(2, 50))
            x = np.round(rng.normal(size=(n, 7)), 1)
            # adjacent floats: their midpoint is the upper value, which grows empty children
            x[:, 0] = rng.choice([-50.00000000000001, -50.0], size=n)
            y = rng.normal(size=n)
            config = rf.ForestConfig(n_trees=3, max_depth=int(rng.integers(1, 8)),
                                     min_samples_leaf=int(rng.integers(1, 4)),
                                     max_features=[None, 2, 7][case % 3], seed=case)
            got = rf.fit_forest(x, y, config).trees
            expected = scalar_fit_forest(x, y, config)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b, equal_nan=True), case

    def test_predictions_equal_scalar_walk(self):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=(60, 5)), 1)
        forest = rf.fit_forest(x, rng.normal(size=60),
                               rf.ForestConfig(n_trees=7, max_depth=6, seed=2))
        grid = np.round(rng.normal(size=(40, 5)), 1)
        grid[0, :] = np.nan  # NaN never compares <=, so it goes right as in the scalar walk
        expected = np.zeros(len(grid))
        for tree in forest.trees:
            expected += [scalar_predict(tree, row) for row in grid]
        expected /= len(forest.trees)
        assert np.array_equal(rf.predict_forest(forest, grid), expected)
        assert rf.predict_forest(forest, grid[3]) == expected[3]

    def test_mean_of_two_trees(self):
        left = np.array([[-1.0, 0.0, 1.0, -1.0, -1.0]])
        right = np.array([[-1.0, 0.0, 3.0, -1.0, -1.0]])
        forest = rf.RandomForest(config=rf.ForestConfig(n_trees=2), trees=[left, right],
                                 n_features=1)
        assert rf.predict_forest(forest, np.array([0.0])) == 2.0

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            rf.fit_forest(np.zeros((0, 2)), np.zeros(0), rf.ForestConfig())

    def test_dimension_mismatch(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        forest = rf.fit_forest(x, np.zeros(10), rf.ForestConfig(n_trees=2, seed=0, max_features=1))
        with pytest.raises(DimensionMismatch):
            rf.predict_forest(forest, np.zeros((1, 5)))

    def test_max_features_validation(self):
        with pytest.raises(InvalidConfig):
            rf.ForestConfig(max_features=5).resolve_max_features(3)
        assert rf.ForestConfig().resolve_max_features(9) == 3
        assert rf.ForestConfig().resolve_max_features(10) == 4


def forest_bundle(rng):
    """A fitted forest bundle over a real schema, and its training features."""
    graphs = [parse_smiles(smiles) for smiles in ("CC", "CCO", "C[N+](=O)[O-]")]
    schema = descriptors.fit_schema(graphs, include_density=False)
    x = rng.normal(size=(25, len(schema)))
    forest = rf.fit_forest(x, rng.normal(size=25),
                           rf.ForestConfig(n_trees=4, max_depth=4, seed=11))
    registry = ds.PropertyRegistry(channels=(ds.PropertyChannel("det_velocity", "calc"),))
    bundle = pipeline.ModelBundle(kind="forest", registry=registry, schema=schema,
                                  forest=forest)
    return bundle, x


class TestForestFile:
    def test_save_load_save_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        bundle, x = forest_bundle(rng)
        first, second = tmp_path / "a.emrf", tmp_path / "b.emrf"
        pipeline.save_model(first, bundle)
        restored = pipeline.load_model(first)
        pipeline.save_model(second, restored)
        assert first.read_bytes() == second.read_bytes()
        grid = rng.normal(size=(30, x.shape[1]))
        assert np.array_equal(rf.predict_forest(restored.forest, grid),
                              rf.predict_forest(bundle.forest, grid))

    @pytest.mark.parametrize("row,column,value", [
        (0, rf.LEFT, 0.0),          # a link back to the root would walk forever
        (0, rf.RIGHT, 1e6),         # a link past the last row
        (0, rf.FEATURE, 1e6),       # a feature the schema does not have
        (0, rf.FEATURE, 0.5),       # a feature that is not an index
    ])
    def test_malformed_tree_is_corrupt(self, tmp_path, row, column, value):
        bundle, _ = forest_bundle(np.random.default_rng(5))
        assert bundle.forest.trees[0][0, rf.FEATURE] >= 0  # the root splits
        bundle.forest.trees[0][row, column] = value
        path = tmp_path / "bad.emrf"
        pipeline.save_model(path, bundle)
        with pytest.raises(CorruptFile):
            pipeline.load_model(path)
