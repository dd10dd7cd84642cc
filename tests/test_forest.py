import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emprops import cli
from emprops import dataset as ds
from emprops import descriptors, evaluation, pipeline
from emprops import forest as rf
from emprops.errors import (CorruptFile, DimensionMismatch, EmptyData, InvalidConfig,
                            TooFewMaterials, ToolkitError)
from emprops.molgraph import parse_smiles
from emprops.rng import SplitMix64, derive_seed
from fold_oracle import rows_for
from test_cli import write_dataset, write_grid
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


def per_node_best_split(x, y, feature_indices, min_samples_leaf=1):
    """The one-node split search that the lockstep grower batches, kept as
    the reference every node must equal exactly: the node's candidate
    columns sorted together, every candidate scored from cumulative sums
    in one pass, the tie rule applied to the running maxima in scan order."""
    def sse(total, total_sq, count):
        return total_sq - total * total / count

    n = len(y)
    if n < 2:
        return None
    parent_sse = sse(float(y.sum()), float((y * y).sum()), n)
    margin = 1e-12 * max(parent_sse, 1.0)

    features = sorted(feature_indices)
    columns = x[:, features]
    order = np.argsort(columns, axis=0, kind="stable")
    sorted_x = columns[order, np.arange(len(features))]
    sorted_y = y[order]
    cum = np.cumsum(sorted_y, axis=0)
    cum_sq = np.cumsum(sorted_y * sorted_y, axis=0)
    left_n = np.arange(1, n)[:, None]
    left, left_sq = cum[:-1], cum_sq[:-1]
    reduction = (parent_sse - sse(left, left_sq, left_n)
                 - sse(cum[-1] - left, cum_sq[-1] - left_sq, n - left_n))
    usable = (sorted_x[:-1] != sorted_x[1:]) & (reduction > margin)
    usable[:min_samples_leaf - 1] = False
    usable[max(n - min_samples_leaf, 0):] = False
    scores = np.where(usable, reduction, -np.inf).ravel(order="F")
    earlier_peak = np.concatenate(([-np.inf], np.maximum.accumulate(scores)[:-1]))
    records = np.flatnonzero(scores > earlier_peak)
    best = None
    for candidate, score in zip(records.tolist(), scores[records].tolist()):
        if best is None or score > best[1] + margin:
            best = (candidate, score)
    if best is None:
        return None
    column, i = divmod(best[0], n - 1)
    threshold = (float(sorted_x[i, column]) + float(sorted_x[i + 1, column])) / 2.0
    return features[column], threshold, best[1]


def per_tree_fit_tree(x, y, config, feature_rng=None):
    """The one-tree grower that lockstep growth replaced: an explicit
    preorder stack, feature draws in node order, per_node_best_split at
    every node."""
    n_features = x.shape[1]
    max_features = config.resolve_max_features(n_features)
    nodes = []
    stack = [(np.arange(len(y)), 0, -1, rf.LEFT)]
    while stack:
        rows, depth, parent, link = stack.pop()
        index = len(nodes)
        if parent >= 0:
            nodes[parent][link] = float(index)
        values = y[rows]
        node = [-1.0, 0.0, float(values.sum() / len(values)), -1.0, -1.0]
        nodes.append(node)
        if depth >= config.max_depth or len(rows) < 2 * config.min_samples_leaf:
            continue
        if feature_rng is None or max_features >= n_features:
            candidates = list(range(n_features))
        else:
            candidates = feature_rng.sample_indices(n_features, max_features)
        split = per_node_best_split(x[rows], values, candidates, config.min_samples_leaf)
        if split is None:
            continue
        feature, threshold, _ = split
        mask = x[rows, feature] <= threshold
        node[rf.FEATURE] = float(feature)
        node[rf.THRESHOLD] = threshold
        stack.append((rows[~mask], depth + 1, index, rf.RIGHT))
        stack.append((rows[mask], depth + 1, index, rf.LEFT))
    return np.array(nodes, dtype=np.float64)


def per_tree_fit_forest(x, y, config):
    """The trees of a forest grown one after another, each on its bootstrap
    with per_tree_fit_tree: what fit_forests must equal for every job."""
    n = len(y)
    trees = []
    for tree_index in range(config.n_trees):
        rng = SplitMix64(derive_seed(config.seed, tree_index))
        rows = (rng.next_block(n) % np.uint64(n)).astype(np.intp)
        trees.append(per_tree_fit_tree(x[rows], y[rows], config, feature_rng=rng))
    return trees


def tree_bytes(trees):
    return [tree.tobytes() for tree in trees]


def scalar_predict(tree, row):
    """One row down one tree, node by node: the walk predict_tree vectorizes."""
    node = 0
    while tree[node, rf.FEATURE] >= 0:
        goes_left = row[int(tree[node, rf.FEATURE])] <= tree[node, rf.THRESHOLD]
        node = int(tree[node, rf.LEFT] if goes_left else tree[node, rf.RIGHT])
    return tree[node, rf.VALUE]


def predict_tree(tree, x):
    """Every row of x down one tree, one level per step: the walk that
    predict_forests runs over the trees of many forests at once."""
    feature = tree[:, rf.FEATURE].astype(np.intp)
    children = tree[:, rf.LEFT:].astype(np.intp)
    node = np.zeros(len(x), dtype=np.intp)
    active = np.arange(len(x))
    while active.size:
        at = node[active]
        inner = feature[at] >= 0
        active, at = active[inner], at[inner]
        goes_left = x[active, feature[at]] <= tree[at, rf.THRESHOLD]
        node[active] = np.where(goes_left, children[at, 0], children[at, 1])
    return tree[node, rf.VALUE]


def per_tree_predict(forest, x):
    """The forest's mean on the rows of x, one tree at a time: each tree's
    predict_tree added in tree order into zeros, then divided by the tree
    count. What predict_forests must equal for every forest."""
    out = np.zeros(x.shape[0])
    for tree in forest.trees:
        out += predict_tree(tree, x)
    out /= len(forest.trees)
    return out


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


def random_tree(rng, n_features, max_depth):
    """A random tree array: splits on random features at rounded thresholds
    (so rows tie with them), and leaves whose values are normal draws, NaN
    (an empty child) or -0.0."""
    nodes = []

    def grow(depth):
        index = len(nodes)
        nodes.append([-1.0, 0.0, 0.0, -1.0, -1.0])
        if depth < max_depth and rng.random() < 0.75:
            nodes[index][:2] = [float(rng.integers(n_features)), round(rng.normal(), 1)]
            nodes[index][rf.LEFT] = grow(depth + 1)
            nodes[index][rf.RIGHT] = grow(depth + 1)
        else:
            nodes[index][rf.VALUE] = [rng.normal(), np.nan, -0.0][int(rng.integers(3))]
        return index

    grow(0)
    return np.array(nodes)


def tree_depth(tree, node=0):
    if tree[node, rf.FEATURE] < 0:
        return 0
    return 1 + max(tree_depth(tree, int(tree[node, rf.LEFT])),
                   tree_depth(tree, int(tree[node, rf.RIGHT])))


def random_forests(rng, n_features, count):
    """Forests of 1 to 12 random trees up to depth 6, and one whose every
    leaf is -0.0 (its mean is +0.0, as zeros plus -0.0 is)."""
    forests = [rf.RandomForest(rf.ForestConfig(n_trees=n), n_features=n_features,
                               trees=[random_tree(rng, n_features, int(rng.integers(0, 7)))
                                      for _ in range(n)])
               for n in rng.integers(1, 13, size=count).tolist()]
    negative_zero = np.array([[-1.0, 0.0, -0.0, -1.0, -1.0]])
    forests.append(rf.RandomForest(rf.ForestConfig(n_trees=3), n_features=n_features,
                                   trees=[negative_zero] * 3))
    return forests


class TestPredictForests:
    def inputs(self, seed=3):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(30, 4)), 1)
        x[0, :] = np.nan  # NaN never compares <=, so it goes right
        forests = random_forests(rng, 4, 9)
        shared = rng.choice(len(x), size=7)
        rows = [rng.choice(len(x), size=int(rng.integers(0, 25))) for _ in forests]
        rows[0], rows[1], rows[2], rows[3] = np.zeros(0, dtype=np.intp), np.array([4]), shared, shared
        return x, forests, rows

    def check(self, x, forests, rows):
        got = rf.predict_forests(forests, x, rows)
        assert len(got) == len(forests)
        for forest, indices, values in zip(forests, rows, got):
            expected = per_tree_predict(forest, x[indices])
            assert values.tobytes() == expected.tobytes()
            scalar = np.zeros(len(indices))
            for tree in forest.trees:
                scalar += [scalar_predict(tree, x[i]) for i in indices]
            scalar /= len(forest.trees)
            assert values.tobytes() == scalar.tobytes()
        return got

    def test_equals_per_tree_and_scalar_oracles(self):
        x, forests, rows = self.inputs()
        got = self.check(x, forests, rows)
        assert np.isnan(np.concatenate(got)).any()  # NaN leaves reached
        assert len(got[0]) == 0 and len(got[1]) == 1
        assert got[-1].size and not np.signbit(got[-1]).any()  # the -0.0 leaves mean +0.0

    @pytest.mark.parametrize("window", [1, 7, 40, 200])
    def test_windows_straddled_by_row_sets(self, monkeypatch, window):
        x, forests, rows = self.inputs(seed=window)
        whole = rf.predict_forests(forests, x, rows)
        monkeypatch.setattr(rf, "WINDOW_ROWS", window)  # forests larger than one fill one alone
        walks = []
        walk = rf._walk
        monkeypatch.setattr(rf, "_walk", lambda *args: walks.append(1) or walk(*args))
        got = self.check(x, forests, rows)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in whole]
        assert len(walks) > 1

    def test_one_walk_takes_the_deepest_tree_levels(self, monkeypatch):
        """Every (tree, row) pair of a window walks down together, so a walk
        takes one step per level of its deepest tree, and one more to find
        that every pair is at a leaf, whatever the tree count."""
        rng = np.random.default_rng(11)
        x = np.round(rng.normal(size=(30, 4)), 1)
        forests = random_forests(rng, 4, 6)
        forests.append(rf.RandomForest(rf.ForestConfig(n_trees=100), n_features=4,
                                       trees=[random_tree(rng, 4, 6) for _ in range(100)]))
        walks = []  # the steps of each walk
        walk, descend = rf._walk, rf._descend

        def counted_walk(*args):
            walks.append(0)
            return walk(*args)

        def counted_descend(*args):
            walks[-1] += 1
            return descend(*args)

        monkeypatch.setattr(rf, "_walk", counted_walk)
        monkeypatch.setattr(rf, "_descend", counted_descend)
        rf.predict_forests(forests, x, [np.arange(len(x))] * len(forests))
        deepest = max(tree_depth(tree) for forest in forests for tree in forest.trees)
        assert len(walks) == 1 and walks[0] <= deepest + 1
        walks.clear()
        got = rf.predict_forest(forests[-1], x[5])
        assert walks == []  # one row walks each tree in Python
        assert got.tobytes() == per_tree_predict(forests[-1], x[5:6])[0].tobytes()

    def test_wrong_width_is_dimension_mismatch(self):
        x, forests, rows = self.inputs()
        narrow = rf.RandomForest(rf.ForestConfig(n_trees=1), n_features=3,
                                 trees=[random_tree(np.random.default_rng(0), 3, 2)])
        with pytest.raises(DimensionMismatch, match="^feature dim 4 != fitted dim 3$"):
            rf.predict_forests(forests + [narrow], x, rows + [np.arange(2)])

    def test_no_forests(self):
        assert rf.predict_forests([], np.zeros((3, 2)), []) == []


def infinite_threshold_tree():
    """A root that sends every row but NaN left: x[1] <= +inf."""
    return np.array([[1.0, np.inf, 0.0, 1.0, 2.0],
                     [-1.0, 0.0, 0.25, -1.0, -1.0],
                     [-1.0, 0.0, -3.5, -1.0, -1.0]])


class TestPredictOneRow:
    """A single row, (d,) or (1, d), walks each tree in Python with the bits
    of the level walk and of the scalar oracle."""

    def inputs(self, seed=5):
        rng = np.random.default_rng(seed)
        forests = random_forests(rng, 4, 24)  # 1 to 12 trees, and all -0.0 leaves
        forests.append(rf.RandomForest(rf.ForestConfig(n_trees=100), n_features=4,
                                       trees=[random_tree(rng, 4, 8) for _ in range(100)]))
        forests.append(rf.RandomForest(
            rf.ForestConfig(n_trees=3), n_features=4,
            trees=[random_tree(rng, 4, 3), infinite_threshold_tree(), random_tree(rng, 4, 3)]))
        x = np.round(rng.normal(size=(40, 4)), 1)
        x[0, :] = np.nan
        x[1, :] = np.inf
        x[2, :] = -np.inf
        x[3, 1::2] = [np.nan, np.inf]
        x[4, ::2] = [-np.inf, np.nan]
        return forests, x

    def test_equals_scalar_and_per_tree_oracles(self):
        forests, x = self.inputs()
        assert {len(forest.trees) for forest in forests} >= {1, 12, 100}
        values = []
        for forest in forests:
            for row in x:
                scalar = 0.0
                for tree in forest.trees:
                    scalar += scalar_predict(tree, row)
                scalar /= len(forest.trees)
                expected = per_tree_predict(forest, row[None])
                assert expected.tobytes() == np.float64(scalar).tobytes()
                flat, matrix = rf.predict_forest(forest, row), rf.predict_forest(forest, row[None])
                assert np.ndim(flat) == 0 and matrix.shape == (1,)
                assert flat.tobytes() == matrix.tobytes() == expected.tobytes()
                values.append(flat)
        assert np.isnan(values).any()  # NaN leaves reached
        negative_zero = [rf.predict_forest(forests[-3], row) for row in x]
        assert all(v == 0.0 and not np.signbit(v) for v in negative_zero)
        lone = rf.RandomForest(rf.ForestConfig(n_trees=1), n_features=4,
                               trees=[infinite_threshold_tree()])
        # NaN goes right, +inf and -inf go left
        assert [rf.predict_forest(lone, x[i]) for i in (0, 1, 2)] == [-3.5, 0.25, 0.25]

    def test_matrix_rows_take_the_level_walk(self, monkeypatch):
        forests, x = self.inputs()
        walks = []
        walk = rf._walk
        monkeypatch.setattr(rf, "_walk", lambda *args: walks.append(1) or walk(*args))
        for forest in forests:
            got = rf.predict_forest(forest, x[:2])
            assert got.tobytes() == per_tree_predict(forest, x[:2]).tobytes()
            rf.predict_forest(forest, x[5])
        assert len(walks) == len(forests)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (5,), (1, 5)])
    def test_wrong_width_is_dimension_mismatch(self, shape):
        forests, _ = self.inputs()
        with pytest.raises(DimensionMismatch, match=f"^feature dim {shape[-1]} != fitted dim 4$"):
            rf.predict_forest(forests[0], np.zeros(shape))

    def test_forest_bundle_screens_without_a_level_walk(self, monkeypatch):
        bundle, _ = forest_bundle(np.random.default_rng(3))
        walks = []
        walk = rf._walk
        monkeypatch.setattr(rf, "_walk", lambda *args: walks.append(1) or walk(*args))
        values = pipeline.predict_matrix(bundle, "C[N+](=O)[O-]")
        row = pipeline.features_for(bundle, parse_smiles("C[N+](=O)[O-]"), None)
        assert walks == []
        assert values == {"det_velocity:calc": per_tree_predict(bundle.forest, row[None])[0]}


def mixed_jobs():
    """(x, y, jobs): forest jobs on the rows of one source that stacks two
    designs, each job on rows of one of them: both min_samples_leaf 1 and
    3, several depths, drawn (k < d) and full (k = d) feature subsets, a
    one-row bootstrap, constant targets, tied feature values, and adjacent
    floats whose midpoint grows an empty child."""
    rng = np.random.default_rng(404)
    rounded = np.round(rng.normal(size=(60, 7)), 1)  # rounded, so values tie
    rounded[:, 0] = rng.choice([-50.00000000000001, -50.0], size=60)
    rounded_y = rng.normal(size=60)
    small = rng.integers(0, 3, size=(25, 7)).astype(float)
    constant_y = np.full(25, 2.5)
    x, y = np.concatenate([rounded, small]), np.concatenate([rounded_y, constant_y])
    jobs = []
    for case in range(24):
        first, part = (0, rounded_y) if case % 3 else (len(rounded_y), constant_y)
        rows = np.sort(rng.choice(len(part), size=int(rng.integers(1, len(part) + 1)),
                                  replace=False))
        if case == 5:
            rows = rows[:1]  # a bootstrap of one row
        config = rf.ForestConfig(n_trees=int(rng.integers(1, 4)),
                                 max_depth=[1, 2, 5, 12][case % 4],
                                 min_samples_leaf=[1, 3][case % 2] if len(rows) >= 3 else 1,
                                 max_features=[None, 2, x.shape[1]][case % 3], seed=case)
        jobs.append(rf.forest_job(x, y, config, first + rows))
    return x, y, jobs


def expected_trees(x, y, job):
    return per_tree_fit_forest(x[job.rows], y[job.rows], job.config)


class TestFitForests:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracle's empty children
    def test_mixed_jobs_equal_per_tree_oracle(self):
        x, y, jobs = mixed_jobs()
        forests = list(rf.fit_forests(x, y, jobs))
        assert len(forests) == len(jobs)
        empty_children = 0
        for job, forest in zip(jobs, forests):
            assert forest.config == job.config and forest.n_features == x.shape[1]
            assert tree_bytes(forest.trees) == tree_bytes(expected_trees(x, y, job))
            empty_children += sum(int(np.isnan(tree[:, rf.VALUE]).sum()) for tree in forest.trees)
        assert empty_children > 0  # the adjacent-float case grew NaN leaves

    def test_jobs_do_not_depend_on_their_company(self, monkeypatch):
        x, y, jobs = mixed_jobs()
        together = [tree_bytes(forest.trees) for forest in rf.fit_forests(x, y, jobs)]
        order = np.random.default_rng(1).permutation(len(jobs)).tolist()
        permuted = [tree_bytes(forest.trees)
                    for forest in rf.fit_forests(x, y, [jobs[i] for i in order])]
        assert [permuted[order.index(i)] for i in range(len(jobs))] == together
        halves = [tree_bytes(forest.trees)
                  for part in (jobs[::2], jobs[1::2]) for forest in rf.fit_forests(x, y, part)]
        assert halves == together[::2] + together[1::2]
        alone = [tree_bytes(rf.fit_forest(x[job.rows], y[job.rows], job.config).trees)
                 for job in jobs]
        assert alone == together
        monkeypatch.setattr(rf, "WINDOW_ROWS", 40)  # many windows, one job too big for any
        assert [tree_bytes(forest.trees) for forest in rf.fit_forests(x, y, jobs)] == together
        monkeypatch.setattr(rf, "BLOCK_CELLS", 1)  # one node per split-search block
        assert [tree_bytes(forest.trees) for forest in rf.fit_forests(x, y, jobs)] == together

    def test_fit_tree_advances_the_feature_stream_as_the_oracle(self):
        rng = np.random.default_rng(9)
        x, y = np.round(rng.normal(size=(40, 9)), 1), rng.normal(size=40)
        config = rf.ForestConfig(max_depth=6, max_features=3)
        got, expected = SplitMix64(17), SplitMix64(17)
        assert rf.fit_tree(x, y, config, got).tobytes() == \
            per_tree_fit_tree(x, y, config, expected).tobytes()
        assert got.next_u64() == expected.next_u64()

    def test_best_split_equals_per_node_oracle(self):
        rng = np.random.default_rng(606)
        for case in range(500):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            x = rng.integers(0, 4, size=(n, d)).astype(float) if case % 2 else rng.normal(size=(n, d))
            y = rng.normal(size=n)
            features = [int(f) for f in rng.permutation(d)[: int(rng.integers(1, d + 1))]]
            leaf = int(rng.integers(1, 4))
            assert rf.best_split(x, y, features, leaf) == per_node_best_split(x, y, features, leaf)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6),
           shapes=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 8), st.integers(1, 4),
                                     st.integers(0, 6), st.integers(1, 3), st.booleans()),
                           min_size=1, max_size=6),
           seed=st.integers(0, 2**32))
    def test_random_shapes_equal_per_tree_oracle(self, d, shapes, seed):
        rng = np.random.default_rng(seed)
        parts, configs = [], []  # one source: each job's rows are a part of it
        for n, depth, leaf, features, trees, ties in shapes:
            x = rng.integers(0, 3, size=(n, d)).astype(float) if ties else rng.normal(size=(n, d))
            configs.append(rf.ForestConfig(n_trees=trees, max_depth=depth,
                                           min_samples_leaf=min(leaf, n),
                                           max_features=min(features, d) or None,
                                           seed=int(rng.integers(2**63))))
            parts.append((x, np.round(rng.normal(size=n), 2)))
        x, y = (np.concatenate(column) for column in zip(*parts))
        ends = np.cumsum([len(part_y) for _, part_y in parts])
        jobs = [rf.forest_job(x, y, config, np.arange(end - len(part_y), end))
                for config, (_, part_y), end in zip(configs, parts, ends)]
        with np.errstate(invalid="ignore"):  # the oracle's empty children
            for job, forest in zip(jobs, rf.fit_forests(x, y, jobs)):
                assert tree_bytes(forest.trees) == tree_bytes(expected_trees(x, y, job))

    def test_midpoint_that_overflows_sends_every_row_left(self):
        x = np.array([[1e308], [1.5e308], [1.5e308], [1e308], [-3.0]])
        y = np.array([0.0, 5.0, 5.0, 1.0, 2.0])
        config = rf.ForestConfig(n_trees=3, max_depth=3, seed=4)
        both_x, both_y = np.concatenate([x, x[::-1]]), np.concatenate([y, y])
        forests = list(rf.fit_forests(both_x, both_y, [
            rf.forest_job(both_x, both_y, config, np.arange(5)),
            rf.forest_job(both_x, both_y, config, np.arange(5, 10))]))
        with np.errstate(invalid="ignore"):  # the oracle's empty children
            for forest, xs in zip(forests, (x, x[::-1])):
                assert tree_bytes(forest.trees) == tree_bytes(per_tree_fit_forest(xs, y, config))
        assert any(np.isinf(tree[:, rf.THRESHOLD]).any() for tree in forests[0].trees)

    def test_forest_job_checks_as_fit_forest_did(self):
        x, y = np.zeros((4, 2)), np.zeros(4)
        with pytest.raises(EmptyData, match="empty data"):
            rf.forest_job(x, y, rf.ForestConfig(), np.array([], dtype=int))
        with pytest.raises(DimensionMismatch):
            rf.forest_job(x, np.zeros(3), rf.ForestConfig())
        with pytest.raises(EmptyData, match="min_samples_leaf"):
            rf.forest_job(x, y, rf.ForestConfig(min_samples_leaf=3), np.array([0, 1]))
        with pytest.raises(InvalidConfig, match="exceeds feature dim"):
            rf.forest_job(x, y, rf.ForestConfig(max_features=3))


# SHA-256 of the forest path's outputs, recorded before forests grew in
# lockstep; any change to how forests grow must keep these bytes.
GOLDEN = {
    "report.csv": "4b2195d81a903e0f1cec2974fcf0d960b84b31c14896c749e07442252da1262b",
    "table2_log_h50.md": "143332a5d19ff34043fb964e01f05c963f2b128adcf1147960384e1971bb33f3",
    "model.emrf": "c7540c865d3f8721150ed63e71ba78f25ce0da6fa69841d9b6e9e662f7bd29a5",
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def two_cell_forest_grid(tmp_path):
    grid = write_grid(tmp_path)
    spec = json.loads(grid.read_text(encoding="utf-8"))
    spec["forest"]["min_samples_leaf"] = [1, 2]
    grid.write_text(json.dumps(spec), encoding="utf-8")
    return grid


class TestGoldenDigests:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evaluate_st_rf(self, tmp_path, capsys, two_cell_forest_grid):
        out = tmp_path / "ev"
        assert cli.main(["evaluate", "--data", str(write_dataset(tmp_path)), "--subset", "2",
                         "--no-density", "--models", "st-rf", "--seeds", "1,2", "--folds", "3",
                         "--inner-folds", "3", "--grid", str(two_cell_forest_grid),
                         "--out", str(out)]) == 0
        for name in ("report.csv", "table2_log_h50.md"):
            assert digest(out / name) == GOLDEN[name], name

    def test_train_st_rf(self, tmp_path, capsys, two_cell_forest_grid):
        out = tmp_path / "tr"
        assert cli.main(["train", "--data", str(write_dataset(tmp_path)), "--subset", "2",
                         "--no-density", "--family", "st-rf", "--channel", "det_velocity:calc",
                         "--grid", str(two_cell_forest_grid), "--folds", "3", "--seed", "7",
                         "--out", str(out)]) == 0
        assert digest(out / "model.emrf") == GOLDEN["model.emrf"]


class TestForestFailureOrder:
    """fit_all checks every forest job of a fit before any forest grows, so
    the first failing fit in plan order raises, and within one fit's
    selection the first failing (cell, inner fold) in cv_select's order."""

    @pytest.fixture
    def units(self, tmp_path):
        """(schema, design, channels): the experimental h50 channel of the design."""
        data = ds.load_records(write_dataset(tmp_path), ds.default_registry(), subset_id=2)
        schema, design = ds.build_design(data, 2, False)[1:]
        position = design.registry.index_of(design.registry.lookup("impact_h50", "exp"))
        return schema, design, range(position, position + 1)

    @staticmethod
    def fit(design, channels, materials):
        """A fit of the channels' rows of their first materials."""
        in_channel = design.channel_rows(channels)
        mats = sorted({m for m, keep in zip(design.material_ids, in_channel) if keep})
        rows = rows_for(design.material_ids, set(mats[:materials])) & in_channel
        return evaluation.Fit("st-rf", channels, rows, np.zeros_like(rows), 5, 6)

    @staticmethod
    def grids(leaf, max_features):
        return evaluation.Grids(forest=evaluation.ForestGridSpec(
            n_trees=(2,), max_depth=(3,), min_samples_leaf=leaf, max_features=max_features))

    @pytest.mark.parametrize("leaf,max_features,error", [
        ((1, 5), (None, 1000), InvalidConfig),  # cell 1, (1, 1000), fails first
        ((5, 1), (None, 1000), EmptyData),      # cell 0, (5, None), fails first
    ])
    def test_first_failing_cell_in_cv_order(self, units, leaf, max_features, error):
        schema, design, channels = units
        with pytest.raises(error):
            evaluation.fit_all(design, [self.fit(design, channels, 6)], schema,
                               self.grids(leaf, max_features), 3)

    def test_first_failing_fit_in_plan_order(self, units):
        schema, design, channels = units
        grids = self.grids((1, 3), (None,))  # an inner split of 4 materials holds 2 or 3
        good, tiny, too_few = (self.fit(design, channels, materials) for materials in (6, 4, 2))
        assert len(evaluation.fit_all(design, [good], schema, grids, 3)) == 1
        codes = {}
        for name, fits in (("tiny-first", [good, tiny, too_few]),
                           ("too-few-first", [good, too_few, tiny])):
            with pytest.raises(ToolkitError) as raised:
                evaluation.fit_all(design, fits, schema, grids, 3)
            codes[name] = (type(raised.value), str(raised.value))
        assert codes == {"tiny-first": (EmptyData, "fewer samples than min_samples_leaf"),
                         "too-few-first": (TooFewMaterials, "2 materials < 3 folds")}


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
