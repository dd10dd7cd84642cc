"""Single-task random forest regressor.

Bagged CART trees with variance-reduction splits: candidate thresholds
are midpoints between consecutive distinct sorted feature values, the
winner maximizes the total squared-error reduction, and ties break to the
lowest feature index then the lowest threshold. Bootstraps and per-split
feature subsets are drawn from splitmix64 streams, so a seed pins the
whole forest.

A tree is a float64 array of node rows ``[feature, threshold, value,
left, right]`` in preorder, root first. Leaves have feature and links -1;
a split node sends x left when ``x[feature] <= threshold``. Fitting,
prediction and the model file all use this layout. The split search sorts
a node's candidate columns together, scores every (feature, threshold)
candidate from cumulative sums in one pass, then applies the tie rule to
the running maxima of those scores in scan order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from emprops.errors import DimensionMismatch, EmptyData, InvalidConfig
from emprops.rng import SplitMix64, derive_seed

FEATURE, THRESHOLD, VALUE, LEFT, RIGHT = range(5)  # tree array columns


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 1
    max_features: int | None = None  # None resolves to ceil(d / 3)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise InvalidConfig("n_trees, max_depth, min_samples_leaf must be positive")
        if self.max_features is not None and self.max_features < 1:
            raise InvalidConfig("max_features must be positive")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return max(1, math.ceil(n_features / 3))
        if self.max_features > n_features:
            raise InvalidConfig(
                f"max_features {self.max_features} exceeds feature dim {n_features}"
            )
        return self.max_features


@dataclass
class RandomForest:
    config: ForestConfig
    trees: list[np.ndarray]  # one (nodes, 5) array per tree, see the module docstring
    n_features: int


def _sse(total, total_sq, count):
    return total_sq - total * total / count


def best_split(x: np.ndarray, y: np.ndarray, feature_indices: list[int],
               min_samples_leaf: int = 1) -> tuple[int, float, float] | None:
    """Best (feature, threshold, sse_reduction) over the candidate features.

    Thresholds are midpoints between consecutive distinct sorted values.
    Candidates are scanned in ascending (feature, threshold) order and a
    later candidate must beat the incumbent by more than a noise margin,
    so mathematically tied splits (same partition reachable through
    different features) resolve to the lowest feature index, then the
    lowest threshold, regardless of floating-point summation order.
    Returns None when no split reduces the SSE or every candidate violates
    min_samples_leaf.
    """
    n = len(y)
    if n < 2:
        return None
    parent_sse = _sse(float(y.sum()), float((y * y).sum()), n)
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
    reduction = (parent_sse - _sse(left, left_sq, left_n)
                 - _sse(cum[-1] - left, cum_sq[-1] - left_sq, n - left_n))
    usable = (sorted_x[:-1] != sorted_x[1:]) & (reduction > margin)
    # Row i splits off i + 1 samples on the left, n - i - 1 on the right.
    usable[:min_samples_leaf - 1] = False
    usable[max(n - min_samples_leaf, 0):] = False
    # Score of candidate c = feature position * (n - 1) + split position,
    # in the order a sequential scan meets them.
    scores = np.where(usable, reduction, -np.inf).ravel(order="F")

    # The scan's incumbent changes when a candidate beats it by more than
    # the margin. Such a candidate beats every earlier score too, so only
    # strict running maxima need the sequential rule.
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


def fit_tree(x: np.ndarray, y: np.ndarray, config: ForestConfig,
             feature_rng: SplitMix64 | None = None) -> np.ndarray:
    """Grow one tree on the given sample (no bootstrap here) as node rows.

    feature_rng enables per-split feature subsampling; None considers all
    features at every split, which is the configuration the brute-force
    split oracle checks against.
    """
    n_features = x.shape[1]
    max_features = config.resolve_max_features(n_features)
    nodes: list[list[float]] = []
    # Depth-first in preorder (left subtree before right), so feature
    # draws happen in node order and each node's row index is its preorder
    # position. Entries: (sample rows, depth, parent row, link column).
    stack = [(np.arange(len(y)), 0, -1, LEFT)]
    while stack:
        rows, depth, parent, link = stack.pop()
        index = len(nodes)
        if parent >= 0:
            nodes[parent][link] = float(index)
        values = y[rows]
        # sum / count is values.mean() bit for bit, without its call overhead
        node = [-1.0, 0.0, float(values.sum() / len(values)), -1.0, -1.0]
        nodes.append(node)
        if depth >= config.max_depth or len(rows) < 2 * config.min_samples_leaf:
            continue
        if feature_rng is None or max_features >= n_features:
            candidates = list(range(n_features))
        else:
            candidates = feature_rng.sample_indices(n_features, max_features)
        split = best_split(x[rows], values, candidates, config.min_samples_leaf)
        if split is None:
            continue
        feature, threshold, _ = split
        mask = x[rows, feature] <= threshold
        node[FEATURE] = float(feature)
        node[THRESHOLD] = threshold
        stack.append((rows[~mask], depth + 1, index, RIGHT))
        stack.append((rows[mask], depth + 1, index, LEFT))
    return np.array(nodes, dtype=np.float64)


def fit_forest(x: np.ndarray, y: np.ndarray, config: ForestConfig) -> RandomForest:
    """n_trees trees, each on a with-replacement bootstrap of size n drawn
    from splitmix64(seed xor tree index), with per-split feature subsets."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0 or x.shape[0] == 0:
        raise EmptyData("cannot fit a forest on empty data")
    if x.shape[0] != len(y):
        raise DimensionMismatch(f"{x.shape[0]} feature rows vs {len(y)} targets")
    if len(y) < config.min_samples_leaf:
        raise EmptyData("fewer samples than min_samples_leaf")

    n = len(y)
    trees = []
    for tree_index in range(config.n_trees):
        rng = SplitMix64(derive_seed(config.seed, tree_index))
        rows = (rng.next_block(n) % np.uint64(n)).astype(np.intp)
        trees.append(fit_tree(x[rows], y[rows], config, feature_rng=rng))
    return RandomForest(config=config, trees=trees, n_features=x.shape[1])


def predict_forest(forest: RandomForest, x: np.ndarray) -> np.ndarray:
    """Unweighted mean of per-tree predictions; accepts one row or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != forest.n_features:
        raise DimensionMismatch(
            f"feature dim {x.shape[1]} != fitted dim {forest.n_features}"
        )
    out = np.zeros(x.shape[0])
    for tree in forest.trees:
        out += _predict_tree(tree, x)
    out /= len(forest.trees)
    return out[0] if single else out


def _predict_tree(tree: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Walk every row down one tree, one level per step."""
    feature = tree[:, FEATURE].astype(np.intp)
    children = tree[:, LEFT:].astype(np.intp)
    node = np.zeros(len(x), dtype=np.intp)
    active = np.arange(len(x))
    while active.size:
        at = node[active]
        inner = feature[at] >= 0
        active, at = active[inner], at[inner]
        goes_left = x[active, feature[at]] <= tree[at, THRESHOLD]
        node[active] = np.where(goes_left, children[at, 0], children[at, 1])
    return tree[node, VALUE]
