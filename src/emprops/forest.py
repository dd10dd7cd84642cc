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
prediction and the model file all use this layout.

fit_forests grows every tree of many forests on rows of one (x, y) at
once, since trees are independent: each keeps its own preorder stack and
splitmix64 stream, and on each tick every tree that has work makes its
next split attempt. One vectorized block of draws gives all the
attempts' feature subsets, and one split search scores them over padded
(nodes, features, rows) blocks: it sorts each node's candidate columns,
scores every (feature, threshold) candidate from cumulative sums, then
applies the tie rule to the running maxima of those scores in scan
order. The padding sorts last and adds only zeros to the sums a
candidate reads, and each node's mean and SSE come from ndarray.sum over
its own rows, so every tree has the bits it gets alone. For the same
reason fit_forests splits its forests across the CPUs this process may
use (workers.run), each process growing its part so. fit_forest,
fit_tree and best_split are the one-forest, one-tree and one-node cases
of this path."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from emprops import workers
from emprops.errors import DimensionMismatch, EmptyData, InvalidConfig, check_number
from emprops.rng import SplitMix64, derive_seed, next_blocks, partial_shuffle

FEATURE, THRESHOLD, VALUE, LEFT, RIGHT = range(5)  # tree array columns
WINDOW_ROWS = 1 << 13  # bootstrap rows of the trees fit_forests grows at once
BLOCK_CELLS = 1 << 12  # (node, feature, row) cells of one padded split-search block
PAD_ROWS = 64  # padding rows a block may hold beyond a quarter of its rows


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 1
    max_features: int | None = None  # None resolves to ceil(d / 3)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_trees", "max_depth", "min_samples_leaf", "max_features"):
            self.check(name, getattr(self, name))

    @staticmethod
    def check(name: str, value) -> None:
        """The rule of one setting on its own: a positive integer, or None
        for max_features."""
        if not (name == "max_features" and value is None):
            check_number(name, value, integer=True, positive=True)

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


@dataclass(frozen=True)
class ForestJob:
    """One forest to fit: config on the given rows (indices, in order) of
    the x and y that fit_forests grows it on. forest_job builds it."""

    rows: np.ndarray
    config: ForestConfig
    max_features: int  # config.max_features resolved on x's columns


def forest_job(x: np.ndarray, y: np.ndarray, config: ForestConfig,
               rows: np.ndarray | None = None) -> ForestJob:
    """A checked job on the rows of x and y (all rows when None), so that
    a forest fails where it is planned, not while forests grow. x must be
    finite (see fit_forests); that is not checked here."""
    rows = np.arange(len(y)) if rows is None else np.asarray(rows, dtype=np.intp)
    if len(rows) == 0 or x.shape[0] == 0:
        raise EmptyData("cannot fit a forest on empty data")
    if x.shape[0] != len(y):
        raise DimensionMismatch(f"{x.shape[0]} feature rows vs {len(y)} targets")
    if len(rows) < config.min_samples_leaf:
        raise EmptyData("fewer samples than min_samples_leaf")
    return ForestJob(rows, config, config.resolve_max_features(x.shape[1]))


def fit_forest(x: np.ndarray, y: np.ndarray, config: ForestConfig) -> RandomForest:
    """n_trees trees, each on a with-replacement bootstrap of size n drawn
    from splitmix64(seed xor tree index), with per-split feature subsets:
    the one-job case of fit_forests."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    (forest,) = fit_forests(x, y, [forest_job(x, y, config)])
    return forest


def fit_forests(x: np.ndarray, y: np.ndarray, jobs: list[ForestJob]) -> list[RandomForest]:
    """The forests of the jobs on the rows of x (float64, finite: the
    padding of the split search sorts after every finite value, not after
    NaN) and y, in order, each bit for bit the forest its job gets alone.
    Tree t of a job draws a with-replacement bootstrap of its n rows, then
    its split attempts' feature subsets, from splitmix64(derive_seed(seed, t)).

    workers.run splits the jobs across the CPUs this process may use. Each
    process pads x and y once and grows its part in windows of whole jobs
    holding at most WINDOW_ROWS bootstrap rows (a larger job fills a
    window alone); every tree of a window grows in lockstep.
    """
    return workers.run(lambda part: _fit_part(x, y, part), jobs)


def _fit_part(x: np.ndarray, y: np.ndarray, jobs: list[ForestJob]) -> list[RandomForest]:
    """fit_forests of a part of the jobs, in this process."""
    if not jobs:
        return []
    x, y = _pad(x, y)
    forests: list[RandomForest] = []
    window: list[ForestJob] = []
    rows = 0
    for job in jobs:
        size = len(job.rows) * job.config.n_trees
        if window and rows + size > WINDOW_ROWS:
            forests += _fit_window(x, y, window)
            window, rows = [], 0
        window.append(job)
        rows += size
    if window:
        forests += _fit_window(x, y, window)
    return forests


def _pad(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y with the padding row of the split search appended: +inf
    features, target 0."""
    return np.concatenate([x, np.full((1, x.shape[1]), np.inf)]), np.append(y, 0.0)


def _fit_window(x: np.ndarray, y: np.ndarray, jobs: list[ForestJob]) -> list[RandomForest]:
    """The forests of the jobs, every tree grown in one _Lockstep on x and
    y padded by _pad."""
    samples, sizes, configs, k, states = [], [], [], [], []
    for job in jobs:
        n, n_trees = len(job.rows), job.config.n_trees
        seeds = np.array([derive_seed(job.config.seed, t) for t in range(n_trees)],
                         dtype=np.uint64)
        picks = (next_blocks(seeds, n) % np.uint64(n)).astype(np.intp)  # advances seeds
        samples.append(job.rows[picks].ravel())
        sizes += [n] * n_trees
        configs += [job.config] * n_trees
        k += [job.max_features] * n_trees
        states.append(seeds)
    grower = _Lockstep(x, y, np.concatenate(samples), sizes, configs, k, np.concatenate(states))
    del samples  # the grower holds what it needs
    trees = grower.grow()
    forests, first = [], 0
    for job in jobs:
        forests.append(RandomForest(config=job.config, n_features=x.shape[1],
                                    trees=trees[first:first + job.config.n_trees]))
        first += job.config.n_trees
    return forests


def fit_tree(x: np.ndarray, y: np.ndarray, config: ForestConfig,
             feature_rng: SplitMix64 | None = None) -> np.ndarray:
    """Grow one tree on the given sample (no bootstrap here) as node rows:
    the one-tree case of fit_forests' lockstep growth.

    feature_rng enables per-split feature subsampling and advances as the
    draws consume it; None considers all features at every split, which is
    the configuration the brute-force split oracle checks against.
    """
    n_features = x.shape[1]
    k = config.resolve_max_features(n_features)
    if feature_rng is None:
        k = n_features
    states = np.array([feature_rng.state if feature_rng else 0], dtype=np.uint64)
    (tree,) = _Lockstep(*_pad(x, y), np.arange(len(y)), [len(y)], [config], [k], states).grow()
    if feature_rng is not None:
        feature_rng.state = int(states[0])
    return tree


def best_split(x: np.ndarray, y: np.ndarray, feature_indices: list[int],
               min_samples_leaf: int = 1) -> tuple[int, float, float] | None:
    """Best (feature, threshold, sse_reduction) over the candidate features:
    the one-node case of _split_search.

    Returns None when no split reduces the SSE or every candidate violates
    min_samples_leaf.
    """
    n = len(y)
    if n < 2:
        return None
    features = sorted(feature_indices)
    parent_sse = _sse(float(y.sum()), float((y * y).sum()), n)
    found, column, threshold, score = _split_search(
        x[:, features].T[None], y[None], np.array([n]), np.array([parent_sse]),
        np.array([min_samples_leaf]))
    if not found[0]:
        return None
    return features[column[0]], float(threshold[0]), float(score[0])


class _Lockstep:
    """Trees growing in lockstep, each bit for bit as it grows alone.

    The last row of x and y is the padding row of _pad, which no tree
    samples. Tree t grows on sizes[t] rows: the next segment of sample,
    which holds every tree's rows one after another. It grows by
    configs[t]. A split attempt considers k[t] of the d columns of x: a
    subset drawn from the splitmix64 stream whose state is states[t]
    (uint64, advanced in place) when k[t] is fewer, else all of them.

    Each tree keeps its own preorder stack. A node's rows are a segment of
    perm, which a split partitions stably into its children's segments,
    left first. On each tick every tree pops nodes up to its next split
    attempt, summing each node's targets; the attempts' feature subsets
    are drawn together, and their splits are found by one _split_search
    per chunk of attempts of similar size.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, sample: np.ndarray, sizes: list[int],
                 configs: list[ForestConfig], k: list[int], states: np.ndarray) -> None:
        self.x, self.y = x, y
        self.states, self.k = states, k
        self.perm = np.append(sample, len(self.y) - 1)  # partitioned in place, padding last
        self.pad = len(sample)  # the position of the padding row in perm
        ends = np.cumsum(sizes).tolist()
        # stack entries: (segment start, segment end, depth, parent index, link column)
        self.stacks = [[(end - size, end, 0, -1, LEFT)] for end, size in zip(ends, sizes)]
        self.counts = [0] * len(sizes)  # nodes so far, per tree
        self.max_depth = [config.max_depth for config in configs]
        self.split_rows = [2 * config.min_samples_leaf for config in configs]
        self.min_leaf = np.array([config.min_samples_leaf for config in configs])
        self.nodes: list[tuple] = []  # (tree, index, parent, link, value) arrays per tick
        self.splits: list[tuple] = []  # (tree, index, feature, threshold) arrays per chunk

    def grow(self) -> list[np.ndarray]:
        active = range(len(self.stacks))
        # an empty child's value is NaN, and padding scores no split
        with np.errstate(divide="ignore", invalid="ignore"):
            while active:
                active = self._tick(active)
        offsets = np.concatenate(([0], np.cumsum(self.counts)))
        out = np.zeros((offsets[-1], 5))
        out[:, [FEATURE, LEFT, RIGHT]] = -1.0
        tree, index, parent, link, value = (np.concatenate(column) for column in zip(*self.nodes))
        self.nodes.clear()
        out[offsets[tree] + index, VALUE] = value
        child = parent >= 0
        out[offsets[tree[child]] + parent[child], link[child]] = index[child]
        if self.splits:
            tree, index, feature, threshold = (np.concatenate(column)
                                               for column in zip(*self.splits))
            out[offsets[tree] + index, FEATURE] = feature
            out[offsets[tree] + index, THRESHOLD] = threshold
        return np.split(out, offsets[1:-1])

    def _tick(self, active) -> list[int]:
        """Pop each active tree's nodes up to its next split attempt and
        make the attempts, by width in ascending size; the trees that made
        one stay active."""
        popped = []
        attempts: dict[int, list[tuple]] = {}  # width -> [(n, tree, index, start, depth, sse)]
        y, perm = self.y, self.perm
        for t in active:
            stack = self.stacks[t]
            while stack:
                start, end, depth, parent, link = stack.pop()
                index = self.counts[t]
                self.counts[t] = index + 1
                values = y[perm[start:end]]
                total = values.sum()
                popped.append((t, index, parent, link, total / (end - start)))
                if depth < self.max_depth[t] and end - start >= self.split_rows[t]:
                    attempts.setdefault(self.k[t], []).append(
                        (end - start, t, index, start, depth,
                         _sse(total, (values * values).sum(), end - start)))
                    break
        if popped:
            tree, index, parent, link, value = zip(*popped)
            self.nodes.append((np.array(tree, dtype=np.int32), np.array(index, dtype=np.int32),
                               np.array(parent, dtype=np.int32), np.array(link, dtype=np.int8),
                               np.array(value)))
        for width, group in sorted(attempts.items()):
            group.sort()
            self._attempt(width, *(np.array(column) for column in zip(*group)))
        return [attempt[1] for group in attempts.values() for attempt in group]

    def _attempt(self, width, n, tree, index, start, depth, parent_sse) -> None:
        """Split attempts that consider `width` features each, in ascending
        size: draw their subsets, then search them in chunks, each closed
        before its block would exceed BLOCK_CELLS or its padding PAD_ROWS
        and a quarter of its rows."""
        d = self.x.shape[1]
        if width < d:
            streams = self.states[tree]
            offsets = next_blocks(streams, width) % np.arange(d, d - width, -1, dtype=np.uint64)
            self.states[tree] = streams
            features = np.array([sorted(partial_shuffle(d, row)) for row in offsets.tolist()])
        else:
            features = np.broadcast_to(np.arange(width), (len(tree), width))
        sizes = n.tolist()
        first, rows = 0, 0
        for last, size in enumerate(sizes, 1):
            rows += size
            following = sizes[last] if last < len(sizes) else 0
            padded = (last + 1 - first) * following
            if (not following or padded * width > BLOCK_CELLS
                    or padded - rows - following > max(PAD_ROWS, (rows + following) / 4)):
                chunk = slice(first, last)
                self._split(tree[chunk], index[chunk], start[chunk], n[chunk], depth[chunk],
                            features[chunk], parent_sse[chunk])
                first, rows = last, 0

    def _split(self, tree, index, start, n, depth, features, parent_sse) -> None:
        """Search one chunk of attempts, in ascending size, over a padded
        block, then partition each node's segment stably and push the
        children of the nodes that split."""
        span = np.arange(n[-1])
        at = np.where(span < n[:, None], start[:, None] + span, self.pad)  # padding past n
        rows = self.perm[at]
        d = self.x.shape[1]
        found, column, threshold, _ = _split_search(
            self.x.take(rows[:, None, :] * d + features[:, :, None]), self.y[rows], n, parent_sse,
            self.min_leaf[tree])
        if not found.any():
            return
        feature = features[np.arange(len(n)), column]
        # Right of an infinite threshold goes no row, so a node that does
        # not split keeps its rows in place, as does every node when a
        # midpoint overflows. Padding goes right only past finite
        # thresholds; either way it stays last and writes the padding row back.
        goes_right = self.x[rows, feature[:, None]] > threshold[:, None]
        self.perm[at] = rows.take(np.argsort(goes_right, axis=1, kind="stable")
                                  + (np.arange(len(n)) * len(span))[:, None])
        n_left = np.minimum(np.count_nonzero(~goes_right, axis=1), n)
        self.splits.append((tree, index, np.where(found, feature, -1),
                            np.where(found, threshold, 0.0)))  # a leaf's own values
        for t, i, s, e, left, child_depth, split in zip(
                tree.tolist(), index.tolist(), start.tolist(), (start + n).tolist(),
                n_left.tolist(), (depth + 1).tolist(), found.tolist()):
            if split:
                self.stacks[t].append((s + left, e, child_depth, i, RIGHT))
                self.stacks[t].append((s, s + left, child_depth, i, LEFT))


def _split_search(block: np.ndarray, targets: np.ndarray, n: np.ndarray,
                  parent_sse: np.ndarray, min_leaf: np.ndarray):
    """Best split of each node of a padded block: block (nodes, k, L) holds
    each node's candidate columns in ascending feature order, +inf after
    its n rows, and targets (nodes, L) its targets, 0 after.

    Thresholds are midpoints between consecutive distinct sorted values.
    Every (feature, threshold) candidate is scored from cumulative sums in
    one pass. Candidates are scanned in ascending (feature, threshold)
    order and a later candidate must beat the incumbent by more than a
    noise margin, so mathematically tied splits (same partition reachable
    through different features) resolve to the lowest feature index, then
    the lowest threshold, regardless of floating-point summation order.
    The padding sorts after every row and adds only zeros to the sums, so
    each node gets the bits it gets alone.

    Returns (found, column, threshold, score) arrays, one entry per node; a
    node has no split when none reduces the SSE or every candidate violates
    min_leaf, and then column 0, threshold +inf and score 0.
    """
    m, width, size = block.shape
    order = np.argsort(block, axis=2, kind="stable")
    sorted_y = targets.take(order + (np.arange(m) * size)[:, None, None])
    order += (np.arange(m * width) * size).reshape(m, width, 1)
    sorted_x = block.take(order)
    del order  # the blocks are large: free and reuse them as soon as done
    cum = np.cumsum(sorted_y, axis=2)
    sorted_y *= sorted_y
    cum_sq = np.cumsum(sorted_y, axis=2)
    del sorted_y
    # the sums of all n rows: x + 0.0 is x except for -0.0, which no
    # difference below tells from 0.0
    total, total_sq = cum[:, :, -1:], cum_sq[:, :, -1:]
    margin = 1e-12 * np.maximum(parent_sse, 1.0)
    left_n = np.arange(1, size)
    left, left_sq = cum[:, :, :-1], cum_sq[:, :, :-1]
    # parent_sse - _sse(left, ...) - _sse(total - left, ...), one op at a time
    reduction = left * left
    reduction /= left_n
    np.subtract(left_sq, reduction, out=reduction)
    np.subtract(parent_sse[:, None, None], reduction, out=reduction)
    right = total - left
    right *= right
    right /= n[:, None, None] - left_n
    right_sq = total_sq - left_sq
    del cum, cum_sq, left, left_sq
    right_sq -= right
    reduction -= right_sq
    del right, right_sq
    # Position i splits off i + 1 samples on the left, n - i - 1 on the
    # right; no padding position is allowed.
    position = np.arange(size - 1)
    allowed = (position >= min_leaf[:, None] - 1) & (position < (n - min_leaf)[:, None])
    usable = sorted_x[:, :, :-1] != sorted_x[:, :, 1:]
    usable &= reduction > margin[:, None, None]
    usable &= allowed[:, None, :]
    # Score of candidate c = feature position * (size - 1) + split position,
    # in the order a sequential scan meets them.
    scores = np.where(usable, reduction, -np.inf).reshape(m, -1)
    del usable, reduction

    # The scan's incumbent changes when a candidate beats it by more than
    # the margin. Such a candidate beats every earlier score too, so only
    # strict running maxima need the sequential rule.
    records = np.empty(scores.shape, dtype=bool)
    records[:, 0] = scores[:, 0] > -np.inf
    np.greater(scores[:, 1:], np.maximum.accumulate(scores, axis=1)[:, :-1], out=records[:, 1:])
    node, candidate = np.nonzero(records)
    best, best_score, margins = [-1] * m, [0.0] * m, margin.tolist()
    for r, c, score in zip(node.tolist(), candidate.tolist(), scores[node, candidate].tolist()):
        if best[r] < 0 or score > best_score[r] + margins[r]:
            best[r], best_score[r] = c, score
    column, threshold = [0] * m, [math.inf] * m
    for r, c in enumerate(best):
        if c >= 0:
            column[r], i = divmod(c, size - 1)
            threshold[r] = (sorted_x.item(r, column[r], i) + sorted_x.item(r, column[r], i + 1)) / 2.0
    return np.array(best) >= 0, np.array(column), np.array(threshold), np.array(best_score)


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
