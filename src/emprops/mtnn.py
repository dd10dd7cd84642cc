"""Selector-vector multi-task dense network.

A single-output feed-forward net with rectified-linear hidden layers; the
one-hot selector saying which property channel to predict is concatenated
to the input of one hidden layer (a hyperparameter). With selector_dim=0
this is the plain single-task network. Gradients are analytic
backpropagation; training is Adam with early stopping on validation MSE.
Everything seeded is driven by splitmix64, so runs are bit-reproducible.

fit_network is the one path that fits a network (inner CV, the outer
refit and the final model alike), and grid_search selects a cell through
the shared inner-CV loop dataset.cv_select.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from emprops import dataset as ds
from emprops.errors import DimensionMismatch, InvalidConfig, NonFiniteLoss, check_number
from emprops.rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class MTNetConfig:
    input_dim: int
    selector_dim: int
    hidden_sizes: tuple[int, ...]
    selector_layer_index: int  # 1-based hidden layer fed by the selector
    l2_penalty: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("input_dim", "selector_dim", "hidden_sizes", "selector_layer_index",
                     "l2_penalty"):
            self.check(name, getattr(self, name))
        if self.selector_dim > 0 and not (1 <= self.selector_layer_index <= len(self.hidden_sizes)):
            raise InvalidConfig(
                f"selector_layer_index {self.selector_layer_index} outside "
                f"1..{len(self.hidden_sizes)}"
            )

    @staticmethod
    def check(name: str, value) -> None:
        """The rule of one setting on its own; hidden_sizes is a non-empty
        tuple of positive integers."""
        if name != "hidden_sizes":
            check_number(name, value, integer=name != "l2_penalty", positive=name == "input_dim")
        elif not isinstance(value, tuple) or not value:
            raise InvalidConfig(f"hidden_sizes must be a non-empty list of positive integers, "
                                f"not {value!r}")
        else:
            for size in value:
                check_number("hidden_sizes entry", size, integer=True, positive=True)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 400
    patience: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("learning_rate", "batch_size", "max_epochs", "patience"):
            self.check(name, getattr(self, name))
        if self.patience > self.max_epochs:
            raise InvalidConfig("need patience <= max_epochs")

    @staticmethod
    def check(name: str, value) -> None:
        """The rule of one setting on its own."""
        check_number(name, value, integer=name != "learning_rate", positive=name != "patience")


@dataclass
class MTNet:
    """params, [W1 row-major, b1, W2, b2, ...], is the one parameter store
    (and the EMMT payload); weights and biases are per-layer views of it."""

    config: MTNetConfig
    params: np.ndarray

    def __post_init__(self) -> None:
        self.weights, self.biases = layer_views(self.config, self.params)


def layer_shapes(config: MTNetConfig) -> list[tuple[int, int]]:
    """(fan_out, fan_in) per layer; the selector widens one hidden fan-in."""
    shapes = []
    prev = config.input_dim
    for i, width in enumerate(config.hidden_sizes, start=1):
        fan_in = prev + (config.selector_dim if i == config.selector_layer_index
                         and config.selector_dim > 0 else 0)
        shapes.append((width, fan_in))
        prev = width
    shapes.append((1, prev))
    return shapes


def parameter_count(config: MTNetConfig) -> int:
    return sum(fan_out * (fan_in + 1) for fan_out, fan_in in layer_shapes(config))


def layer_views(config: MTNetConfig, vector: np.ndarray,
                ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (fan_out, fan_in) weight and (fan_out,) bias views of a
    flat parameter-layout vector: the parameters or their gradient."""
    weights, biases = [], []
    offset = 0
    for fan_out, fan_in in layer_shapes(config):
        weights.append(vector[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(vector[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def init_network(config: MTNetConfig) -> MTNet:
    """Glorot-uniform weights from one block of splitmix64(seed) draws, one
    53-bit uniform per weight in parameter order; zero biases."""
    net = MTNet(config=config, params=np.zeros(parameter_count(config)))
    draws = SplitMix64(config.seed).next_block(sum(w.size for w in net.weights))
    offset = 0
    for w in net.weights:
        fan_out, fan_in = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        uniform = (draws[offset : offset + w.size] >> 11) * 2.0 ** -53
        w.reshape(-1)[:] = (2.0 * uniform - 1.0) * limit
        offset += w.size
    return net


def _layer_inputs(net: MTNet, features: np.ndarray, selector: np.ndarray | None):
    """Forward pass keeping per-layer inputs for backprop."""
    config = net.config
    if features.ndim == 1:
        features = features[None, :]
    if features.shape[1] != config.input_dim:
        raise DimensionMismatch(
            f"feature dim {features.shape[1]} != input_dim {config.input_dim}"
        )
    if config.selector_dim == 0:
        if selector is not None:
            raise DimensionMismatch("selector given but selector_dim is 0")
    else:
        if selector is None:
            raise DimensionMismatch("selector required but missing")
        if selector.ndim == 1:
            selector = selector[None, :]
        if selector.shape[1] != config.selector_dim:
            raise DimensionMismatch(
                f"selector dim {selector.shape[1]} != selector_dim {config.selector_dim}"
            )
        if selector.shape[0] != features.shape[0]:
            raise DimensionMismatch("feature/selector batch sizes differ")

    inputs: list[np.ndarray] = []
    activation = features
    n_hidden = len(config.hidden_sizes)
    for i in range(n_hidden):
        layer_in = activation
        if config.selector_dim > 0 and i + 1 == config.selector_layer_index:
            layer_in = np.concatenate([activation, selector], axis=1)
        inputs.append(layer_in)
        pre = layer_in @ net.weights[i].T + net.biases[i]
        activation = np.maximum(pre, 0.0)
    inputs.append(activation)
    output = activation @ net.weights[n_hidden].T + net.biases[n_hidden]
    return inputs, output[:, 0]


def forward(net: MTNet, features: np.ndarray, selector: np.ndarray | None = None) -> np.ndarray:
    """Scalar predictions (standardized target space), one per row."""
    _, out = _layer_inputs(net, features, selector)
    return out


def gradients(net: MTNet, features: np.ndarray, selector: np.ndarray | None,
              targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean-squared-error gradients plus the l2 weight penalty.

    Returns (grad, loss), grad laid out like net.params. The l2 term is
    l2_penalty * sum(w^2) over weights only, so its gradient is
    2 * l2_penalty * w; biases are not penalized.
    """
    config = net.config
    if features.ndim == 1:
        features = features[None, :]
    n = features.shape[0]
    inputs, out = _layer_inputs(net, features, selector)
    residual = out - targets
    loss = float(residual @ residual) / n

    grad = np.empty_like(net.params)
    d_weights, d_biases = layer_views(config, grad)

    delta = (2.0 / n) * residual[:, None]  # gradient at the linear output
    n_hidden = len(config.hidden_sizes)
    for layer in range(n_hidden, -1, -1):
        d_weights[layer][...] = delta.T @ inputs[layer]
        d_biases[layer][...] = delta.sum(axis=0)
        if layer == 0:
            break
        # relu gate: the layer input is the previous hidden activation
        # (selector columns are gated too, then dropped, which is harmless)
        back = (delta @ net.weights[layer]) * (inputs[layer] > 0.0)
        if config.selector_dim > 0 and layer == config.selector_layer_index - 1:
            back = back[:, : back.shape[1] - config.selector_dim]
        delta = back

    if config.l2_penalty > 0.0:
        for d_w, w in zip(d_weights, net.weights):
            loss += config.l2_penalty * float(np.sum(w * w))
            d_w += 2.0 * config.l2_penalty * w
    return grad, loss


@dataclass
class TrainResult:
    net: MTNet
    history: list[dict]
    best_epoch: int


def mse(net: MTNet, features: np.ndarray, selector: np.ndarray | None,
        targets: np.ndarray) -> float:
    residual = forward(net, features, selector) - targets
    return float(residual @ residual) / len(targets)


def train(net: MTNet, features: np.ndarray, selector: np.ndarray | None,
          targets: np.ndarray, config: TrainConfig,
          val: tuple[np.ndarray, np.ndarray | None, np.ndarray] | None = None) -> TrainResult:
    """Adam training with optional early stopping.

    With a validation triple, training stops after `patience` epochs
    without improvement and the parameters from the best validation epoch
    are returned. Without one it runs max_epochs and returns the final
    parameters. Batch order is shuffled per epoch by one splitmix64 stream
    seeded from config.seed, so identical seeds give identical histories.
    """
    if len(targets) == 0:
        raise InvalidConfig("empty training batch")
    rng = SplitMix64(config.seed)
    n = len(targets)

    params = net.params
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0

    best = params.copy()
    best_val = math.inf
    best_epoch = 0
    stale = 0
    history: list[dict] = []

    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n))
        rng.shuffle(order)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            bx = features[batch]
            bs = selector[batch] if selector is not None else None
            by = targets[batch]
            grad, loss = gradients(net, bx, bs, by)
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch}")
            step += 1
            correction1 = 1.0 - ADAM_BETA1 ** step
            correction2 = 1.0 - ADAM_BETA2 ** step
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad ** 2
            params -= config.learning_rate * (m / correction1) / (
                np.sqrt(v / correction2) + ADAM_EPSILON
            )

        train_mse = mse(net, features, selector, targets)
        if not math.isfinite(train_mse):
            raise NonFiniteLoss(f"non-finite training loss at epoch {epoch}")
        entry = {"epoch": epoch, "train_mse": train_mse}
        if val is not None:
            val_mse = mse(net, val[0], val[1], val[2])
            if not math.isfinite(val_mse):
                raise NonFiniteLoss(f"non-finite validation loss at epoch {epoch}")
            entry["val_mse"] = val_mse
            if val_mse < best_val:
                best_val = val_mse
                best = params.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
            history.append(entry)
            if stale > config.patience:
                break
        else:
            history.append(entry)

    if val is not None:
        return TrainResult(net=MTNet(net.config, best), history=history, best_epoch=best_epoch)
    return TrainResult(net=net, history=history, best_epoch=config.max_epochs)


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Enumerable axes; cells are the Cartesian product in declaration order.

    selector_layer_index accepts integers or the tokens "last" /
    "second_to_last", which resolve against each hidden_sizes value; an
    integer pairs only with the hidden_sizes values deep enough for it
    (evaluation.Grids rejects one that fits none). Cells that resolve
    identically are deduplicated, keeping the earliest.
    """

    hidden_sizes: tuple[tuple[int, ...], ...] = ((32,),)
    selector_layer_index: tuple = ("last", "second_to_last")
    learning_rate: tuple[float, ...] = (1e-3,)
    batch_size: tuple[int, ...] = (32,)
    l2_penalty: tuple[float, ...] = (0.0,)

    def cells(self, selector_dim: int) -> list[dict]:
        out: list[dict] = []
        seen = set()
        for hidden, sel_raw, lr, batch, l2 in itertools.product(
            self.hidden_sizes, self.selector_layer_index, self.learning_rate,
            self.batch_size, self.l2_penalty,
        ):
            hidden = tuple(hidden)
            if selector_dim == 0:
                sel_index = 0
            elif sel_raw == "last":
                sel_index = len(hidden)
            elif sel_raw == "second_to_last":
                sel_index = max(1, len(hidden) - 1)
            else:
                sel_index = sel_raw
                if not 1 <= sel_index <= len(hidden):
                    continue
            cell = {
                "hidden_sizes": hidden,
                "selector_layer_index": sel_index,
                "learning_rate": lr,
                "batch_size": batch,
                "l2_penalty": l2,
            }
            key = tuple(sorted(cell.items()))
            if key not in seen:
                seen.add(key)
                out.append(cell)
        return out


def _channel_mean_rmse(pred: np.ndarray, actual: np.ndarray, channel_idx: np.ndarray,
                       n_channels: int) -> float:
    """Per-channel RMSE averaged over the channels present."""
    scores = []
    for c in range(n_channels):
        mask = channel_idx == c
        if not np.any(mask):
            continue
        residual = pred[mask] - actual[mask]
        scores.append(math.sqrt(float(residual @ residual) / int(mask.sum())))
    return float(np.mean(scores)) if scores else math.nan


def design_cells(grid: GridSpec, design: ds.DesignMatrix) -> list[dict]:
    """The grid's cells for a network on the design: selector-fed for
    several channels, plain (selector_dim 0) for one."""
    n_channels = len(design.registry)
    return grid.cells(n_channels if n_channels > 1 else 0)


def grid_search(grid: GridSpec, design: ds.DesignMatrix, base_train: TrainConfig,
                inner_k: int = 5, seed: int = 0) -> ds.GridResult:
    """Exhaustive grid search scored by inner k-fold cross-validation.

    Per cell and inner fold (ds.cv_select), fit_network trains on the
    inner-train split with early stopping against the held-out split,
    which is scored by its RMSE in standardized space averaged over
    channels. Lowest mean wins; ties break toward the earliest cell.
    """
    n_channels = len(design.registry)
    cells = design_cells(grid, design)

    def score(cell_index: int, fold: int, train_rows: np.ndarray,
              val_rows: np.ndarray) -> float:
        net_seed = derive_seed(seed, cell_index + 1, fold + 1)
        standardizer, result = fit_network(design, train_rows, cells[cell_index], base_train,
                                           net_seed, derive_seed(net_seed, 7), val_rows)
        x_val, s_val, y_val = network_inputs(design, val_rows, standardizer)
        pred = forward(result.net, x_val, s_val)
        return _channel_mean_rmse(pred, y_val, design.channel_idx[val_rows], n_channels)

    return ds.cv_select(cells, design, inner_k, seed, score)


def network_inputs(design: ds.DesignMatrix, rows: np.ndarray, standardizer: ds.Standardizer,
                   ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Standardized features, one-hot selectors (None for a single channel)
    and standardized targets of the given design rows."""
    n_channels = len(design.registry)
    channel_idx = design.channel_idx[rows]
    x = standardizer.apply_features(design.features[rows])
    y = standardizer.apply_targets(design.targets[rows], channel_idx)
    selector = np.eye(n_channels)[channel_idx] if n_channels > 1 else None
    return x, selector, y


def fit_network(design: ds.DesignMatrix, train_rows: np.ndarray, cell: dict,
                base_train: TrainConfig, net_seed: int, train_seed: int,
                val_rows: np.ndarray | None = None) -> tuple[ds.Standardizer, TrainResult]:
    """Fit one network on the train rows: the single fit path of every
    network family, for inner CV, the outer refit and the final model.

    The standardizer is fitted on the train rows only. With val_rows the
    net stops early on their validation MSE; without, it trains
    max_epochs. net_seed seeds the initial weights, train_seed the batch
    order. Returns the fitted standardizer and the training result.
    """
    n_channels = len(design.registry)
    standardizer = ds.Standardizer.fit(
        design.features[train_rows], design.targets[train_rows],
        design.channel_idx[train_rows], n_channels,
    )
    x_train, s_train, y_train = network_inputs(design, train_rows, standardizer)
    val = None if val_rows is None else network_inputs(design, val_rows, standardizer)
    net_config = MTNetConfig(
        input_dim=design.features.shape[1],
        selector_dim=n_channels if n_channels > 1 else 0,
        hidden_sizes=cell["hidden_sizes"],
        selector_layer_index=cell["selector_layer_index"],
        l2_penalty=cell["l2_penalty"],
        seed=net_seed,
    )
    train_config = replace(base_train, learning_rate=cell["learning_rate"],
                           batch_size=cell["batch_size"], seed=train_seed)
    result = train(init_network(net_config), x_train, s_train, y_train, train_config, val=val)
    return standardizer, result
