"""Selector-vector multi-task dense network.

A single-output feed-forward net with rectified-linear hidden layers; the
one-hot selector saying which property channel to predict is concatenated
to the input of one hidden layer (a hyperparameter). With selector_dim=0
this is the plain single-task network. Gradients are analytic
backpropagation; training is Adam with early stopping on validation MSE.
Everything seeded is driven by splitmix64, so runs are bit-reproducible.

train_many is the one training loop: it takes networks of any configs,
splits them across the CPUs this process may use, stacks those of a part
that differ only in their seeds (the one place that groups them) and
trains each stack in lockstep, every network with the bits it would get
alone; train is its one-network case. A stack takes one Adam update per
tick for each range of networks that took a batch, and draws every
network's batch order for an epoch in one block. It computes a loss only
where a result reads it: each batch's, each validating network's
validation MSE per epoch, and one training-set MSE of the parameters a
network returns.

This module is the network engine only, as forest is the forest engine:
it knows configs, parameters and training jobs, not designs, grids or
folds. evaluation holds the grid (GridSpec), prepares every network fit
(network_job) and selects cells by inner CV (select); grid_search is
select of one network fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from emprops import workers
from emprops.errors import DimensionMismatch, InvalidConfig, NonFiniteLoss, check_number
from emprops.rng import ShuffleDraws, SplitMix64, fisher_yates


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

    def __reduce__(self):
        return MTNet, (self.config, self.params)  # views are rebuilt, not copied


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
    flat parameter-layout vector, the parameters or their gradient; of a
    (U, P) stack of them, (U, fan_out, fan_in) and (U, fan_out) views."""
    weights, biases = [], []
    offset = 0
    for fan_out, fan_in in layer_shapes(config):
        weights.append(vector[..., offset : offset + fan_out * fan_in].reshape(
            vector.shape[:-1] + (fan_out, fan_in)))
        offset += fan_out * fan_in
        biases.append(vector[..., offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def init_network(config: MTNetConfig) -> MTNet:
    """Glorot-uniform weights from one block of splitmix64(seed) draws, one
    53-bit uniform per weight in parameter order; zero biases. A network
    too large to allocate is InvalidConfig naming its hidden sizes."""
    try:
        net = MTNet(config=config, params=np.zeros(parameter_count(config)))
        draws = SplitMix64(config.seed).next_block(sum(w.size for w in net.weights))
    except MemoryError as exc:
        raise InvalidConfig(f"hidden_sizes {list(config.hidden_sizes)} give "
                            f"{parameter_count(config):,} parameters, more than memory "
                            "holds") from exc
    offset = 0
    for w in net.weights:
        fan_out, fan_in = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        uniform = (draws[offset : offset + w.size] >> 11) * 2.0 ** -53
        w.reshape(-1)[:] = (2.0 * uniform - 1.0) * limit
        offset += w.size
    return net


def _rows(config: MTNetConfig, features: np.ndarray, selector: np.ndarray | None):
    """Features (and selectors) as (n, d) rows or (G, n, d) groups of rows,
    a 1-D vector being one row, checked against the network's input and
    selector widths."""
    if features.ndim == 1:
        features = features[None, :]
    if selector is not None and selector.ndim == 1:
        selector = selector[None, :]
    if features.shape[-1] != config.input_dim:
        raise DimensionMismatch(
            f"feature dim {features.shape[-1]} != input_dim {config.input_dim}"
        )
    if config.selector_dim == 0:
        if selector is not None:
            raise DimensionMismatch("selector given but selector_dim is 0")
    else:
        if selector is None:
            raise DimensionMismatch("selector required but missing")
        if selector.shape[-1] != config.selector_dim:
            raise DimensionMismatch(
                f"selector dim {selector.shape[-1]} != selector_dim {config.selector_dim}"
            )
        if selector.shape[:-1] != features.shape[:-1]:
            raise DimensionMismatch("feature/selector batch sizes differ")
    return features, selector


def _propagate(config: MTNetConfig, weights, biases, features: np.ndarray,
               selector: np.ndarray | None):
    """The forward pass, keeping per-layer inputs for backprop, of one
    network ((n, d) rows, or (G, n, d) groups of rows, with 2-D weight
    views) or of G stacked ones ((G, n, d) rows, (G, fan_out, fan_in)
    weight views). np.matmul computes each stacked slice with the same BLAS
    call as the 2-D product, so every network, and every group of rows,
    gets the bits it would get alone."""
    inputs: list[np.ndarray] = []
    activation = features
    n_hidden = len(config.hidden_sizes)
    for i in range(n_hidden):
        layer_in = activation
        if config.selector_dim > 0 and i + 1 == config.selector_layer_index:
            layer_in = np.concatenate([activation, selector], axis=-1)
        inputs.append(layer_in)
        activation = layer_in @ weights[i].swapaxes(-1, -2)
        activation += biases[i][..., None, :]
        np.maximum(activation, 0.0, out=activation)
    inputs.append(activation)
    output = activation @ weights[n_hidden].swapaxes(-1, -2)
    output += biases[n_hidden][..., None, :]
    return inputs, output[..., 0]


def _sum_squares(residual: np.ndarray):
    """residual @ residual, per network when stacked: the BLAS dot product
    that the 1-D product calls, so the bits do not depend on stacking."""
    return (residual[..., None, :] @ residual[..., None])[..., 0, 0]


def _backprop(config: MTNetConfig, weights, biases, d_weights, d_biases,
              features: np.ndarray, selector: np.ndarray | None, targets: np.ndarray):
    """Mean-squared-error gradients plus the l2 weight penalty, written into
    the d_weights/d_biases views; returns the loss, one per network when
    stacked. Shapes as in _propagate."""
    n = features.shape[-2]
    inputs, out = _propagate(config, weights, biases, features, selector)
    residual = out - targets
    loss = _sum_squares(residual) / n

    delta = (2.0 / n) * residual[..., None]  # gradient at the linear output
    n_hidden = len(config.hidden_sizes)
    for layer in range(n_hidden, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), inputs[layer], out=d_weights[layer])
        d_biases[layer][...] = np.add.reduce(delta, axis=-2)
        if layer == 0:
            break
        # relu gate: the layer input is the previous hidden activation
        # (selector columns are gated too, then dropped, which is harmless)
        back = (delta @ weights[layer]) * (inputs[layer] > 0.0)
        if config.selector_dim > 0 and layer == config.selector_layer_index - 1:
            back = back[..., : back.shape[-1] - config.selector_dim]
        delta = back

    if config.l2_penalty > 0.0:
        for d_w, w in zip(d_weights, weights):
            loss = loss + config.l2_penalty * np.sum(w * w, axis=(-2, -1))
            d_w += 2.0 * config.l2_penalty * w
    return loss


def forward(net: MTNet, features: np.ndarray, selector: np.ndarray | None = None) -> np.ndarray:
    """Scalar predictions (standardized target space), one per row: (n,)
    for (n, d) rows, (G, n) for G groups of rows stacked as (G, n, d) with
    (G, n, selector_dim) selectors. Each group gets the bits of its own
    (n, d) call (see _propagate), so one call serves many small ones."""
    features, selector = _rows(net.config, features, selector)
    _, out = _propagate(net.config, net.weights, net.biases, features, selector)
    return out


def gradients(net: MTNet, features: np.ndarray, selector: np.ndarray | None,
              targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean-squared-error gradients plus the l2 weight penalty of one network.

    Returns (grad, loss), grad laid out like net.params. The l2 term is
    l2_penalty * sum(w^2) over weights only, so its gradient is
    2 * l2_penalty * w; biases are not penalized.
    """
    features, selector = _rows(net.config, features, selector)
    grad = np.empty_like(net.params)
    d_weights, d_biases = layer_views(net.config, grad)
    loss = _backprop(net.config, net.weights, net.biases, d_weights, d_biases,
                     features, selector, targets)
    return grad, float(loss)


@dataclass
class TrainResult:
    net: MTNet
    history: list[dict]
    best_epoch: int


@dataclass(frozen=True)
class TrainJob:
    """One network to train: its initial net, training rows, TrainConfig
    and optional (features, selector, targets) validation rows."""

    net: MTNet
    features: np.ndarray
    selector: np.ndarray | None
    targets: np.ndarray
    config: TrainConfig
    val: tuple[np.ndarray, np.ndarray | None, np.ndarray] | None = None


def _mse(config: MTNetConfig, params: np.ndarray, features: np.ndarray,
         selector: np.ndarray | None, targets: np.ndarray) -> float:
    """The MSE of one network's (P,) parameter vector on its rows."""
    weights, biases = layer_views(config, params)
    residual = _propagate(config, weights, biases, features, selector)[1] - targets
    return float(residual @ residual) / len(targets)


def train(net: MTNet, features: np.ndarray, selector: np.ndarray | None,
          targets: np.ndarray, config: TrainConfig,
          val: tuple[np.ndarray, np.ndarray | None, np.ndarray] | None = None) -> TrainResult:
    """Adam training of one network: train_many of one job, raising its
    NonFiniteLoss."""
    (outcome,) = train_many([TrainJob(net, features, selector, targets, config, val)])
    if isinstance(outcome, NonFiniteLoss):
        raise outcome
    return outcome


def _runs(members, size_of) -> list[list[int]]:
    """[lo, hi, size] per maximal run of consecutive stack positions among
    members that share a positive size."""
    runs: list[list[int]] = []
    for g in members:
        size = size_of(g)
        if size <= 0:
            continue
        if runs and runs[-1][1] == g and runs[-1][2] == size:
            runs[-1][1] = g + 1
        else:
            runs.append([g, g + 1, size])
    return runs


def train_many(jobs: list[TrainJob]) -> list[TrainResult | NonFiniteLoss]:
    """Adam training of networks, each with the bits it gets alone; returns
    one TrainResult, or the NonFiniteLoss that stopped it, per job, in job
    order. The checked jobs are split across the CPUs this process may use
    (workers.run), and in each process the networks of its part that differ
    only in their seeds train in one stack.

    With validation rows a network stops after `patience` epochs without
    improvement and returns the parameters of its best validation epoch;
    without, it runs max_epochs and returns job.net. Batch order is
    shuffled per epoch by one splitmix64 stream per network, seeded from
    its config.seed, so identical seeds give identical histories: one
    {"epoch": e} entry per epoch run, with its "val_mse" when the network
    validates.

    A non-finite batch loss stops only its own network, before the update,
    and so does a non-finite validation loss. Every job.net ends with the
    final parameters of its training, stopped or not, also when a forked
    part trained it. Once training ends, the
    parameters a network would return are scored once on its training
    rows; a non-finite MSE there is NonFiniteLoss("non-finite training
    loss at epoch N"), N the epoch returned.
    """
    for job in jobs:
        if len(job.targets) == 0:
            raise InvalidConfig("empty training batch")
        _rows(job.net.config, job.features, job.selector)
        if job.val is not None:
            if len(job.val[2]) == 0:
                raise InvalidConfig("empty validation batch")
            _rows(job.net.config, job.val[0], job.val[1])
    results = []
    for job, (params, result) in zip(jobs, workers.run(_train_part, jobs)):
        job.net.params[...] = params  # a forked part trained a copy
        if isinstance(result, TrainResult) and job.val is None:
            result.net = job.net
        results.append(result)
    return results


def _train_part(jobs: list[TrainJob]) -> list[tuple[np.ndarray, TrainResult | NonFiniteLoss]]:
    """train_many of a part of the checked jobs, in this process: per job,
    the final parameters of its net and its outcome."""
    stacks: dict[tuple, list[int]] = {}  # (net config, train config) without seeds -> jobs
    for index, job in enumerate(jobs):
        key = (replace(job.net.config, seed=0), replace(job.config, seed=0))
        stacks.setdefault(key, []).append(index)
    results: list[TrainResult | NonFiniteLoss | None] = [None] * len(jobs)
    for members in stacks.values():
        for index, result in zip(members, _train_stack([jobs[index] for index in members])):
            results[index] = result
    return [(job.net.params, result) for job, result in zip(jobs, results)]


# A diverging network overflows to inf and NaN; the finiteness checks turn
# that into NonFiniteLoss, so numpy's own warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _train_stack(jobs: list[TrainJob]) -> list[TrainResult | NonFiniteLoss]:
    """train_many of checked jobs that differ only in their seeds.

    Parameters and Adam moments are (U, P) rows sorted by training-row
    count, largest first, and epochs run in lockstep. At every tick the
    networks whose batch has the same size are consecutive rows, so each
    such run takes one stacked forward and backward on slice views; no
    padding row ever enters a product. Adam is elementwise, so one in-place
    update then serves each range of consecutive networks that took a
    batch at that tick, leaving out those that failed at it or stopped
    before. Each network keeps its own Adam step count and early-stopping
    state. Each epoch's batch orders come from one ShuffleDraws block over
    the live networks, each getting the offsets its own stream's shuffle
    would draw.
    """
    net_config, config = jobs[0].net.config, jobs[0].config
    order = sorted(range(len(jobs)), key=lambda i: -len(jobs[i].targets))
    stack = [jobs[i] for i in order]
    count = [len(job.targets) for job in stack]
    batch = config.batch_size
    batches = [-(-n // batch) for n in count]  # steps per epoch

    # each epoch's shuffled rows in one (U, max rows, width) block that
    # batches are sliced from
    x_epoch = np.empty((len(stack), count[0], net_config.input_dim))
    s_epoch = np.empty((len(stack), count[0], net_config.selector_dim))
    y_epoch = np.empty((len(stack), count[0]))

    params = np.stack([job.net.params for job in stack])
    m, v = np.zeros_like(params), np.zeros_like(params)
    grad, temp = np.empty_like(params), np.empty_like(params)
    weights, biases = layer_views(net_config, params)
    d_weights, d_biases = layer_views(net_config, grad)
    corrections = [(1.0, 1.0)]  # Adam's 1 - beta**step per step, filled as needed

    shuffles = ShuffleDraws([job.config.seed for job in stack], count)
    histories: list[list[dict]] = [[] for _ in stack]
    best: list[np.ndarray | None] = [None] * len(stack)  # params at best_epoch
    best_val = [math.inf] * len(stack)
    best_epoch = [0] * len(stack)
    stale = [0] * len(stack)
    failed: list[NonFiniteLoss | None] = [None] * len(stack)

    slabs: dict[tuple[int, int], tuple] = {}

    def slab(lo: int, hi: int) -> tuple:
        """Weight, bias and their gradients' views of stack positions lo..hi-1."""
        if (lo, hi) not in slabs:
            slabs[lo, hi] = tuple([a[lo:hi] for a in arrays]
                                  for arrays in (weights, biases, d_weights, d_biases))
        return slabs[lo, hi]

    def adam(lo: int, hi: int, epoch: int, tick: int) -> None:
        m_, v_, g_, p_, t_ = m[lo:hi], v[lo:hi], grad[lo:hi], params[lo:hi], temp[lo:hi]
        step = (epoch - 1) * batches[lo] + tick + 1
        if step == (epoch - 1) * batches[hi - 1] + tick + 1:
            correction1, correction2 = corrections[step]
        else:
            both = np.array([corrections[(epoch - 1) * batches[g] + tick + 1]
                             for g in range(lo, hi)])
            correction1, correction2 = both[:, :1], both[:, 1:]
        m_ *= ADAM_BETA1
        np.multiply(g_, 1 - ADAM_BETA1, out=t_)
        m_ += t_
        v_ *= ADAM_BETA2
        np.square(g_, out=t_)
        t_ *= 1 - ADAM_BETA2
        v_ += t_
        np.divide(v_, correction2, out=t_)
        np.sqrt(t_, out=t_)
        t_ += ADAM_EPSILON
        np.divide(m_, correction1, out=g_)
        g_ *= config.learning_rate
        g_ /= t_
        p_ -= g_

    live = list(range(len(stack)))
    for epoch in range(1, config.max_epochs + 1):
        if not live:
            break
        while len(corrections) <= epoch * batches[0]:
            step = len(corrections)
            corrections.append((1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step))
        for g, offsets in zip(live, shuffles.offsets(live).tolist()):
            shuffled = list(range(count[g]))
            fisher_yates(shuffled, offsets)
            job, index = stack[g], np.array(shuffled)
            # the indices are in range: "clip" only skips take's buffered check
            job.features.take(index, axis=0, out=x_epoch[g, : count[g]], mode="clip")
            job.targets.take(index, out=y_epoch[g, : count[g]], mode="clip")
            if job.selector is not None:
                job.selector.take(index, axis=0, out=s_epoch[g, : count[g]], mode="clip")

        for tick in range(batches[live[0]]):
            start = tick * batch
            for lo, hi, size in _runs(live, lambda g: min(batch, count[g] - start)):
                rows = slice(start, start + size)
                loss = _backprop(net_config, *slab(lo, hi), x_epoch[lo:hi, rows],
                                 s_epoch[lo:hi, rows] if net_config.selector_dim else None,
                                 y_epoch[lo:hi, rows])
                if not math.isfinite(np.maximum.reduce(loss)):  # NaN propagates
                    for g, finite in zip(range(lo, hi), np.isfinite(loss)):
                        if not finite:
                            failed[g] = NonFiniteLoss(f"non-finite loss at epoch {epoch}")
                            live.remove(g)
            # Adam is elementwise: one update per range of live networks that took a batch
            for lo, hi, _ in _runs(live, lambda g: count[g] > start):
                adam(lo, hi, epoch, tick)

        for g in list(live):
            entry = {"epoch": epoch}
            histories[g].append(entry)
            if stack[g].val is None:
                continue
            entry["val_mse"] = val_mse = _mse(net_config, params[g], *stack[g].val)
            if not math.isfinite(val_mse):
                failed[g] = NonFiniteLoss(f"non-finite validation loss at epoch {epoch}")
                live.remove(g)
                continue
            if val_mse < best_val[g]:
                best_val[g], best_epoch[g], stale[g] = val_mse, epoch, 0
                best[g] = params[g].copy()
            else:
                stale[g] += 1
                if stale[g] > config.patience:
                    live.remove(g)

    results: list[TrainResult | NonFiniteLoss | None] = [None] * len(jobs)
    for g, job in enumerate(stack):
        job.net.params[...] = params[g]
        if failed[g] is None:
            net, epoch = ((job.net, config.max_epochs) if job.val is None
                          else (MTNet(job.net.config, best[g]), best_epoch[g]))
            # the one pass over the training rows: what is returned scores finite
            if math.isfinite(_mse(net_config, net.params, job.features, job.selector,
                                  job.targets)):
                results[order[g]] = TrainResult(net, histories[g], epoch)
                continue
            failed[g] = NonFiniteLoss(f"non-finite training loss at epoch {epoch}")
        results[order[g]] = failed[g]
    return results


def grid_search(grid, design, base_train: TrainConfig, inner_k: int = 5, seed: int = 0):
    """evaluation.select of one network fit over every row and channel of
    the design (a dataset.DesignMatrix) on the grid (an
    evaluation.GridSpec), as evaluation.forest_grid_search is of one forest
    fit: its dataset.GridResult, or its error raised. It stays only while
    the traced benchmark wraps it by name."""
    # imported here, not at the top: evaluation imports this module, and the
    # network engine itself loads none of the protocol (dataset, molgraph)
    from emprops import evaluation

    return evaluation.select_every_row("mt-nn", design,
                                       evaluation.Grids(mtnn=grid, train=base_train), inner_k,
                                       seed)
