"""Trained-model bundles: persistence and prediction for either kind.

A bundle couples fitted parameters with everything needed to reproduce
predictions exactly: the feature schema (bond vocabulary, density slot),
the channel registry (selector order), and the standardizer. Network
bundles use the "EMMT" container magic, forest bundles "EMRF"; both share
the checksummed binary container of :mod:`emprops.modelio`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from emprops import dataset as ds
from emprops import descriptors, forest as rf, modelio, mtnn
from emprops.errors import CorruptFile, InvalidConfig
from emprops.molgraph import MolGraph, parse_smiles


@dataclass
class ModelBundle:
    kind: str  # "mtnn" or "forest"
    registry: ds.PropertyRegistry
    schema: descriptors.FeatureSchema
    net: mtnn.MTNet | None = None
    standardizer: ds.Standardizer | None = None
    forest: rf.RandomForest | None = None


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    model = bundle.net if bundle.kind == "mtnn" else bundle.forest
    header = {"kind": bundle.kind, "config": asdict(model.config),
              "registry": bundle.registry.to_json(), "schema": bundle.schema.manifest()}
    if bundle.kind == "mtnn":
        header["standardizer"] = bundle.standardizer.to_json()
        header["layer_shapes"] = [list(shape) for shape in mtnn.layer_shapes(model.config)]
        modelio.write_container(path, modelio.MAGIC_MTNN, header, [model.params])
    else:
        header["n_features"] = model.n_features
        header["tree_sizes"] = [len(tree) for tree in model.trees]
        modelio.write_container(path, modelio.MAGIC_FOREST, header, model.trees)


def load_model(path: str | Path) -> ModelBundle:
    """Read a model file. A header field that is missing or does not decode,
    a model whose input width is not its schema's, a network parameter that
    is not finite, a standardizer that Standardizer.fit could not have
    written (_check_standardizer), or a forest whose tree count is not its
    config's n_trees or whose tree sizes are not positive integers, is
    CorruptFile."""
    magic, header, payload = modelio.read_any_container(path)
    try:
        return _decode(magic, header, payload)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
            InvalidConfig) as exc:
        raise CorruptFile(f"malformed model header ({type(exc).__name__}: {exc})") from exc


def _decode(magic: bytes, header: dict, payload: bytes) -> ModelBundle:
    registry = ds.PropertyRegistry.from_json(header["registry"])
    schema = descriptors.FeatureSchema.from_manifest(header["schema"])
    config = header["config"]
    if magic == modelio.MAGIC_MTNN:
        config = mtnn.MTNetConfig(**{**config, "hidden_sizes": tuple(config["hidden_sizes"])})
        if header["layer_shapes"] != [list(shape) for shape in mtnn.layer_shapes(config)]:
            raise CorruptFile("layer_shapes in network file do not match its config")
        (params,) = modelio.split_payload(payload, [(mtnn.parameter_count(config),)])
        if not np.isfinite(params).all():  # train_many returns only finite parameters
            raise CorruptFile("network parameters in file are not all finite")
        standardizer = _check_standardizer(header["standardizer"], config.input_dim,
                                           len(registry))
        bundle = ModelBundle(kind="mtnn", registry=registry, schema=schema,
                             net=mtnn.MTNet(config=config, params=params),
                             standardizer=standardizer)
        width = config.input_dim
    else:
        width = header["n_features"]
        config = rf.ForestConfig(**config)
        sizes = header["tree_sizes"]
        if len(sizes) != config.n_trees:
            raise CorruptFile(f"forest file holds {len(sizes)} trees, its config {config.n_trees}")
        if not all(type(size) is int and size > 0 for size in sizes):
            raise CorruptFile("tree_sizes in forest file are not all positive integers")
        trees = modelio.split_payload(payload, [(size, 5) for size in sizes])
        for tree in trees:
            _check_tree(tree, width)
        forest = rf.RandomForest(config=config, trees=trees, n_features=width)
        bundle = ModelBundle(kind="forest", registry=registry, schema=schema, forest=forest)
    if width != len(schema):
        raise CorruptFile(f"model takes {width} features, its schema gives {len(schema)}")
    return bundle


def _check_standardizer(data: dict, n_features: int, n_channels: int) -> ds.Standardizer:
    """The standardizer of a network header, as Standardizer.fit writes
    one: one feature entry per network input and one target entry per
    channel, each a finite JSON number (not a bool), every std above 0 and
    every constant flag 0 or 1."""
    std = ds.Standardizer.from_json(data)
    features = (std.feature_mean, std.feature_std, std.feature_constant)
    targets = (std.target_mean, std.target_std, std.target_constant)
    if any(a.shape != (n_features,) for a in features) \
            or any(a.shape != (n_channels,) for a in targets):
        raise CorruptFile(f"standardizer does not fit {n_features} features "
                          f"and {n_channels} channels")
    for key in (array.name for array in fields(ds.Standardizer)):
        values = data[key]
        if not all(type(v) in (int, float) and math.isfinite(v) for v in values):
            raise CorruptFile(f"standardizer {key} holds a value that is not a finite number")
        if key.endswith("_std") and any(v <= 0 for v in values):
            raise CorruptFile(f"standardizer {key} holds a value that is not above 0")
        if key.endswith("_constant") and not set(values) <= {0, 1}:
            raise CorruptFile(f"standardizer {key} holds a flag that is not 0 or 1")
    return std


def _check_tree(tree: np.ndarray, n_features: int) -> None:
    """Every split node must name a feature in range and link to two later
    rows, so that every walk from the root ends at a leaf."""
    feature = tree[:, rf.FEATURE]
    split = feature >= 0
    links = tree[split, rf.LEFT:]
    if (len(tree) == 0 or np.any(feature != np.floor(feature)) or np.any(feature < -1)
            or np.any(feature >= n_features) or np.any(links != np.floor(links))
            or np.any(links <= np.flatnonzero(split)[:, None]) or np.any(links >= len(tree))):
        raise CorruptFile("malformed tree in forest file")


def features_for(bundle: ModelBundle, molecule: MolGraph | descriptors.Perception,
                 density: float | None) -> np.ndarray:
    """The model's input row of a molecule or its perception; a density is
    dropped unless its schema takes one."""
    if isinstance(molecule, MolGraph):
        molecule = descriptors.perceive(molecule)
    return molecule.row(bundle.schema, density if bundle.schema.include_density else None)


def predict_rows(bundle: ModelBundle, features: np.ndarray, channel_idx: np.ndarray,
                 ) -> np.ndarray:
    """Predictions for feature rows in transformed-target units, row i for
    channel channel_idx[i]; a forest models one channel and ignores it.

    A network also takes G groups of rows stacked as (G, n, d), with (G, n)
    channels, in one forward; each group gets the bits of its own (n, d)
    call. How many rows share a group still matters: BLAS picks its kernel
    by matrix size, so a row's last bits depend on the n of its group.
    (n, d) rows with (G, n) channels serve every group: they are
    standardized once, then broadcast, which gives the same bits because
    standardizing is elementwise.
    """
    if bundle.kind == "forest":
        return rf.predict_forest(bundle.forest, features)
    selector_dim = bundle.net.config.selector_dim
    selector = np.eye(selector_dim)[channel_idx] if selector_dim else None
    # finite values can overflow to inf and NaN, which the prediction shows
    with np.errstate(over="ignore", invalid="ignore"):
        x = bundle.standardizer.apply_features(features)
        if channel_idx.ndim == 2 and x.ndim == 2:
            x = np.broadcast_to(x, channel_idx.shape + x.shape[1:])
        return bundle.standardizer.invert_targets(mtnn.forward(bundle.net, x, selector),
                                                  channel_idx)


def predict_matrix(bundle: ModelBundle, molecule: str | MolGraph | descriptors.Perception,
                   density: float | None = None) -> dict[str, float]:
    """Predictions for every registry channel, in original channel units.

    A network runs once, on one one-row group per channel (so every channel
    has the bits of its own one-row call); a forest, which models one
    channel, is predicted once and serves them all. Then the channel
    transform is inverted (10^x for log channels), so log-channel outputs
    are strictly positive. The molecule is a SMILES, a parsed graph or a
    perception.
    """
    if isinstance(molecule, str):
        molecule = parse_smiles(molecule)
    row = features_for(bundle, molecule, density)[None, :]
    n_channels = len(bundle.registry)
    if bundle.kind == "forest":
        values = np.repeat(predict_rows(bundle, row, None), n_channels)
    else:
        values = predict_rows(bundle, row, np.arange(n_channels)[:, None])[:, 0]
    return {channel.key: channel.invert_transform(float(value))
            for channel, value in zip(bundle.registry, values)}
