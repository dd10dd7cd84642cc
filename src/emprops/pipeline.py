"""Trained-model bundles: persistence and prediction for either kind.

A bundle couples fitted parameters with everything needed to reproduce
predictions exactly: the feature schema (bond vocabulary, density slot),
the channel registry (selector order), and the standardizer. Network
bundles use the "EMMT" container magic, forest bundles "EMRF"; both share
the checksummed binary container of :mod:`emprops.modelio`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    a model whose input width is not its schema's, a standardizer whose
    lengths are not the network's, or a forest whose tree count is not its
    config's n_trees, is CorruptFile."""
    magic, header, payload = modelio.read_any_container(path)
    try:
        return _decode(magic, header, payload)
    except (KeyError, TypeError, ValueError, AttributeError, InvalidConfig) as exc:
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
        standardizer = ds.Standardizer.from_json(header["standardizer"])
        _check_standardizer(standardizer, config.input_dim, len(registry))
        bundle = ModelBundle(kind="mtnn", registry=registry, schema=schema,
                             net=mtnn.MTNet(config=config, params=params),
                             standardizer=standardizer)
        width = config.input_dim
    else:
        width = header["n_features"]
        config = rf.ForestConfig(**config)
        if len(header["tree_sizes"]) != config.n_trees:
            raise CorruptFile(f"forest file holds {len(header['tree_sizes'])} trees, "
                              f"its config {config.n_trees}")
        trees = modelio.split_payload(payload, [(size, 5) for size in header["tree_sizes"]])
        for tree in trees:
            _check_tree(tree, width)
        forest = rf.RandomForest(config=config, trees=trees, n_features=width)
        bundle = ModelBundle(kind="forest", registry=registry, schema=schema, forest=forest)
    if width != len(schema):
        raise CorruptFile(f"model takes {width} features, its schema gives {len(schema)}")
    return bundle


def _check_standardizer(std: ds.Standardizer, n_features: int, n_channels: int) -> None:
    """One feature entry per network input and one target entry per channel."""
    features = (std.feature_mean, std.feature_std, std.feature_constant)
    targets = (std.target_mean, std.target_std, std.target_constant)
    if any(a.shape != (n_features,) for a in features) \
            or any(a.shape != (n_channels,) for a in targets):
        raise CorruptFile(f"standardizer does not fit {n_features} features "
                          f"and {n_channels} channels")


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


def features_for(bundle: ModelBundle, graph: MolGraph, density: float | None) -> np.ndarray:
    """The model's input row; a density is dropped unless its schema takes one."""
    return descriptors.featurize(graph, bundle.schema,
                                 density if bundle.schema.include_density else None)


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
    x = bundle.standardizer.apply_features(features)
    if channel_idx.ndim == 2 and x.ndim == 2:
        x = np.broadcast_to(x, channel_idx.shape + x.shape[1:])
    return bundle.standardizer.invert_targets(mtnn.forward(bundle.net, x, selector), channel_idx)


def predict_matrix(bundle: ModelBundle, smiles_or_graph: str | MolGraph,
                   density: float | None = None) -> dict[str, float]:
    """Predictions for every registry channel, in original channel units.

    A network runs once, on one one-row group per channel (so every channel
    has the bits of its own one-row call); a forest, which models one
    channel, is predicted once and serves them all. Then the channel
    transform is inverted (10^x for log channels), so log-channel outputs
    are strictly positive.
    """
    graph = smiles_or_graph if isinstance(smiles_or_graph, MolGraph) else parse_smiles(smiles_or_graph)
    row = features_for(bundle, graph, density)[None, :]
    n_channels = len(bundle.registry)
    if bundle.kind == "forest":
        values = np.repeat(predict_rows(bundle, row, None), n_channels)
    else:
        values = predict_rows(bundle, row, np.arange(n_channels)[:, None])[:, 0]
    return {channel.key: channel.invert_transform(float(value))
            for channel, value in zip(bundle.registry, values)}
