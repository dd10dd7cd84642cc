"""Trained-model bundles: persistence and whole-registry prediction.

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
from emprops.errors import CorruptFile, MissingDensity, SchemaMismatch
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
    if bundle.kind == "mtnn":
        net = bundle.net
        header = {
            "kind": "mtnn",
            "config": asdict(net.config),
            "registry": bundle.registry.to_json(),
            "schema": bundle.schema.manifest(),
            "standardizer": bundle.standardizer.to_json(),
            "layer_shapes": [list(shape) for shape in mtnn.layer_shapes(net.config)],
        }
        modelio.write_container(path, modelio.MAGIC_MTNN, header, [net.params])
    elif bundle.kind == "forest":
        forest = bundle.forest
        header = {
            "kind": "forest",
            "config": asdict(forest.config),
            "n_features": forest.n_features,
            "registry": bundle.registry.to_json(),
            "schema": bundle.schema.manifest(),
            "tree_sizes": [len(tree) for tree in forest.trees],
        }
        modelio.write_container(path, modelio.MAGIC_FOREST, header, forest.trees)
    else:
        raise SchemaMismatch(f"unknown bundle kind {bundle.kind!r}")


def load_model(path: str | Path) -> ModelBundle:
    magic, header, payload = modelio.read_any_container(path)
    registry = ds.PropertyRegistry.from_json(header["registry"])
    schema = descriptors.FeatureSchema.from_manifest(header["schema"])

    if magic == modelio.MAGIC_MTNN:
        config = mtnn.MTNetConfig(
            input_dim=header["config"]["input_dim"],
            selector_dim=header["config"]["selector_dim"],
            hidden_sizes=tuple(header["config"]["hidden_sizes"]),
            selector_layer_index=header["config"]["selector_layer_index"],
            l2_penalty=header["config"]["l2_penalty"],
            seed=header["config"]["seed"],
        )
        if header["layer_shapes"] != [list(shape) for shape in mtnn.layer_shapes(config)]:
            raise CorruptFile("layer_shapes in network file do not match its config")
        (params,) = modelio.split_payload(payload, [(mtnn.parameter_count(config),)])
        net = mtnn.MTNet(config=config, params=params)
        return ModelBundle(
            kind="mtnn",
            registry=registry,
            schema=schema,
            net=net,
            standardizer=ds.Standardizer.from_json(header["standardizer"]),
        )

    config = rf.ForestConfig(
        n_trees=header["config"]["n_trees"],
        max_depth=header["config"]["max_depth"],
        min_samples_leaf=header["config"]["min_samples_leaf"],
        max_features=header["config"]["max_features"],
        seed=header["config"]["seed"],
    )
    shapes = [(size, 5) for size in header["tree_sizes"]]
    trees = modelio.split_payload(payload, shapes)
    for tree in trees:
        _check_tree(tree, header["n_features"])
    forest = rf.RandomForest(config=config, trees=trees, n_features=header["n_features"])
    return ModelBundle(kind="forest", registry=registry, schema=schema, forest=forest)


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
    if bundle.schema.include_density and density is None:
        raise MissingDensity("this model requires a density input")
    if not bundle.schema.include_density:
        density = None
    return descriptors.featurize(graph, bundle.schema, density).values


def predict_matrix(bundle: ModelBundle, smiles_or_graph: str | MolGraph,
                   density: float | None = None) -> dict[str, float]:
    """Predictions for every registry channel, in original channel units.

    Loops the selector one-hots, undoes standardization, and inverts the
    channel transform (10^x for log channels), so log-channel outputs are
    strictly positive.
    """
    graph = smiles_or_graph if isinstance(smiles_or_graph, MolGraph) else parse_smiles(smiles_or_graph)
    features = features_for(bundle, graph, density)
    out: dict[str, float] = {}
    if bundle.kind == "mtnn":
        net = bundle.net
        if net.config.input_dim != features.size:
            raise SchemaMismatch(
                f"model expects {net.config.input_dim} features, got {features.size}"
            )
        x = bundle.standardizer.apply_features(features[None, :])
        for idx, channel in enumerate(bundle.registry):
            selector = None
            if net.config.selector_dim:
                selector = np.zeros((1, net.config.selector_dim))
                selector[0, idx] = 1.0
            pred_std = mtnn.forward(net, x, selector)[0]
            value = bundle.standardizer.invert_targets(
                np.array([pred_std]), np.array([idx])
            )[0]
            out[channel.key] = channel.invert_transform(float(value))
    else:
        if bundle.forest.n_features != features.size:
            raise SchemaMismatch(
                f"model expects {bundle.forest.n_features} features, got {features.size}"
            )
        for channel in bundle.registry:
            value = float(rf.predict_forest(bundle.forest, features))
            out[channel.key] = channel.invert_transform(value)
    return out
