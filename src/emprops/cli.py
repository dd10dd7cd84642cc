"""Command line interface.

Subcommands: featurize, correlate, tune, train, evaluate, predict,
screen. Commands that train or evaluate write a run manifest (config
snapshot, seeds, input checksums, schema manifest, tool version,
wall-clock) next to their artifacts; reproducing a run is re-invoking the
same command on the same inputs, since every random draw is seeded.

Anticipated failures exit 1 with a single machine-readable line
"error <Code>: <message>" on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import emprops
from emprops import dataset as ds
from emprops import descriptors, evaluation, forest as rf, mtnn, pipeline
from emprops.errors import (
    InvalidConfig,
    MissingDensity,
    ParseFailure,
    ToolkitError,
)
from emprops.molgraph import parse_smiles
from emprops.rng import derive_seed

DEFAULT_SEEDS = "1,2,3"


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InvalidConfig(f"bad seed list {text!r}")
    if not seeds:
        raise InvalidConfig("need at least one seed")
    return seeds


def _load_registry(path: str | None) -> ds.PropertyRegistry:
    return ds.PropertyRegistry.load(path) if path else ds.default_registry()


def _parse_subset(text: str) -> int:
    if text == "all":
        return 6
    try:
        return int(text)
    except ValueError:
        raise InvalidConfig(f"subset must be 1..6 or 'all', got {text!r}")


def _load_grids(path: str | None):
    mt_grid = mtnn.GridSpec()
    forest_grid = evaluation.ForestGridSpec()
    base_train = mtnn.TrainConfig()
    if path:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if "mtnn" in data:
            mt_grid = mtnn.GridSpec.from_json(data["mtnn"])
        if "forest" in data:
            forest_grid = evaluation.ForestGridSpec.from_json(data["forest"])
        if "train" in data:
            allowed = {"learning_rate", "batch_size", "max_epochs", "patience", "seed"}
            unknown = set(data["train"]) - allowed
            if unknown:
                raise InvalidConfig(f"unknown train settings: {sorted(unknown)}")
            base_train = replace(base_train, **data["train"])
    return mt_grid, forest_grid, base_train


def _write_manifest(out_dir: Path, command: str, options: dict, inputs: dict,
                    extra: dict | None = None, started: float | None = None) -> None:
    manifest = {
        "tool": "emprops",
        "tool_version": emprops.__version__,
        "command": command,
        "options": options,
        "inputs": {name: _sha256(path) for name, path in inputs.items() if path},
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(time.monotonic() - started, 3) if started else None,
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_molecules(path: str) -> list[dict]:
    """material_id, smiles, optional density from any CSV carrying those columns."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "material_id" not in reader.fieldnames \
                or "smiles" not in reader.fieldnames:
            raise ParseFailure(0, "need material_id and smiles columns")
        rows = list(reader)
    seen: dict[str, dict] = {}
    for row_number, row in enumerate(rows, start=1):
        material = (row["material_id"] or "").strip()
        smiles = (row["smiles"] or "").strip()
        if not material or not smiles:
            raise ParseFailure(row_number, "empty material_id or smiles")
        density = ds.parse_density(row.get("density"), row_number)
        if material in seen:
            if seen[material]["smiles"] != smiles:
                raise ParseFailure(row_number, f"conflicting SMILES for {material!r}")
            if seen[material]["density"] is None:
                seen[material]["density"] = density
        else:
            seen[material] = {"material_id": material, "smiles": smiles, "density": density}
    return list(seen.values())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_featurize(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    molecules = _read_molecules(args.data)
    graphs = {}
    for index, mol in enumerate(molecules, start=1):
        try:
            graphs[mol["material_id"]] = parse_smiles(mol["smiles"])
        except ToolkitError as exc:
            raise ParseFailure(index, f"material {mol['material_id']!r}: {exc}") from exc
    schema = descriptors.fit_schema(
        [graphs[m["material_id"]] for m in molecules], include_density=args.density
    )
    lines = ["material_id," + ",".join(schema.names)]
    for mol in molecules:
        density = mol["density"] if args.density else None
        if args.density and density is None:
            raise MissingDensity(f"material {mol['material_id']!r} has no density")
        vector = descriptors.featurize(graphs[mol["material_id"]], schema, density)
        lines.append(mol["material_id"] + "," + ",".join(f"{v:.12g}" for v in vector.values))
    (out_dir / "features.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "schema_manifest.json").write_text(
        json.dumps(schema.manifest(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"featurized {len(molecules)} molecules -> {out_dir / 'features.csv'}")
    return 0


def cmd_correlate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = _load_registry(args.registry)
    data = ds.load_records(args.data, registry, dedupe=args.dedupe)
    labels, r_matrix, overlap = ds.pearson_matrix(data)
    for name, text in evaluation.correlation_tables(labels, r_matrix, overlap).items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(f"wrote correlation matrices for {len(labels)} channels -> {out_dir}")
    return 0


def _prepare_design(args):
    registry = _load_registry(args.registry)
    data = ds.load_records(args.data, registry, dedupe=args.dedupe)
    subset_id = _parse_subset(args.subset)
    subset = ds.subset_filter(data, subset_id)
    corpus = [subset.graphs[m] for m in sorted(subset.graphs)]
    schema = descriptors.fit_schema(corpus, include_density=args.density)
    design = ds.assemble(subset, schema)
    return data, subset, subset_id, schema, design


def _family_design(args, subset: ds.Dataset, design: ds.DesignMatrix) -> ds.DesignMatrix:
    """The design a family fits: single-task families see only --channel."""
    if args.family not in ("st-rf", "st-nn"):
        return design
    if not args.channel:
        raise InvalidConfig(f"--channel is required for family {args.family}")
    prop, _, fidelity = args.channel.partition(":")
    channel = subset.registry.lookup(prop, fidelity)
    return evaluation.single_channel_design(design, subset.registry.index_of(channel))


def cmd_tune(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mt_grid, forest_grid, base_train = _load_grids(args.grid)
    _, subset, subset_id, schema, design = _prepare_design(args)
    design = _family_design(args, subset, design)

    if args.family == "st-rf":
        result = evaluation.forest_grid_search(forest_grid, design, inner_k=args.folds,
                                               seed=args.seed)
    else:
        result = mtnn.grid_search(mt_grid, design, base_train, inner_k=args.folds,
                                  seed=args.seed)
    winner = {**{k: list(v) if isinstance(v, tuple) else v
                 for k, v in result.best_cell.items()},
              "mean_val_rmse": result.best_score}

    columns = list(result.table[0].keys())
    lines = [",".join(columns)]
    for row in result.table:
        lines.append(",".join(_cell_text(row[c]) for c in columns))
    (out_dir / "grid_table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "winner.json").write_text(
        json.dumps(winner, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(out_dir, "tune", _options(args), {"data": args.data, "grid": args.grid,
                    "registry": args.registry}, {"schema": schema.manifest()}, started)
    print(f"tuned {args.family} on subset {subset_id}: winner -> {out_dir / 'winner.json'}")
    return 0


def _cell_text(value) -> str:
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


def cmd_train(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mt_grid, forest_grid, base_train = _load_grids(args.grid)
    _, subset, subset_id, schema, design = _prepare_design(args)
    design = _family_design(args, subset, design)

    if args.family == "st-rf":
        search = evaluation.forest_grid_search(forest_grid, design, inner_k=args.folds,
                                               seed=args.seed)
        config = rf.ForestConfig(seed=derive_seed(args.seed, 3), **search.best_cell)
        model = rf.fit_forest(design.features, design.targets, config)
        bundle = pipeline.ModelBundle(kind="forest", registry=design.registry,
                                      schema=schema, forest=model)
        model_path = out_dir / "model.emrf"
    else:
        search = mtnn.grid_search(mt_grid, design, base_train, inner_k=args.folds,
                                  seed=args.seed)
        all_rows = np.ones(len(design.targets), dtype=bool)
        standardizer, result = mtnn.fit_network(design, all_rows, search.best_cell, base_train,
                                                derive_seed(args.seed, 3),
                                                derive_seed(args.seed, 5))
        bundle = pipeline.ModelBundle(kind="mtnn", registry=design.registry, schema=schema,
                                      net=result.net, standardizer=standardizer)
        model_path = out_dir / "model.emmt"

    pipeline.save_model(model_path, bundle)
    _write_manifest(out_dir, "train", _options(args), {"data": args.data, "grid": args.grid,
                    "registry": args.registry}, {"schema": schema.manifest()}, started)
    print(f"trained {args.family} on subset {subset_id} -> {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = _load_registry(args.registry)
    data = ds.load_records(args.data, registry, dedupe=args.dedupe)
    subset_id = _parse_subset(args.subset)
    seeds = _parse_seeds(args.seeds)
    mt_grid, forest_grid, base_train = _load_grids(args.grid)
    families = [f.strip() for f in args.models.split(",") if f.strip()]
    for family in families:
        if family not in evaluation.MODEL_FAMILIES:
            raise InvalidConfig(f"unknown model family {family!r}")

    reports = []
    for family in families:
        reports.append(
            evaluation.run_protocol(
                family, data, subset_id, args.density, seeds=seeds, k=args.folds,
                grid=mt_grid, forest_grid=forest_grid, base_train=base_train,
                inner_k=args.inner_folds,
            )
        )
    artifacts = evaluation.report_table(reports)
    for name, text in artifacts.items():
        (out_dir / name).write_text(text, encoding="utf-8")

    log_h50_key = "impact_h50:exp"
    if any(log_h50_key in report.channels for report in reports):
        table2 = _log_h50_table(reports, log_h50_key)
        (out_dir / "table2_log_h50.md").write_text(table2, encoding="utf-8")

    _write_manifest(out_dir, "evaluate", _options(args), {"data": args.data,
                    "grid": args.grid, "registry": args.registry}, None, started)
    print(f"evaluated {','.join(families)} on subset {subset_id} "
          f"({len(seeds)} seeds x {args.folds} folds) -> {out_dir}")
    return 0


def _log_h50_table(reports, key: str) -> str:
    lines = [
        "# Predictive accuracy on experimental log(h50)",
        "",
        "| Model | Test RMSE | Test R² |",
        "| --- | --- | --- |",
    ]
    rows = []
    for report in reports:
        metrics = report.channels.get(key)
        if metrics is None:
            continue
        rmse_mean, rmse_std, _ = metrics.rmse_mean_std
        r2_mean, r2_std, _ = metrics.r2_mean_std
        rows.append((rmse_mean, report.model_id,
                     evaluation.format_mean_std(rmse_mean, rmse_std),
                     evaluation.format_mean_std(r2_mean, r2_std)))
    rows.sort(key=lambda row: (float("inf") if row[0] != row[0] else row[0], row[1]))
    for _, model_id, rmse_text, r2_text in rows:
        lines.append(f"| {model_id} | {rmse_text} | {r2_text} |")
    return "\n".join(lines) + "\n"


def cmd_predict(args) -> int:
    bundle = pipeline.load_model(args.model)
    predictions = pipeline.predict_matrix(bundle, args.smiles, args.density)
    print("channel,prediction")
    for key, value in predictions.items():
        print(f"{key},{value:.12g}")
    return 0


def cmd_screen(args) -> int:
    bundle = pipeline.load_model(args.model)
    prop, _, fidelity = args.by.partition(":")
    channel = bundle.registry.lookup(prop, fidelity)  # validates the channel
    molecules = _read_molecules(args.data)
    ranked = []
    for mol in molecules:
        predictions = pipeline.predict_matrix(bundle, mol["smiles"], mol["density"])
        ranked.append((mol["material_id"], mol["smiles"], predictions[channel.key]))
    # descending by prediction, stable tie order by material_id
    ranked.sort(key=lambda row: row[0])
    ranked.sort(key=lambda row: row[2], reverse=True)
    lines = ["material_id,smiles,predicted_" + channel.key.replace(":", "_")]
    lines += [f"{m},{s},{v:.12g}" for m, s, v in ranked]
    text = "\n".join(lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "screening.csv").write_text(text, encoding="utf-8")
        print(f"ranked {len(ranked)} candidates by {channel.key} -> {out_dir / 'screening.csv'}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _options(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _add_common_data_flags(parser, *, subset: bool = True) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--registry", default=None, help="channel registry JSON (default: built-in)")
    parser.add_argument("--dedupe", choices=("error", "mean"), default="error",
                        help="duplicate (material, channel) handling")
    if subset:
        parser.add_argument("--subset", default="all", help="output subset 1..6 or 'all'")
        parser.add_argument("--density", action=argparse.BooleanOptionalAction, default=False,
                            help="append density as a descriptor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emprops",
        description="Featurize energetic molecules and train/evaluate property models.",
    )
    parser.add_argument("--version", action="version", version=f"emprops {emprops.__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("featurize", help="emit descriptor CSV and schema manifest")
    p.add_argument("--data", required=True, help="CSV with material_id, smiles[, density]")
    p.add_argument("--density", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = commands.add_parser("correlate", help="channel correlation / overlap matrices")
    _add_common_data_flags(p, subset=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = commands.add_parser("tune", help="hyperparameter grid search")
    _add_common_data_flags(p)
    p.add_argument("--family", choices=evaluation.MODEL_FAMILIES, default="mt-nn")
    p.add_argument("--channel", default=None, help="property:fidelity (single-task only)")
    p.add_argument("--grid", default=None, help="grid JSON file")
    p.add_argument("--folds", type=int, default=5, help="inner CV folds")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = commands.add_parser("train", help="fit a final model on the full dataset")
    _add_common_data_flags(p)
    p.add_argument("--family", choices=evaluation.MODEL_FAMILIES, default="mt-nn")
    p.add_argument("--channel", default=None, help="property:fidelity (single-task only)")
    p.add_argument("--grid", default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("evaluate", help="full cross-validation protocol and reports")
    _add_common_data_flags(p)
    p.add_argument("--models", default="st-rf,st-nn,mt-nn",
                   help="comma-separated families to compare")
    p.add_argument("--seeds", default=DEFAULT_SEEDS, help="comma-separated split seeds")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--inner-folds", type=int, default=5)
    p.add_argument("--grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("predict", help="per-channel predictions for one SMILES")
    p.add_argument("--model", required=True)
    p.add_argument("--smiles", required=True)
    p.add_argument("--density", type=float, default=None)
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("screen", help="rank candidate molecules by one channel")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV with material_id, smiles[, density]")
    p.add_argument("--by", required=True, help="channel as property:fidelity")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_screen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
