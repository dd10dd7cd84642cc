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
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import emprops
from emprops import dataset as ds
from emprops import descriptors, evaluation, pipeline
from emprops.errors import EmptyData, InvalidConfig, MissingFile, ParseFailure, ToolkitError
from emprops.rng import derive_seed

DEFAULT_SEEDS = "1,2,3"
INPUT_FLAGS = ("data", "grid", "registry", "model")  # the flags that name input files


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


def _write_manifest(out_dir: Path, args, started: float, extra: dict | None = None) -> None:
    """manifest.json: the command, its options, the checksum of every input
    file it names, and the time it took."""
    manifest = {
        "tool": "emprops",
        "tool_version": emprops.__version__,
        "command": args.command,
        "options": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {flag: _sha256(getattr(args, flag)) for flag in INPUT_FLAGS
                   if getattr(args, flag, None)},
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@contextmanager
def _naming(mol: ds.Molecule):
    """Prefix a ToolkitError raised inside with the material and its CSV
    data row; the class, which is the error code, stays."""
    try:
        yield
    except ToolkitError as exc:
        raise type(exc)(f"material {mol.material_id!r} (row {mol.row}): {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_featurize(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    molecules = ds.read_molecules(args.data)
    perceptions = ds.perceive_molecules(molecules)
    for perception in perceptions:
        if isinstance(perception, ParseFailure):
            raise perception
    schema = descriptors.fit_schema(perceptions, include_density=args.density)
    lines = ["material_id," + ",".join(schema.names)]
    for mol, perception in zip(molecules, perceptions):
        with _naming(mol):
            vector = perception.row(schema, mol.density if args.density else None)
        lines.append(mol.material_id + "," + ",".join(f"{v:.12g}" for v in vector))
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


def _load_design(args):
    """(subset id, subset, schema, design) of --data, --registry, --dedupe,
    --subset and --density: the one design a command fits. Only the
    subset's molecules are perceived."""
    registry = _load_registry(args.registry)
    subset_id = _parse_subset(args.subset)
    data = ds.load_records(args.data, registry, dedupe=args.dedupe, subset_id=subset_id)
    return (subset_id, *ds.build_design(data, subset_id, args.density))


def _prepare_fit(args):
    """(subset id, schema, design, fit) of tune and train: one Fit of
    --family on every row of its channels of the design, seeded by --seed.
    Single-task families fit only --channel, which mt-nn, fitting every
    channel, does not take, and which must hold records in the subset."""
    single_task = args.family in ("st-rf", "st-nn")
    if single_task and not args.channel:
        raise InvalidConfig(f"--channel is required for family {args.family}")
    if not single_task and args.channel:
        raise InvalidConfig(f"--channel applies to st-rf and st-nn only, not {args.family}")
    subset_id, subset, schema, design = _load_design(args)
    channels = range(len(design.registry))
    if single_task:
        prop, _, fidelity = args.channel.partition(":")
        position = subset.registry.index_of(subset.registry.lookup(prop, fidelity))
        channels = range(position, position + 1)
    rows = design.channel_rows(channels)
    if single_task and not rows.any():
        raise EmptyData(f"channel {args.channel} has no records in subset {subset_id}")
    return subset_id, schema, design, evaluation.Fit(args.family, channels, rows,
                                                     np.zeros_like(rows), args.seed,
                                                     derive_seed(args.seed, 5))


def cmd_tune(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grids = evaluation.Grids.load(args.grid)
    subset_id, schema, design, fit = _prepare_fit(args)

    (result,) = evaluation.select(design, [fit], grids, args.folds)
    if isinstance(result, ToolkitError):
        raise result
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
    _write_manifest(out_dir, args, started, {"schema": schema.manifest()})
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
    grids = evaluation.Grids.load(args.grid)
    subset_id, schema, design, fit = _prepare_fit(args)

    (bundle,) = evaluation.fit_all(design, [fit], schema, grids, args.folds)
    model_path = out_dir / ("model.emrf" if bundle.kind == "forest" else "model.emmt")
    pipeline.save_model(model_path, bundle)
    _write_manifest(out_dir, args, started, {"schema": schema.manifest()})
    print(f"trained {args.family} on subset {subset_id} -> {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = _parse_seeds(args.seeds)
    grids = evaluation.Grids.load(args.grid)
    families = [f.strip() for f in args.models.split(",") if f.strip()]
    for family in families:
        if family not in evaluation.MODEL_FAMILIES:
            raise InvalidConfig(f"unknown model family {family!r}")
    subset_id, _, schema, design = _load_design(args)

    reports = [evaluation.run_protocol(family, schema, design, subset_id, seeds=seeds,
                                       k=args.folds, grids=grids, inner_k=args.inner_folds)
               for family in families]
    for name, text in evaluation.report_table(reports).items():
        (out_dir / name).write_text(text, encoding="utf-8")

    _write_manifest(out_dir, args, started)
    print(f"evaluated {','.join(families)} on subset {subset_id} "
          f"({len(seeds)} seeds x {args.folds} folds) -> {out_dir}")
    return 0


def cmd_predict(args) -> int:
    if args.density is not None and not ds.valid_density(args.density):
        raise InvalidConfig(f"--density {args.density!r} is not a finite positive number")
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
    ranked = []
    molecules = ds.read_molecules(args.data)
    for mol, perception in zip(molecules, ds.perceive_molecules(molecules)):
        if isinstance(perception, ParseFailure):
            raise perception
        with _naming(mol):
            predictions = pipeline.predict_matrix(bundle, perception, mol.density)
        ranked.append((mol.material_id, mol.smiles, predictions[channel.key]))
    # descending by prediction, ties by material_id; NaN (a forest's empty
    # leaf) breaks the float order, so NaN rows go last
    ranked.sort(key=lambda row: (math.isnan(row[2]), 0.0 if math.isnan(row[2]) else -row[2],
                                 row[0]))
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


def _check_input_files(args) -> None:
    """Every input file named by --data, --grid, --registry or --model must exist."""
    for flag in INPUT_FLAGS:
        path = getattr(args, flag, None)
        if path is not None and not Path(path).is_file():
            raise MissingFile(path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_input_files(args)
        return args.func(args)
    except ToolkitError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
