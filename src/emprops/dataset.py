"""Property channels, record ingestion, splits, standardization, and the
cross-property correlation analysis.

A channel is one (property, fidelity) pair; its position in the registry
is the selector index of the multi-task model, so registry order is part
of a trained model's contract and is persisted verbatim.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from emprops import descriptors
from emprops.errors import (
    DuplicateRecord,
    InvalidConfig,
    MissingDensity,
    NonPositiveForLog,
    ParseFailure,
    TooFewMaterials,
    ToolkitError,
    UnknownChannel,
    UnknownSubset,
)
from emprops.molgraph import MolGraph, parse_smiles
from emprops.rng import SplitMix64

PROPERTIES = (
    "det_velocity",
    "det_pressure",
    "heat_detonation",
    "gurney_energy",
    "impact_h50",
    "impact_e50",
    "heat_form_crystal",
    "heat_sublimation",
    "heat_form_gas",
)

FIDELITIES = ("exp", "calc")
TRANSFORMS = ("none", "log10")


@dataclass(frozen=True)
class PropertyChannel:
    property: str
    fidelity: str
    unit: str = ""
    transform: str = "none"

    def __post_init__(self) -> None:
        if self.property not in PROPERTIES:
            raise UnknownChannel(f"unknown property {self.property!r}")
        if self.fidelity not in FIDELITIES:
            raise UnknownChannel(f"unknown fidelity {self.fidelity!r}")
        if self.transform not in TRANSFORMS:
            raise InvalidConfig(f"unknown transform {self.transform!r}")
        if self.property == "impact_h50" and self.transform != "log10":
            raise InvalidConfig("impact_h50 must use the log10 transform")

    @property
    def key(self) -> str:
        return f"{self.property}:{self.fidelity}"

    def apply_transform(self, value: float) -> float:
        if self.transform == "log10":
            if value <= 0:
                raise NonPositiveForLog(f"{self.key} value {value} is not positive")
            return math.log10(value)
        return value

    def invert_transform(self, value: float) -> float:
        if self.transform == "log10":
            return 10.0 ** value
        return value


@dataclass(frozen=True)
class PropertyRegistry:
    channels: tuple[PropertyChannel, ...]

    def __post_init__(self) -> None:
        keys = [channel.key for channel in self.channels]
        if len(set(keys)) != len(keys):
            raise InvalidConfig("duplicate (property, fidelity) channel in registry")

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    def index_of(self, channel: PropertyChannel) -> int:
        for i, existing in enumerate(self.channels):
            if existing.key == channel.key:
                return i
        raise UnknownChannel(f"channel {channel.key} not in registry")

    def lookup(self, prop: str, fidelity: str) -> PropertyChannel:
        for channel in self.channels:
            if channel.property == prop and channel.fidelity == fidelity:
                return channel
        raise UnknownChannel(f"channel {prop}:{fidelity} not in registry")

    def to_json(self) -> list[dict]:
        return [
            {
                "property": c.property,
                "fidelity": c.fidelity,
                "unit": c.unit,
                "transform": c.transform,
            }
            for c in self.channels
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "PropertyRegistry":
        return cls(
            channels=tuple(
                PropertyChannel(
                    property=entry["property"],
                    fidelity=entry["fidelity"],
                    unit=entry.get("unit", ""),
                    transform=entry.get("transform", "none"),
                )
                for entry in data
            )
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PropertyRegistry":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def default_registry() -> PropertyRegistry:
    """The default eleven channels: five experimental and six calculated.
    Units are metadata only; no conversion is performed."""
    return PropertyRegistry(
        channels=(
            PropertyChannel("det_velocity", "exp", "km/s"),
            PropertyChannel("det_pressure", "exp", "GPa"),
            PropertyChannel("heat_detonation", "exp", "kJ/g"),
            PropertyChannel("impact_h50", "exp", "cm", "log10"),
            PropertyChannel("heat_form_crystal", "exp", "kJ/mol"),
            PropertyChannel("det_velocity", "calc", "km/s"),
            PropertyChannel("det_pressure", "calc", "GPa"),
            PropertyChannel("heat_detonation", "calc", "kJ/g"),
            PropertyChannel("gurney_energy", "calc", "kJ/g"),
            PropertyChannel("heat_sublimation", "calc", "kJ/mol"),
            PropertyChannel("heat_form_gas", "calc", "kJ/mol"),
        )
    )


@dataclass(frozen=True)
class Record:
    material_id: str
    smiles: str
    channel: PropertyChannel
    value: float
    density: float | None = None

    @property
    def transformed_value(self) -> float:
        return self.channel.apply_transform(self.value)


@dataclass
class Dataset:
    registry: PropertyRegistry
    records: list[Record]
    graphs: dict[str, MolGraph] = field(default_factory=dict)

    @property
    def material_ids(self) -> list[str]:
        return sorted({record.material_id for record in self.records})


CSV_COLUMNS = ("material_id", "smiles", "property", "fidelity", "value", "density")


def parse_density(text: str | None, row: int) -> float | None:
    """A CSV density cell: None when blank, else a finite positive number;
    anything else raises ParseFailure for the 1-based data row."""
    text = (text or "").strip()
    if not text:
        return None
    try:
        density = float(text)
    except ValueError:
        raise ParseFailure(row, f"bad density {text!r}") from None
    if not math.isfinite(density) or density <= 0:
        raise ParseFailure(row, f"density {text!r} is not a finite positive number")
    return density


def load_records(path: str | Path, registry: PropertyRegistry, dedupe: str = "error") -> Dataset:
    """Load the documented CSV schema into a Dataset.

    SMILES are parsed eagerly so malformed rows fail at load time, with
    the 1-based data row attached. Duplicate (material, channel) pairs are
    an error by default; dedupe="mean" averages them instead.
    """
    if dedupe not in ("error", "mean"):
        raise InvalidConfig(f"dedupe must be 'error' or 'mean', got {dedupe!r}")

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ParseFailure(0, "missing CSV header")
        missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseFailure(0, f"missing required columns: {missing}")
        rows = list(reader)

    graphs: dict[str, MolGraph] = {}
    smiles_by_material: dict[str, str] = {}
    grouped: dict[tuple[str, str], list[Record]] = {}

    for row_number, row in enumerate(rows, start=1):
        material = (row["material_id"] or "").strip()
        if not material:
            raise ParseFailure(row_number, "empty material_id")
        smiles = (row["smiles"] or "").strip()
        if not smiles:
            raise ParseFailure(row_number, "empty smiles")
        prop = (row["property"] or "").strip()
        fidelity = (row["fidelity"] or "").strip()
        try:
            channel = registry.lookup(prop, fidelity)
        except UnknownChannel as exc:
            raise UnknownChannel(f"row {row_number}: {exc}") from exc
        try:
            value = float(row["value"])
        except (TypeError, ValueError):
            raise ParseFailure(row_number, f"bad value {row['value']!r}")
        if not math.isfinite(value):
            raise ParseFailure(row_number, f"non-finite value {value!r}")
        density = parse_density(row.get("density"), row_number)

        if material in smiles_by_material:
            if smiles_by_material[material] != smiles:
                raise ParseFailure(row_number, f"conflicting SMILES for material {material!r}")
        else:
            try:
                graphs[material] = parse_smiles(smiles)
            except ToolkitError as exc:
                raise ParseFailure(row_number, f"SMILES {smiles!r}: {exc}") from exc
            smiles_by_material[material] = smiles

        if channel.transform == "log10" and value <= 0:
            raise NonPositiveForLog(f"row {row_number}: {channel.key} value {value} is not positive")

        record = Record(material_id=material, smiles=smiles, channel=channel,
                        value=value, density=density)
        grouped.setdefault((material, channel.key), []).append(record)

    records: list[Record] = []
    for (material, channel_key), bucket in grouped.items():
        if len(bucket) == 1:
            records.append(bucket[0])
            continue
        if dedupe == "error":
            raise DuplicateRecord(
                f"{len(bucket)} records for material {material!r} channel {channel_key}"
            )
        densities = [r.density for r in bucket if r.density is not None]
        records.append(
            Record(
                material_id=material,
                smiles=bucket[0].smiles,
                channel=bucket[0].channel,
                value=sum(r.value for r in bucket) / len(bucket),
                density=sum(densities) / len(densities) if densities else None,
            )
        )
    return Dataset(registry=registry, records=records, graphs=graphs)


def selector_onehot(channel: PropertyChannel, registry: PropertyRegistry) -> np.ndarray:
    out = np.zeros(len(registry), dtype=np.float64)
    out[registry.index_of(channel)] = 1.0
    return out


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    k: int
    assignment: dict[str, int]

    def fold_materials(self, fold: int) -> set[str]:
        return {m for m, f in self.assignment.items() if f == fold}

    def train_test(self, fold: int) -> tuple[set[str], set[str]]:
        test = self.fold_materials(fold)
        train = set(self.assignment) - test
        return train, test


def kfold_by_material(material_ids: list[str], k: int, seed: int) -> SplitPlan:
    """Material-level folds: sort ids, Fisher-Yates shuffle with
    splitmix64(seed), deal round-robin. All records of one material land in
    one fold, so no molecule can straddle train and test."""
    ids = sorted(set(material_ids))
    if len(ids) < k:
        raise TooFewMaterials(f"{len(ids)} materials < {k} folds")
    rng = SplitMix64(seed)
    rng.shuffle(ids)
    assignment = {material: position % k for position, material in enumerate(ids)}
    return SplitPlan(seed=seed, k=k, assignment=assignment)


@dataclass
class GridResult:
    best_cell: dict
    best_score: float
    table: list[dict]  # one row per cell: cell params + mean_val_rmse


def cv_select(cells: list[dict], design: DesignMatrix, inner_k: int, seed: int,
              score: Callable[[int, int, np.ndarray, np.ndarray], float]) -> GridResult:
    """Inner k-fold selection over hyperparameter cells, for every model family.

    Folds are material-level (kfold_by_material); a fold with no train or
    no validation rows is skipped. score(cell_index, fold, train_rows,
    val_rows) returns one fold's validation RMSE, and a cell scores the
    mean over its folds: +inf with none, NaN when any fold is NaN, so such
    a cell never wins. The lowest mean wins and ties go to the earliest
    cell; when no cell has a finite score, cell 0 is chosen with +inf.
    """
    if not cells:
        raise InvalidConfig("empty hyperparameter grid")
    plan = kfold_by_material(design.material_ids, inner_k, seed)
    folds = []
    for fold in range(inner_k):
        train_mats, val_mats = plan.train_test(fold)
        train_rows = design.rows_for(train_mats)
        val_rows = design.rows_for(val_mats)
        if train_rows.any() and val_rows.any():
            folds.append((fold, train_rows, val_rows))

    result = GridResult(best_cell=cells[0], best_score=math.inf, table=[])
    for cell_index, cell in enumerate(cells):
        fold_scores = [score(cell_index, fold, train_rows, val_rows)
                       for fold, train_rows, val_rows in folds]
        mean_score = float(np.mean(fold_scores)) if fold_scores else math.inf
        result.table.append({**cell, "mean_val_rmse": mean_score})
        if mean_score < result.best_score:
            result.best_cell = cell
            result.best_score = mean_score
    return result


@dataclass
class Standardizer:
    """Z-scoring for features and per-channel transformed targets.

    Fitted on training folds only. Constant columns are flagged and pass
    through as zero after centering.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    feature_constant: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray
    target_constant: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray, targets: np.ndarray, channel_idx: np.ndarray,
            n_channels: int) -> "Standardizer":
        fmean = features.mean(axis=0)
        fstd = features.std(axis=0)
        fconst = fstd == 0.0
        fstd = np.where(fconst, 1.0, fstd)

        tmean = np.zeros(n_channels)
        tstd = np.ones(n_channels)
        tconst = np.zeros(n_channels, dtype=bool)
        for c in range(n_channels):
            mask = channel_idx == c
            if not np.any(mask):
                tconst[c] = True
                continue
            values = targets[mask]
            tmean[c] = values.mean()
            std = values.std()
            if std == 0.0:
                tconst[c] = True
            else:
                tstd[c] = std
        return cls(fmean, fstd, fconst, tmean, tstd, tconst)

    def apply_features(self, features: np.ndarray) -> np.ndarray:
        return (features - self.feature_mean) / self.feature_std

    def apply_targets(self, targets: np.ndarray, channel_idx: np.ndarray) -> np.ndarray:
        return (targets - self.target_mean[channel_idx]) / self.target_std[channel_idx]

    def invert_targets(self, standardized: np.ndarray, channel_idx: np.ndarray) -> np.ndarray:
        return standardized * self.target_std[channel_idx] + self.target_mean[channel_idx]

    def to_json(self) -> dict:
        return {
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
            "feature_constant": self.feature_constant.astype(int).tolist(),
            "target_mean": self.target_mean.tolist(),
            "target_std": self.target_std.tolist(),
            "target_constant": self.target_constant.astype(int).tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Standardizer":
        return cls(
            feature_mean=np.asarray(data["feature_mean"], dtype=np.float64),
            feature_std=np.asarray(data["feature_std"], dtype=np.float64),
            feature_constant=np.asarray(data["feature_constant"], dtype=bool),
            target_mean=np.asarray(data["target_mean"], dtype=np.float64),
            target_std=np.asarray(data["target_std"], dtype=np.float64),
            target_constant=np.asarray(data["target_constant"], dtype=bool),
        )


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson r; NaN when undefined (fewer than 2 points or zero variance)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise InvalidConfig("pearson needs equal-length vectors")
    if len(x) < 2:
        return float("nan")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return float("nan")
    return float(dx @ dy) / denom


def pearson_matrix(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Channel-by-channel Pearson r over shared materials plus overlap counts.

    r is computed on transformed values; cells with fewer than two shared
    materials are NaN.
    """
    channels = list(dataset.registry)
    values: list[dict[str, float]] = []
    for channel in channels:
        per_material: dict[str, float] = {}
        for record in dataset.records:
            if record.channel.key == channel.key:
                per_material[record.material_id] = record.transformed_value
        values.append(per_material)

    n = len(channels)
    r_matrix = np.full((n, n), np.nan)
    overlap = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            shared = sorted(set(values[i]) & set(values[j]))
            overlap[i, j] = len(shared)
            if len(shared) >= 2:
                xi = np.array([values[i][m] for m in shared])
                yj = np.array([values[j][m] for m in shared])
                r_matrix[i, j] = pearson(xi, yj)
    return [channel.key for channel in channels], r_matrix, overlap


# Output property subsets. D, P, and Q_ex enter with both fidelities when
# present; Gurney energy is calculated only.
_DETONATION = (
    ("det_velocity", "exp"),
    ("det_velocity", "calc"),
    ("det_pressure", "exp"),
    ("det_pressure", "calc"),
    ("heat_detonation", "exp"),
    ("heat_detonation", "calc"),
    ("gurney_energy", "calc"),
)
_SENSITIVITY = (("impact_h50", "exp"),)
_THERMO = (
    ("heat_sublimation", "calc"),
    ("heat_form_gas", "calc"),
    ("heat_form_crystal", "exp"),
)

SUBSET_CHANNELS: dict[int, tuple[tuple[str, str], ...]] = {
    1: _DETONATION,
    2: _DETONATION + _SENSITIVITY,
    3: _DETONATION + _THERMO,
    4: _THERMO,
    5: _SENSITIVITY + _THERMO,
}


def subset_filter(dataset: Dataset, subset_id: int) -> Dataset:
    """Restrict registry and records to one of the six output subsets.

    Subset 6 is the identity. The registry keeps its original channel
    order, so selector indices stay stable within the filtered view.
    """
    if subset_id == 6:
        return dataset
    if subset_id not in SUBSET_CHANNELS:
        raise UnknownSubset(f"subset must be 1..6, got {subset_id!r}")
    wanted = set(SUBSET_CHANNELS[subset_id])
    channels = tuple(
        c for c in dataset.registry if (c.property, c.fidelity) in wanted
    )
    registry = PropertyRegistry(channels=channels)
    keys = {c.key for c in channels}
    records = [r for r in dataset.records if r.channel.key in keys]
    materials = {r.material_id for r in records}
    graphs = {m: g for m, g in dataset.graphs.items() if m in materials}
    return Dataset(registry=registry, records=records, graphs=graphs)


@dataclass
class DesignMatrix:
    """Record-aligned training arrays assembled from a dataset."""

    features: np.ndarray       # (n_records, n_features) raw descriptor values
    channel_idx: np.ndarray    # (n_records,) registry index per record
    targets: np.ndarray        # (n_records,) transformed target values
    material_ids: list[str]
    registry: PropertyRegistry

    def rows_for(self, materials: set[str]) -> np.ndarray:
        return np.array([m in materials for m in self.material_ids], dtype=bool)


def assemble(dataset: Dataset, schema: descriptors.FeatureSchema) -> DesignMatrix:
    """Featurize every record against a fitted schema.

    The descriptor part is computed once per material; the density slot
    (when present) is filled per record, since densities ride on records.
    """
    base_cache: dict[str, np.ndarray] = {}
    rows = []
    channel_idx = []
    targets = []
    material_ids = []
    for record in dataset.records:
        graph = dataset.graphs.get(record.material_id)
        if graph is None:
            graph = parse_smiles(record.smiles)
            dataset.graphs[record.material_id] = graph
        if record.material_id not in base_cache:
            base_schema = descriptors.FeatureSchema(
                bond_vocabulary=schema.bond_vocabulary, include_density=False
            )
            base_cache[record.material_id] = descriptors.featurize(graph, base_schema).values
        base = base_cache[record.material_id]
        if schema.include_density:
            if record.density is None:
                raise MissingDensity(
                    f"material {record.material_id!r} has no density but the schema needs one"
                )
            row = np.concatenate([base, [record.density]])
        else:
            row = base
        rows.append(row)
        channel_idx.append(dataset.registry.index_of(record.channel))
        targets.append(record.transformed_value)
        material_ids.append(record.material_id)
    return DesignMatrix(
        features=np.asarray(rows, dtype=np.float64),
        channel_idx=np.asarray(channel_idx, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.float64),
        material_ids=material_ids,
        registry=dataset.registry,
    )
