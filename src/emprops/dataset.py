"""Property channels, the molecule CSV reader, record ingestion,
material-level fold labels, standardization, and the cross-property
correlation analysis.

A channel is one (property, fidelity) pair; its position in the registry
is the selector index of the multi-task model, so registry order is part
of a trained model's contract and is persisted verbatim. A split is one
fold label per design row (kfold_by_material): the rows of a fold are
those whose label equals it, and every row of a material shares a label.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from emprops import descriptors, workers
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
from emprops.molgraph import parse_smiles
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
        """Undo the transform; 10^value past the float range is inf."""
        if self.transform == "log10":
            try:
                return 10.0 ** value
            except OverflowError:
                return math.inf
        return value


@dataclass(frozen=True)
class PropertyRegistry:
    channels: tuple[PropertyChannel, ...]

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.channels):
            raise InvalidConfig("duplicate (property, fidelity) channel in registry")

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    @cached_property
    def positions(self) -> dict[tuple[str, str], int]:
        """The position of each (property, fidelity), built once per registry."""
        return {(c.property, c.fidelity): pos for pos, c in enumerate(self.channels)}

    def index_of(self, channel: PropertyChannel) -> int:
        position = self.positions.get((channel.property, channel.fidelity))
        if position is None:
            raise UnknownChannel(f"channel {channel.key!r} not in registry")
        return position

    def lookup(self, prop: str, fidelity: str) -> PropertyChannel:
        position = self.positions.get((prop, fidelity))
        if position is None:
            raise UnknownChannel(f"channel {prop + ':' + fidelity!r} not in registry")
        return self.channels[position]

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
        try:
            channels = tuple(
                PropertyChannel(
                    property=entry["property"],
                    fidelity=entry["fidelity"],
                    unit=entry.get("unit", ""),
                    transform=entry.get("transform", "none"),
                )
                for entry in data
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidConfig(f"malformed registry entry ({type(exc).__name__}: {exc})") from exc
        return cls(channels=channels)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PropertyRegistry":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
            raise InvalidConfig(f"registry file {path}: {exc}") from exc
        return cls.from_json(data)


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
    perceptions: dict[str, descriptors.Perception]  # of the records' materials, for a subset


CSV_COLUMNS = ("material_id", "smiles", "property", "fidelity", "value", "density")
MOLECULE_COLUMNS = ("material_id", "smiles")  # density is optional


def valid_density(density: float) -> bool:
    """The one density rule, for CSV cells and the predict flag alike."""
    return math.isfinite(density) and density > 0


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
    if not valid_density(density):
        raise ParseFailure(row, f"density {text!r} is not a finite positive number")
    return density


@dataclass(frozen=True)
class Molecule:
    """One row's material, SMILES and density, with its 1-based data row."""

    material_id: str
    smiles: str
    density: float | None
    row: int


def _utf8_lines(handle):
    """The lines of a file opened with errors="surrogateescape", where a
    byte that is not UTF-8 reads as a lone surrogate; a line holding one
    is a csv.Error."""
    for line in handle:
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise csv.Error("bytes that are not UTF-8 text") from None
        yield line


def _csv_molecules(path: str | Path, columns: tuple[str, ...]):
    """(CSV row, Molecule) per data row of a CSV that has the columns: the
    one reader of every molecule CSV. A leading UTF-8 byte-order mark, as
    spreadsheets save "CSV UTF-8", is skipped. A missing header or column,
    bytes that are not UTF-8, a row the csv module cannot read (such as a
    field over its size limit), an empty material_id or smiles, a bad
    density, or a material whose SMILES differs from its first row's is
    ParseFailure for the data row (0 for the header)."""
    header, rows = None, []
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.DictReader(_utf8_lines(handle))
        try:
            header = reader.fieldnames
            if header is None:
                raise ParseFailure(0, "missing CSV header")
            missing = [c for c in columns if c not in header]
            if missing:
                raise ParseFailure(0, f"missing required columns: {missing}")
            for row in reader:
                rows.append(row)
        except csv.Error as exc:
            raise ParseFailure(0 if header is None else len(rows) + 1, str(exc)) from None

    smiles_by_material: dict[str, str] = {}
    for row_number, row in enumerate(rows, start=1):
        material = (row["material_id"] or "").strip()
        if not material:
            raise ParseFailure(row_number, "empty material_id")
        smiles = (row["smiles"] or "").strip()
        if not smiles:
            raise ParseFailure(row_number, "empty smiles")
        density = parse_density(row.get("density"), row_number)
        if smiles_by_material.setdefault(material, smiles) != smiles:
            raise ParseFailure(row_number, f"conflicting SMILES for material {material!r}")
        yield row, Molecule(material, smiles, density, row_number)


def read_molecules(path: str | Path) -> list[Molecule]:
    """The materials of a CSV with material_id, smiles and optionally
    density columns, in order of first appearance. A material listed again
    keeps its first row and takes the first density given for it. SMILES
    are not parsed here (perceive_molecules)."""
    molecules: dict[str, Molecule] = {}
    for _, molecule in _csv_molecules(path, MOLECULE_COLUMNS):
        first = molecules.setdefault(molecule.material_id, molecule)
        if first.density is None and molecule.density is not None:
            molecules[molecule.material_id] = replace(first, density=molecule.density)
    return list(molecules.values())


# The fewest distinct SMILES perceive_molecules gives a forked part. A fork
# round trip took about 2.7 ms on a two-CPU host, where a molecule of the
# benchmark library takes about 130 us to parse and 320 us to parse and
# perceive; split at 64 SMILES or more, both were faster than one part, and
# at 16-48 perceiving was about even and parsing alone slower.
PERCEPTION_PART = 32


def _perceive_smiles(jobs: Sequence[tuple[str, bool]]
                     ) -> list[descriptors.Perception | ToolkitError | None]:
    """One part of perceive_molecules: for each (SMILES, perceive) job, the
    perception of the SMILES, or None when it is only parsed; or the error
    parse_smiles raised for it, as a value. The bare error goes back, since
    a ParseFailure does not survive pickling."""
    out: list[descriptors.Perception | ToolkitError | None] = []
    for text, perceive in jobs:
        try:
            graph = parse_smiles(text)
        except ToolkitError as exc:
            out.append(exc)
            continue
        out.append(descriptors.perceive(graph) if perceive else None)
    return out


def perceive_molecules(molecules: Sequence[Molecule], wanted: Collection[str] | None = None
                       ) -> list[descriptors.Perception | ParseFailure | None]:
    """The perception of each molecule whose material is in wanted (of every
    molecule when wanted is None), None for the others, or the ParseFailure
    of its SMILES for its row, returned as a value so that the caller
    raises it in its own order. Each distinct SMILES is parsed once, and
    perceived once if any of its materials is wanted. The distinct SMILES
    are split across the CPUs with workers.run, PERCEPTION_PART or more to
    a part, which gives every one the bits it gets alone."""
    jobs: dict[str, bool] = {}
    for molecule in molecules:
        want = wanted is None or molecule.material_id in wanted
        jobs[molecule.smiles] = jobs.get(molecule.smiles, False) or want
    outcomes = dict(zip(jobs, workers.run(_perceive_smiles, list(jobs.items()),
                                          min_part=PERCEPTION_PART)))
    perceived: list[descriptors.Perception | ParseFailure | None] = []
    for molecule in molecules:
        outcome = outcomes[molecule.smiles]
        if isinstance(outcome, ToolkitError):
            failure = ParseFailure(molecule.row, f"SMILES {molecule.smiles!r}: {outcome}")
            failure.__cause__ = outcome
            outcome = failure
        elif wanted is not None and molecule.material_id not in wanted:
            outcome = None
        perceived.append(outcome)
    return perceived


def load_records(path: str | Path, registry: PropertyRegistry, dedupe: str = "error",
                 subset_id: int | None = None) -> Dataset:
    """Load the documented CSV schema into the Dataset of one output subset
    (subset_registry), or of every channel when subset_id is None.

    Every SMILES is parsed at load time, so a malformed row fails here,
    with its 1-based data row attached. The rows are read and checked up to
    the first one that fails a check needing no molecule; then each
    distinct SMILES of the materials read is parsed once, across the CPUs
    (perceive_molecules), and perceived in the same pass, for build_design,
    if a material with a record in the subset has it; with no subset_id
    none is, since correlate reads only the records. Then the rows are
    replayed in order, so the error raised is the one a row-by-row reader
    meets first, and deduplicated: a repeated (material, channel) pair is
    an error by default; dedupe="mean" averages it. Only then are the
    records outside the subset dropped, so no error depends on the subset.
    """
    if dedupe not in ("error", "mean"):
        raise InvalidConfig(f"dedupe must be 'error' or 'mean', got {dedupe!r}")
    subset = registry if subset_id is None else subset_registry(registry, subset_id)
    keys = {c.key for c in subset}

    rows: list[tuple[Molecule, PropertyChannel, float]] = []
    stop: ToolkitError | None = None  # raised once the rows before it are replayed
    try:
        for row, molecule in _csv_molecules(path, CSV_COLUMNS):
            row_number = molecule.row
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
            rows.append((molecule, channel, value))
    except ToolkitError as exc:
        stop = exc

    # every row of a material has its SMILES, so its first row raises its failure
    wanted = () if subset_id is None else {
        molecule.material_id for molecule, channel, _ in rows if channel.key in keys}
    perceived = perceive_molecules([molecule for molecule, _, _ in rows], wanted)
    perceptions: dict[str, descriptors.Perception] = {}
    grouped: dict[tuple[str, str], list[Record]] = {}
    for (molecule, channel, value), perception in zip(rows, perceived):
        if isinstance(perception, ParseFailure):
            raise perception
        if perception is not None:
            perceptions[molecule.material_id] = perception
        if channel.transform == "log10" and value <= 0:
            raise NonPositiveForLog(f"row {molecule.row}: {channel.key} value {value} is not positive")

        record = Record(material_id=molecule.material_id, channel=channel, value=value,
                        density=molecule.density)
        grouped.setdefault((molecule.material_id, channel.key), []).append(record)
    if stop is not None:
        raise stop

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
                channel=bucket[0].channel,
                value=sum(r.value for r in bucket) / len(bucket),
                density=sum(densities) / len(densities) if densities else None,
            )
        )
    return Dataset(registry=subset, records=[r for r in records if r.channel.key in keys],
                   perceptions=perceptions)


def check_fold_count(k: int) -> None:
    if k < 2:
        raise InvalidConfig(f"need at least 2 folds, got {k}")


def kfold_by_material(material_ids: list[str], k: int, seed: int) -> np.ndarray:
    """The fold in 0..k-1 of each entry of material_ids, an intp array
    aligned with them. The distinct ids are sorted, Fisher-Yates shuffled
    with splitmix64(seed) and dealt round-robin, so every fold holds at
    least one material and every entry of a material shares its fold: no
    molecule can straddle train and test."""
    check_fold_count(k)
    ids = sorted(set(material_ids))  # not np.unique, which drops trailing NULs
    if len(ids) < k:
        raise TooFewMaterials(f"{len(ids)} materials < {k} folds")
    SplitMix64(seed).shuffle(ids)
    fold_of = {material: position % k for position, material in enumerate(ids)}
    return np.array([fold_of[material] for material in material_ids], dtype=np.intp)


@dataclass
class GridResult:
    best_cell: dict
    best_score: float
    table: list[dict]  # one row per cell: cell params + mean_val_rmse


def cv_select(cells: list[dict], scores) -> GridResult:
    """Inner k-fold selection over hyperparameter cells, for every model family.

    scores[cell_index] holds the cell's validation RMSE on each inner fold
    (kfold_by_material), and a cell scores their mean: NaN when any fold is NaN,
    so such a cell never wins. The lowest mean wins and ties go to the
    earliest cell; when no cell has a finite score, cell 0 is chosen with +inf.
    """
    if not cells:
        raise InvalidConfig("empty hyperparameter grid")
    result = GridResult(best_cell=cells[0], best_score=math.inf, table=[])
    for cell, fold_scores in zip(cells, scores, strict=True):
        mean_score = float(np.mean(fold_scores))
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
    with np.errstate(over="ignore", invalid="ignore"):
        sxx, syy, sxy = _moments(x, y)
        if sxx == 0.0 or syy == 0.0:
            return float("nan")
        overflow = not (math.isfinite(sxx * syy) and math.isfinite(sxy))
        if overflow and np.isfinite(x).all() and np.isfinite(y).all():
            # large values overflow the means, the products or the
            # denominator; r is scale-free
            sxx, syy, sxy = _moments(x / np.abs(x).max(), y / np.abs(y).max())
    denom = math.sqrt(sxx * syy)
    if denom == 0.0:
        return float("nan")
    return sxy / denom


def _moments(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Sums of squares and cross products of x and y about their means."""
    dx = x - x.mean()
    dy = y - y.mean()
    return float(dx @ dx), float(dy @ dy), float(dx @ dy)


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


def subset_registry(registry: PropertyRegistry, subset_id: int) -> PropertyRegistry:
    """The channels of the registry in one of the six output subsets, in
    registry order, so selector indices stay stable within the subset.
    Subset 6 is every channel."""
    if subset_id == 6:
        return registry
    if subset_id not in SUBSET_CHANNELS:
        raise UnknownSubset(f"subset must be 1..6, got {subset_id!r}")
    wanted = set(SUBSET_CHANNELS[subset_id])
    return PropertyRegistry(channels=tuple(
        c for c in registry if (c.property, c.fidelity) in wanted
    ))


@dataclass
class DesignMatrix:
    """Record-aligned training arrays assembled from a dataset."""

    features: np.ndarray       # (n_records, n_features) raw descriptor values
    channel_idx: np.ndarray    # (n_records,) registry index per record
    targets: np.ndarray        # (n_records,) transformed target values
    material_ids: list[str]
    registry: PropertyRegistry

    def channel_rows(self, channels: range) -> np.ndarray:
        """The mask of the rows whose channel is in the range."""
        return (self.channel_idx >= channels.start) & (self.channel_idx < channels.stop)


def build_design(dataset: Dataset,
                 include_density: bool) -> tuple[descriptors.FeatureSchema, DesignMatrix]:
    """The design every command fits: the dataset's records, featurized with
    a schema fitted on their molecules in material-id order, whose
    perceptions load_records gave the dataset of a subset_id."""
    materials = sorted({record.material_id for record in dataset.records})
    schema = descriptors.fit_schema([dataset.perceptions[m] for m in materials],
                                    include_density=include_density)
    return schema, assemble(dataset, schema)


def assemble(dataset: Dataset, schema: descriptors.FeatureSchema) -> DesignMatrix:
    """Lay every record's perception out against a fitted schema, once per
    distinct (material, density) pair; without a density slot that is once per
    material, since the density key is then None."""
    cache: dict[tuple[str, float | None], np.ndarray] = {}
    rows = []
    channel_idx = []
    targets = []
    material_ids = []
    for record in dataset.records:
        density = record.density if schema.include_density else None
        if schema.include_density and density is None:
            raise MissingDensity(
                f"material {record.material_id!r} has no density but the schema needs one"
            )
        key = (record.material_id, density)
        if key not in cache:
            cache[key] = dataset.perceptions[record.material_id].row(schema, density)
        rows.append(cache[key])
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
