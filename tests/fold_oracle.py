"""The set-based material split that dataset.kfold_by_material's fold
labels replaced, kept as their oracle: a plan of material sets per fold,
and the row masks once built from those sets by a membership test per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from emprops import dataset as ds
from emprops.errors import TooFewMaterials
from emprops.rng import SplitMix64


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
    splitmix64(seed), deal round-robin."""
    ds.check_fold_count(k)
    ids = sorted(set(material_ids))
    if len(ids) < k:
        raise TooFewMaterials(f"{len(ids)} materials < {k} folds")
    rng = SplitMix64(seed)
    rng.shuffle(ids)
    assignment = {material: position % k for position, material in enumerate(ids)}
    return SplitPlan(seed=seed, k=k, assignment=assignment)


def rows_for(material_ids: list[str], materials: set[str]) -> np.ndarray:
    """The mask of the entries whose material is in the set."""
    return np.array([m in materials for m in material_ids], dtype=bool)


def inner_folds(material_ids: list[str], inner_k: int,
                seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (train, validation) row masks of each inner fold over rows with
    these material ids, in fold order."""
    plan = kfold_by_material(material_ids, inner_k, seed)
    return [tuple(rows_for(material_ids, mats) for mats in plan.train_test(fold))
            for fold in range(inner_k)]
