"""Descriptor suite and feature assembly.

Blocks, in schema order: oxygen balance, explosive gas-product weight
ratio, atom counts and N/C ratio, functional group counts, ring counts,
topology counts (rotatable bonds, aromaticity, H-bonding, bond polarity),
per-element electrotopological-state sums, van der Waals volume,
acidic/basic group counts, then the corpus-fitted sum-over-bonds block and
an optional trailing density slot.

Bond vocabularies include X-H pseudo-bonds counted from implicit
hydrogens; otherwise hydrogen chemistry would be invisible to the
sum-over-bonds block. The same applies to the bond-polarity sum.

Featurizing is two steps. perceive(g) computes what no schema changes:
the fixed block and the bond-key counts; the commands
run it once per distinct SMILES (dataset.perceive_molecules). Then
Perception.row(schema, density) lays those out against a fitted schema,
once per (material, density). featurize(g, schema, density) is both steps
in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from emprops.errors import MissingDensity, MultiFragment, UnknownBondType, ZeroDenominator
from emprops.molgraph.elements import (
    ELECTRONEGATIVITY,
    HEAVY_ELEMENTS,
    PRINCIPAL_QUANTUM,
    VALENCE_ELECTRONS,
    VDW_AROMATIC_RING_CORRECTION,
    VDW_ATOM_VOLUME,
    VDW_BOND_CORRECTION,
    VDW_NONAROMATIC_RING_CORRECTION,
)
from emprops.molgraph.graph import BOND_ORDERS, ElementCounts, MolGraph, molecular_formula
from emprops.molgraph.match import PatternAtom, PatternBond, SubstructurePattern, match_pattern

BondKey = tuple[str, str, str]  # (element_a, element_b, order), elements sorted
_BOND_ELEMENTS = (*HEAVY_ELEMENTS, "H")  # hydrogens count as pseudo-bonds

RING_SIZES = (3, 4, 5, 6, 7, 8)

_ESTATE_SCALE = {element: (2.0 / n) ** 2 for element, n in PRINCIPAL_QUANTUM.items()}
_H_POLARITY = {element: abs(en - ELECTRONEGATIVITY["H"]) for element, en in ELECTRONEGATIVITY.items()}

# ---------------------------------------------------------------------------
# Functional group pattern table (version 1).
#
# Nitro-family groups are anchored so that C-NO2, N-NO2 and O-NO2 are
# disjoint; the parser has already normalized N(=O)=O to [N+](=O)[O-].
# ---------------------------------------------------------------------------

_NO2_TAIL = (
    PatternAtom(element="N", charge=1),
    PatternAtom(element="O", charge=0, heavy_degree=1),
    PatternAtom(element="O", charge=-1, heavy_degree=1),
)
_NO2_BONDS = (PatternBond(0, 1, "double"), PatternBond(0, 2, "single"))


def _anchored_no2(name: str, anchor: PatternAtom) -> SubstructurePattern:
    atoms = (anchor,) + _NO2_TAIL
    bonds = (PatternBond(0, 1, "single"),) + tuple(
        PatternBond(pb.i + 1, pb.j + 1, pb.order) for pb in _NO2_BONDS
    )
    return SubstructurePattern(name=name, atoms=atoms, bonds=bonds)


PATTERN_TABLE: dict[str, SubstructurePattern] = {
    "nitro": _anchored_no2("nitro", PatternAtom(element="C")),
    "nitramine": _anchored_no2("nitramine", PatternAtom(element="N", charge=0)),
    "nitrate_ester": _anchored_no2(
        "nitrate_ester", PatternAtom(element="O", charge=0, heavy_degree=2)
    ),
    "azide": SubstructurePattern(
        name="azide",
        atoms=(
            PatternAtom(element="N", charge=0),
            PatternAtom(element="N", charge=1),
            PatternAtom(element="N", charge=-1),
        ),
        bonds=(PatternBond(0, 1, "double"), PatternBond(1, 2, "double")),
    ),
    "amino_primary": SubstructurePattern(
        name="amino_primary",
        atoms=(
            PatternAtom(element="N", charge=0, h_count=2, heavy_degree=1, aromatic=False),
            PatternAtom(element="C"),
        ),
        bonds=(PatternBond(0, 1, "single"),),
    ),
    "hydroxyl": SubstructurePattern(
        name="hydroxyl",
        atoms=(PatternAtom(element="O", charge=0, h_count=1, heavy_degree=1),),
    ),
    "carbonyl": SubstructurePattern(
        name="carbonyl",
        atoms=(
            PatternAtom(element="C"),
            PatternAtom(element="O", charge=0, heavy_degree=1),
        ),
        bonds=(PatternBond(0, 1, "double"),),
    ),
    "cyano": SubstructurePattern(
        name="cyano",
        atoms=(
            PatternAtom(element="C", charge=0),
            PatternAtom(element="N", charge=0, heavy_degree=1),
        ),
        bonds=(PatternBond(0, 1, "triple"),),
    ),
    # N-oxide: N(+)-O(-) where the nitrogen carries no doubly bonded
    # oxygen, which excludes nitro/nitrate nitrogens.
    "n_oxide": SubstructurePattern(
        name="n_oxide",
        atoms=(
            PatternAtom(element="N", charge=1, forbidden=(("O", "double"),)),
            PatternAtom(element="O", charge=-1, heavy_degree=1),
        ),
        bonds=(PatternBond(0, 1, "single"),),
    ),
}

FUNCTIONAL_GROUPS = tuple(PATTERN_TABLE)

ACIDIC_PATTERNS: dict[str, SubstructurePattern] = {
    "acidic_carboxyl": SubstructurePattern(
        name="acidic_carboxyl",
        atoms=(
            PatternAtom(element="C", aromatic=False),
            PatternAtom(element="O", charge=0, heavy_degree=1),
            PatternAtom(element="O", charge=0, h_count=1, heavy_degree=1),
        ),
        bonds=(PatternBond(0, 1, "double"), PatternBond(0, 2, "single")),
    ),
    "acidic_phenol": SubstructurePattern(
        name="acidic_phenol",
        atoms=(
            PatternAtom(element="O", charge=0, h_count=1, heavy_degree=1),
            PatternAtom(element="C", aromatic=True),
        ),
        bonds=(PatternBond(0, 1, "single"),),
    ),
}


# ---------------------------------------------------------------------------
# Scalar descriptors
# ---------------------------------------------------------------------------

def oxygen_balance(counts: ElementCounts) -> float:
    """Oxygen balance per 100 atoms: 100/n_atoms * (n_O - 2 n_C - n_H/2).

    Halogens do not enter the formula; they only dilute through n_atoms.
    """
    if counts.n_atoms < 1:
        raise ZeroDenominator("oxygen balance needs at least one atom")
    return 100.0 / counts.n_atoms * (counts.n_O - 2.0 * counts.n_C - counts.n_H / 2.0)


def gas_product_ratio(counts: ElementCounts) -> float:
    """Weight ratio of explosive gas products to molecular weight under the
    H2O-CO2 decomposition assumption: (56c + 88d - 8b) / (48a + 4b + 56c + 64d)
    for C_a H_b N_c O_d. Negative values are legitimate and not clamped.
    """
    a, b, c, d = counts.n_C, counts.n_H, counts.n_N, counts.n_O
    denominator = 48.0 * a + 4.0 * b + 56.0 * c + 64.0 * d
    if denominator == 0.0:
        raise ZeroDenominator("gas product ratio needs at least one C, H, N, or O atom")
    return (56.0 * c + 88.0 * d - 8.0 * b) / denominator


def atom_count_features(counts: ElementCounts) -> dict[str, float]:
    """N/C ratio (denominator floored at 1 to keep carbon-free molecules
    finite), hydrogen count, fluorine count."""
    return {
        "n_to_c_ratio": counts.n_N / max(counts.n_C, 1),
        "hydrogen_count": float(counts.n_H),
        "fluorine_count": float(counts.n_F),
    }


def functional_group_counts(g: MolGraph) -> dict[str, int]:
    return {name: match_pattern(g, PATTERN_TABLE[name]) for name in FUNCTIONAL_GROUPS}


_RING_SIZE_NAMES = {size: f"ring_size_{size}" for size in RING_SIZES}


def ring_count_features(g: MolGraph) -> dict[str, int]:
    out = dict.fromkeys(_RING_SIZE_NAMES.values(), 0)
    out["rings_aromatic"] = 0
    out["rings_aliphatic"] = 0
    out["rings_hetero"] = 0
    for ring in g.rings:
        if ring.size in _RING_SIZE_NAMES:
            out[_RING_SIZE_NAMES[ring.size]] += 1
        if ring.aromatic:
            out["rings_aromatic"] += 1
        else:
            out["rings_aliphatic"] += 1
        if ring.hetero:
            out["rings_hetero"] += 1
    return out


def topology_features(g: MolGraph) -> dict[str, float]:
    """Rotatable bond, aromaticity, H-bonding, and bond polarity counts.

    A rotatable bond is a non-ring single bond whose endpoints both have
    heavy degree >= 2. The polarity sum adds |delta electronegativity| over
    all bonds, including each atom's implicit X-H bonds.
    """
    atoms, neighbours = g.atoms, g.adjacency
    rotatable = 0
    aromatic_bonds = 0
    polarity_terms: list[float] = []
    for bond in g.bonds:
        i, j = bond.i, bond.j
        polarity_terms.append(abs(ELECTRONEGATIVITY[atoms[i].element]
                                  - ELECTRONEGATIVITY[atoms[j].element]))
        if bond.order == "aromatic":
            aromatic_bonds += 1
        elif (bond.order == "single" and not bond.in_ring
              and len(neighbours[i]) >= 2 and len(neighbours[j]) >= 2):
            rotatable += 1

    aromatic_atoms = donors = acceptors = 0
    for atom in atoms:
        aromatic_atoms += atom.aromatic
        if atom.element in ("N", "O"):
            acceptors += 1
            donors += atom.implicit_h >= 1
        if atom.implicit_h:
            polarity_terms += [_H_POLARITY[atom.element]] * atom.implicit_h
    return {
        "rotatable_bonds": float(rotatable),
        "aromatic_atoms": float(aromatic_atoms),
        "aromatic_bonds": float(aromatic_bonds),
        "hbond_donors": float(donors),
        "hbond_acceptors": float(acceptors),
        "bond_polarity_sum": math.fsum(polarity_terms),
    }


def estate_vector(g: MolGraph) -> dict[str, float]:
    """Per-element sums of Kier-Hall electrotopological state indices.

    For heavy atom i: delta = heavy neighbor count, delta_v = valence
    electrons - attached hydrogens, intrinsic state
    I = ((2/N)^2 * delta_v + 1) / delta with N the principal quantum
    number, perturbation sum over (I_i - I_j) / (d_ij + 1)^2. An isolated
    heavy atom (delta = 0) contributes S = 0 by convention.

    Every sum is math.fsum, which returns the exact sum correctly rounded,
    so the result does not depend on the order of the terms: values are
    bit-identical across atom numberings without sorting the terms. The
    perturbation runs over the atoms a breadth-first walk from i reaches,
    which leaves out unreachable and isolated atoms; i itself adds the term
    (I_i - I_i) / 1 = +0.0, which leaves an exact sum unchanged (and fsum
    returns +0.0 for a zero sum). Each walk is a plain-Python queue over
    integer neighbour lists that records how many bonds out it reaches each
    atom j; the terms are the scalar float operations of the formula, with
    (d + 1.0) ** 2 from one table.

    Only atoms that are not pendant are walked. A pendant atom p (one
    neighbour, its hub q, which has other neighbours) lies on no shortest
    path between two other atoms, so d(p, j) = d(q, j) + 1 for every
    j != p: p's terms read q's walk through the table shifted by one bond,
    and p's own entry in that walk gives the term (I_p - I_p) / 9 = +0.0.
    These are the very subtractions and divisions of p's own walk, so the
    floats are unchanged. Two pendants of one hub with the same intrinsic
    state (the two oxygens of a nitro group) have the same terms, so their
    S is computed once.
    """
    atoms = g.atoms
    neighbours = g.adjacency
    intrinsic = [0.0] * len(atoms)
    for atom, row in zip(atoms, neighbours):
        if row:
            element = atom.element
            delta_v = VALENCE_ELECTRONS[element] - atom.implicit_h
            intrinsic[atom.index] = (_ESTATE_SCALE[element] * delta_v + 1.0) / len(row)

    squares = [(d + 1.0) ** 2 for d in range(len(atoms) + 1)]
    shifted = squares[1:]  # shifted[d] = (d + 2.0) ** 2: one bond further out
    per_element: dict[str, list[float]] = {"C": [], "N": [], "O": [], "F": [], "Cl": []}
    for q, row in enumerate(neighbours):
        if not row or (len(row) == 1 and len(neighbours[row[0]]) > 1):
            continue  # isolated, or pendant: its hub's walk serves it
        dist = [-1] * len(atoms)  # bonds on a shortest q-j path, -1 until reached
        dist[q] = 0
        order = [q]  # the walk's queue: reached atoms in visit order
        for u in order:
            d = dist[u] + 1
            for v in neighbours[u]:
                if dist[v] < 0:
                    dist[v] = d
                    order.append(v)
        state = intrinsic[q]
        per_element[atoms[q].element].append(
            state + math.fsum([(state - intrinsic[j]) / squares[dist[j]] for j in order]))
        if len(row) == 1:
            continue  # a two-atom fragment: its other atom is walked too
        pendant_states: dict[float, float] = {}
        for p in row:
            if len(neighbours[p]) == 1:
                state = intrinsic[p]
                if state not in pendant_states:
                    pendant_states[state] = state + math.fsum(
                        [(state - intrinsic[j]) / shifted[dist[j]] for j in order])
                per_element[atoms[p].element].append(pendant_states[state])
    return {f"estate_{element}": math.fsum(values) for element, values in per_element.items()}


def vdw_volume(g: MolGraph, counts: ElementCounts | None = None) -> float:
    """Atomic and bond contribution van der Waals volume in cubic angstroms.

    V = sum(atom contributions) - 5.92 * N_bonds - 14.7 * R_aromatic
    - 3.8 * R_nonaromatic, counting implicit hydrogens as atoms and their
    bonds, with ring counts from the SSSR. counts is g's molecular formula,
    computed here unless the caller has it.
    """
    if counts is None:
        counts = molecular_formula(g)
    n_bonds = len(g.bonds) + counts.n_H
    volume = (
        counts.n_C * VDW_ATOM_VOLUME["C"]
        + counts.n_H * VDW_ATOM_VOLUME["H"]
        + counts.n_N * VDW_ATOM_VOLUME["N"]
        + counts.n_O * VDW_ATOM_VOLUME["O"]
        + counts.n_F * VDW_ATOM_VOLUME["F"]
        + counts.n_Cl * VDW_ATOM_VOLUME["Cl"]
    )
    aromatic_rings = sum(1 for ring in g.rings if ring.aromatic)
    other_rings = len(g.rings) - aromatic_rings
    return (
        volume
        - VDW_BOND_CORRECTION * n_bonds
        - VDW_AROMATIC_RING_CORRECTION * aromatic_rings
        - VDW_NONAROMATIC_RING_CORRECTION * other_rings
    )


def acid_base_counts(g: MolGraph) -> dict[str, int]:
    """Acidic group count (carboxylic acid + phenolic OH) and basic amine
    nitrogen count.

    A basic amine nitrogen is neutral and sp3 (single bonds only), has at
    least one hydrogen or at least two carbon neighbors, and is not an
    amide nitrogen (carbonyl carbon neighbor) nor a nitramine nitrogen
    (nitro nitrogen neighbor).
    """
    acidic = sum(match_pattern(g, pattern) for pattern in ACIDIC_PATTERNS.values())

    atoms, neighbours = g.atoms, g._neighbors
    basic = 0
    for idx in g.atoms_by_element.get("N", ()):
        atom = atoms[idx]
        if atom.formal_charge != 0 or atom.aromatic:
            continue
        if any(bond.order != "single" for _, bond in neighbours[idx]):
            continue
        carbons = 0
        excluded = False
        for nbr, _ in neighbours[idx]:
            other = atoms[nbr]
            if other.element == "C":
                carbons += 1
                for nbr2, bond2 in neighbours[nbr]:
                    if bond2.order == "double" and atoms[nbr2].element == "O":
                        excluded = True  # amide nitrogen
            elif other.element == "N" and other.formal_charge == 1:
                excluded = True  # nitramine nitrogen
        if excluded:
            continue
        if atom.implicit_h >= 1 or carbons >= 2:
            basic += 1
    return {"acidic_groups": acidic, "basic_groups": basic}


# ---------------------------------------------------------------------------
# Sum over bonds
# ---------------------------------------------------------------------------

def _bond_keys(g: MolGraph) -> dict[BondKey, int]:
    atoms = g.atoms
    counts: dict[BondKey, int] = {}
    for bond in g.bonds:
        a, b = atoms[bond.i].element, atoms[bond.j].element
        key = (a, b, bond.order) if a <= b else (b, a, bond.order)
        counts[key] = counts.get(key, 0) + 1
    for atom in atoms:
        if atom.implicit_h:
            a = atom.element
            key = (a, "H", "single") if a <= "H" else ("H", a, "single")
            counts[key] = counts.get(key, 0) + atom.implicit_h
    return counts


def fit_bond_vocabulary(corpus: list[MolGraph | Perception]) -> list[BondKey]:
    """All distinct bond keys in the corpus, sorted lexicographically; a
    perceived molecule gives the keys it holds, a graph is counted here."""
    keys: set[BondKey] = set()
    for molecule in corpus:
        keys.update(molecule.bond_keys if isinstance(molecule, Perception)
                    else _bond_keys(molecule))
    return sorted(keys)


def sum_over_bonds(counts: dict[BondKey, int], index: dict[BondKey, int]) -> list[float]:
    """A molecule's bond-key counts (_bond_keys) aligned to the fitted
    vocabulary, given as the position of each of its keys
    (FeatureSchema.bond_index).

    A bond type outside the vocabulary raises UnknownBondType: silent
    drops would hide train/serve schema skew.
    """
    out = [0.0] * len(index)
    for key, count in counts.items():
        if key not in index:
            raise UnknownBondType(f"bond type {key} not in fitted vocabulary")
        out[index[key]] = float(count)
    return out


# ---------------------------------------------------------------------------
# Schema and featurization
# ---------------------------------------------------------------------------

FIXED_BLOCK_NAMES: tuple[str, ...] = (
    "oxygen_balance_100",
    "gas_product_ratio",
    "n_to_c_ratio",
    "hydrogen_count",
    "fluorine_count",
    *(f"fg_{name}" for name in FUNCTIONAL_GROUPS),
    *(f"ring_size_{size}" for size in RING_SIZES),
    "rings_aromatic",
    "rings_aliphatic",
    "rings_hetero",
    "rotatable_bonds",
    "aromatic_atoms",
    "aromatic_bonds",
    "hbond_donors",
    "hbond_acceptors",
    "bond_polarity_sum",
    "estate_C",
    "estate_N",
    "estate_O",
    "estate_F",
    "estate_Cl",
    "vdw_volume",
    "acidic_groups",
    "basic_groups",
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature layout: fixed blocks, bond vocabulary, optional density."""

    bond_vocabulary: tuple[BondKey, ...]
    include_density: bool

    @property
    def names(self) -> tuple[str, ...]:
        vocab = tuple("bond_" + "_".join(key) for key in self.bond_vocabulary)
        tail = ("density",) if self.include_density else ()
        return FIXED_BLOCK_NAMES + vocab + tail

    def __len__(self) -> int:
        return len(FIXED_BLOCK_NAMES) + len(self.bond_vocabulary) + (1 if self.include_density else 0)

    @cached_property
    def bond_index(self) -> dict[BondKey, int]:
        """The position of each vocabulary key, built once per schema."""
        return {key: pos for pos, key in enumerate(self.bond_vocabulary)}

    def manifest(self) -> dict:
        """JSON-ready description for exact reuse at predict time."""
        return {
            "schema_version": SCHEMA_VERSION,
            "fixed_block": list(FIXED_BLOCK_NAMES),
            "bond_vocabulary": [list(key) for key in self.bond_vocabulary],
            "include_density": self.include_density,
            "hydrogen_pseudo_bonds": True,
            "pattern_table_version": 1,
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "FeatureSchema":
        """The schema a manifest describes, as manifest writes one: a
        ValueError for another version, for a bond vocabulary that is not
        strictly increasing (element, element, order) triples with their
        elements in order, or for an include_density that is not a JSON
        true or false."""
        version = manifest.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {version!r}")
        vocab = manifest["bond_vocabulary"]
        for entry in vocab:
            if not (isinstance(entry, list) and len(entry) == 3 and entry[0] in _BOND_ELEMENTS
                    and entry[1] in _BOND_ELEMENTS and entry[2] in BOND_ORDERS):
                raise ValueError(f"bond vocabulary entry {entry!r} is not an "
                                 f"(element, element, order) triple")
            if entry[0] > entry[1]:
                raise ValueError(f"bond vocabulary entry {entry!r} has its elements out of order")
        keys = tuple(map(tuple, vocab))
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("bond vocabulary is not strictly increasing")
        include_density = manifest["include_density"]
        if type(include_density) is not bool:
            raise ValueError(f"include_density {include_density!r} is not true or false")
        return cls(bond_vocabulary=keys, include_density=include_density)


def fit_schema(corpus: list[MolGraph | Perception], include_density: bool) -> FeatureSchema:
    """Fit the bond vocabulary on a corpus and freeze the layout."""
    return FeatureSchema(
        bond_vocabulary=tuple(fit_bond_vocabulary(corpus)),
        include_density=include_density,
    )


def _fixed_block(g: MolGraph) -> tuple[float | int, ...]:
    """The fixed block in FIXED_BLOCK_NAMES order: each helper's values, in
    the order its dict lists them."""
    counts = molecular_formula(g)
    return (oxygen_balance(counts), gas_product_ratio(counts),
            *atom_count_features(counts).values(),
            *functional_group_counts(g).values(),
            *ring_count_features(g).values(),
            *topology_features(g).values(),
            *estate_vector(g).values(),
            vdw_volume(g, counts),
            *acid_base_counts(g).values())


@dataclass(frozen=True)
class Perception:
    """Everything featurizing reads of a molecule that no schema changes.

    fixed is the fixed block in FIXED_BLOCK_NAMES order; the
    ZeroDenominator computing it raised, for a molecule without the atoms a
    ratio needs; or None for a multi-fragment molecule, which is never
    featurized. bond_keys holds the molecule's bond-key counts (_bond_keys),
    multi-fragment or not, since fit_schema reads them.
    """

    fixed: tuple[float | int, ...] | ZeroDenominator | None
    bond_keys: dict[BondKey, int]

    def row(self, schema: FeatureSchema, density: float | None = None) -> np.ndarray:
        """The float64 model input vector of a single-fragment molecule, laid
        out as schema.names. The checks run in a fixed order: MultiFragment,
        MissingDensity, then ZeroDenominator from the fixed block,
        UnknownBondType, and ZeroDenominator for a value that is not finite."""
        if self.fixed is None:
            raise MultiFragment("composite/multi-fragment inputs cannot be featurized")
        if schema.include_density and density is None:
            raise MissingDensity("schema includes density but none was provided")
        if not schema.include_density and density is not None:
            raise MissingDensity("schema does not include density but one was provided")
        if isinstance(self.fixed, ZeroDenominator):
            raise self.fixed.with_traceback(None)

        values = [*self.fixed, *sum_over_bonds(self.bond_keys, schema.bond_index)]
        if schema.include_density:
            values.append(float(density))
        array = np.asarray(values, dtype=np.float64)
        if not np.isfinite(array).all():
            bad = [schema.names[i] for i in np.where(~np.isfinite(array))[0]]
            raise ZeroDenominator(f"non-finite descriptor values: {bad}")
        return array


def perceive(g: MolGraph) -> Perception:
    """The schema-free part of featurizing g: its fixed block (unless it has
    more than one fragment) and its bond-key counts."""
    fixed = None
    if g.fragment_count <= 1:
        try:
            fixed = _fixed_block(g)
        except ZeroDenominator as exc:
            fixed = exc
    return Perception(fixed, _bond_keys(g))


def featurize(g: MolGraph, schema: FeatureSchema, density: float | None = None) -> np.ndarray:
    """The float64 model input vector of a single-fragment molecule, laid
    out as schema.names (Perception.row)."""
    return perceive(g).row(schema, density)
