"""Deterministic benchmark inputs, made from a workload seed.

This module must not import emprops: the inputs the program is measured
on may not depend on the program's own RNG, parser or descriptors. Every
random draw comes from ``random.Random(...).random()`` (the Mersenne
Twister stream, stable across Python versions); choices and Gaussians are
derived from it here rather than through ``choice``/``gauss``, whose
algorithms have changed between Python releases.

Molecules come from a fragment grammar that is valid by construction: a
core template whose ``*`` slots are each left empty (an implicit
hydrogen) or filled with one substituent branch bonded through carbon.
Every slot sits on a carbon that has a free valence for one more bond.
The first materials of each dataset ("anchors") contain every core and
every fragment, so the bond vocabulary fitted on any dataset covers every
bond type any generated candidate can have.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# (SMILES, heavy-atom composition, nitro groups). Bonded through the first atom.
FRAGMENTS: tuple[tuple[str, dict, int], ...] = (
    ("[N+](=O)[O-]", {"N": 1, "O": 2}, 1),
    ("N", {"N": 1}, 0),
    ("O", {"O": 1}, 0),
    ("F", {"F": 1}, 0),
    ("Cl", {"Cl": 1}, 0),
    ("C", {"C": 1}, 0),
    ("C#N", {"C": 1, "N": 1}, 0),
    ("N=[N+]=[N-]", {"N": 3}, 0),
    ("O[N+](=O)[O-]", {"N": 1, "O": 3}, 1),
    ("N[N+](=O)[O-]", {"N": 2, "O": 2}, 1),
    ("C(F)(F)F", {"C": 1, "F": 3}, 0),
    ("C[N+](=O)[O-]", {"C": 1, "N": 1, "O": 2}, 1),
    ("C(=O)O", {"C": 1, "O": 2}, 0),
    ("OC", {"C": 1, "O": 1}, 0),
    ("C=O", {"C": 1, "O": 1}, 0),
    ("CO[N+](=O)[O-]", {"C": 1, "N": 1, "O": 3}, 1),
)

# Draw weights per fragment: nitro-family groups dominate, as in energetic materials.
FRAGMENT_WEIGHTS = (6, 2, 2, 1, 1, 2, 1, 1, 2, 2, 1, 2, 1, 1, 1, 2)

_NO2 = "[N+](=O)[O-]"

# (name, template, heavy-atom composition of the bare core, nitro groups, rings)
CORES: tuple[tuple[str, str, dict, int, int], ...] = (
    ("methane", "C**", {"C": 1}, 0, 0),
    ("ethane", "C**C**", {"C": 2}, 0, 0),
    ("propane", "C**C*C**", {"C": 3}, 0, 0),
    ("isobutane", "C*C(C*)*C*", {"C": 4}, 0, 0),
    ("ether", "C**OC**", {"C": 2, "O": 1}, 0, 0),
    ("amide", "C**C(=O)NC**", {"C": 3, "N": 1, "O": 1}, 0, 0),
    ("dimethylnitramine", f"C**N(C**){_NO2}", {"C": 2, "N": 2, "O": 2}, 1, 0),
    ("cyclopropane", "C1*C*C1*", {"C": 3}, 0, 1),
    ("oxetane", "C1*C*OC1*", {"C": 3, "O": 1}, 0, 1),
    ("cyclohexane", "C1*C*C*C*C*C1*", {"C": 6}, 0, 1),
    ("norbornane", "C1*C*C2C*C*C1C2*", {"C": 7}, 0, 2),
    ("benzene", "c1*c*c*c*c*c1*", {"C": 6}, 0, 1),
    ("pyridine", "n1c*c*c*c*c1*", {"C": 5, "N": 1}, 0, 1),
    ("pyridine_n_oxide", "[O-][n+]1c*c*c*c*c1*", {"C": 5, "N": 1, "O": 1}, 0, 1),
    ("triazine", "c1*nc*nc*n1", {"C": 3, "N": 3}, 0, 1),
    ("furazan", "c1*nonc1*", {"C": 2, "N": 2, "O": 1}, 0, 1),
    ("triazole", "c1*n[nH]c*n1", {"C": 2, "N": 3}, 0, 1),
    ("tetrazole", "c1*nn[nH]n1", {"C": 1, "N": 4}, 0, 1),
    ("imidazole", "c1*[nH]c*nc1*", {"C": 3, "N": 2}, 0, 1),
    ("pyrazole", "c1*c*n[nH]c1*", {"C": 3, "N": 2}, 0, 1),
    ("bifurazan", "c1(-c2nonc2*)nonc1*", {"C": 4, "N": 4, "O": 2}, 0, 2),
    ("naphthalene", "c1*c*c2c*c*c*c*c2c*c1*", {"C": 10}, 0, 2),
    ("benzofurazan", "c1*c*c2nonc2c*c1*", {"C": 6, "N": 2, "O": 1}, 0, 2),
    ("benzotriazole", "c1*c*c2[nH]nnc2c*c1*", {"C": 6, "N": 3}, 0, 2),
    ("rdx", f"C1*N({_NO2})C*N({_NO2})C*N1{_NO2}", {"C": 3, "N": 6, "O": 6}, 3, 1),
    ("hmx", f"C1*N({_NO2})C*N({_NO2})C*N({_NO2})C*N1{_NO2}",
     {"C": 4, "N": 8, "O": 8}, 4, 1),
    ("cubane", "C12*C3*C4*C1*C5*C2*C3*C45*", {"C": 8}, 0, 5),
    ("adamantane", "C1*C2*C*C3*C*C1*C*C(C2*)*C3*", {"C": 10}, 0, 3),
    ("cl20", f"C12C3N(C4C(N3{_NO2})N(C(N1{_NO2})C(N2{_NO2})N4{_NO2}){_NO2}){_NO2}",
     {"C": 6, "N": 12, "O": 12}, 6, 4),
)

# Cores drawn for dataset materials and valid candidates, by weight.
CORE_WEIGHTS = (2, 2, 2, 2, 1, 1, 1, 1, 1, 2, 1, 4, 2, 1, 2, 3, 2, 2, 2, 2, 2, 2, 2, 1, 3, 2, 2, 2, 1)

# (property, fidelity, share of materials carrying a record). Registry order.
CHANNELS: tuple[tuple[str, str, float], ...] = (
    ("det_velocity", "exp", 0.35),
    ("det_pressure", "exp", 0.30),
    ("heat_detonation", "exp", 0.25),
    ("impact_h50", "exp", 0.40),
    ("heat_form_crystal", "exp", 0.30),
    ("det_velocity", "calc", 0.80),
    ("det_pressure", "calc", 0.75),
    ("heat_detonation", "calc", 0.70),
    ("gurney_energy", "calc", 0.60),
    ("heat_sublimation", "calc", 0.70),
    ("heat_form_gas", "calc", 1.00),
)

# Must-reject candidates: (kind, expected error code).
REJECT_KINDS = (
    ("multi_fragment", "MultiFragment"),
    ("unsupported_element", "UnsupportedElement"),
    ("bad_syntax", "SmilesSyntaxError"),
)
REJECT_EVERY = 25  # one candidate in 25 must be rejected


class Stream:
    """Uniform draws from one Mersenne Twister stream; everything else derives here."""

    def __init__(self, seed: int, label: str) -> None:
        self._rng = random.Random(f"{int(seed)}:{label}")

    def uniform(self) -> float:
        return self._rng.random()

    def below(self, n: int) -> int:
        return min(int(self.uniform() * n), n - 1)

    def weighted(self, weights) -> int:
        total = sum(weights)
        point = self.uniform() * total
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if point < acc:
                return index
        return len(weights) - 1

    def normal(self) -> float:
        u1 = 1.0 - self.uniform()  # (0, 1]
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def sample(self, n: int, k: int) -> list[int]:
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])


@dataclass(frozen=True)
class Molecule:
    smiles: str
    composition: dict
    nitro: int
    rings: int
    core: str

    def summary(self) -> dict:
        """The composition summary the synthetic properties are built on."""
        c = self.composition
        heavy = sum(c.values())
        return {
            "heavy": heavy,
            "ob": 100.0 * (c.get("O", 0) - 2.0 * c.get("C", 0)) / heavy,
            "nfrac": c.get("N", 0) / heavy,
            "halogen": (c.get("F", 0) + c.get("Cl", 0)) / heavy,
            "nitro": self.nitro,
            "rings": self.rings,
        }


def build_molecule(core_index: int, fills: list[int | None]) -> Molecule:
    """Fill the core's slots in order; None leaves a slot empty."""
    name, template, base, nitro, rings = CORES[core_index]
    parts = template.split("*")
    if len(fills) != len(parts) - 1:
        raise ValueError(f"core {name} has {len(parts) - 1} slots, got {len(fills)} fills")
    composition = dict(base)
    out = [parts[0]]
    for fill, tail in zip(fills, parts[1:]):
        if fill is not None:
            smiles, comp, frag_nitro = FRAGMENTS[fill]
            out.append(f"({smiles})")
            for element, count in comp.items():
                composition[element] = composition.get(element, 0) + count
            nitro += frag_nitro
        out.append(tail)
    return Molecule("".join(out), composition, nitro, rings, name)


def slot_count(core_index: int) -> int:
    return CORES[core_index][1].count("*")


def anchors() -> list[Molecule]:
    """Every core once, its slots filled by cycling through every fragment."""
    out = []
    cursor = 0
    for core_index in range(len(CORES)):
        fills = []
        for _ in range(slot_count(core_index)):
            fills.append(cursor % len(FRAGMENTS))
            cursor += 1
        out.append(build_molecule(core_index, fills))
    if cursor < len(FRAGMENTS):
        raise AssertionError("anchors do not reach every fragment")
    return out


def random_molecule(stream: Stream) -> Molecule:
    core_index = stream.weighted(CORE_WEIGHTS)
    fill_rate = 0.15 + 0.7 * stream.uniform()
    fills = []
    for _ in range(slot_count(core_index)):
        if stream.uniform() < fill_rate:
            fills.append(stream.weighted(FRAGMENT_WEIGHTS))
        else:
            fills.append(None)
    return build_molecule(core_index, fills)


def true_properties(mol: Molecule) -> dict[str, float]:
    """Noise-free synthetic property per (property) from the composition summary.

    The forms are smooth and loosely shaped like the real trends (oxygen
    balance and nitrogen content raise detonation performance; nitro
    groups lower the drop height). Values are synthetic, not physical.
    """
    d = mol.summary()
    ob = max(min(d["ob"], 60.0), -250.0)
    perf = 0.012 * ob + 2.2 * d["nfrac"] + 0.12 * min(d["nitro"], 8)
    return {
        "det_velocity": 6.4 + perf,
        "det_pressure": 22.0 + 9.0 * perf + 4.0 * d["halogen"],
        "heat_detonation": 4.2 + 0.8 * perf - 0.5 * d["halogen"],
        "impact_h50": 10.0 ** (2.1 - 0.09 * min(d["nitro"], 8) + 0.004 * ob - 0.3 * d["nfrac"]),
        "heat_form_crystal": 60.0 * d["nfrac"] * d["heavy"] ** 0.5 + 1.5 * ob - 8.0 * d["rings"],
        "gurney_energy": 2.3 + 0.35 * perf,
        "heat_sublimation": 45.0 + 2.2 * d["heavy"] + 6.0 * d["nitro"] - 3.0 * d["rings"],
        "heat_form_gas": 60.0 * d["nfrac"] * d["heavy"] ** 0.5 + 1.5 * ob
                         + 2.2 * d["heavy"] + 6.0 * d["nitro"],
    }


# Relative noise per fidelity: experiments scatter more than calculations.
_NOISE = {"exp": 0.04, "calc": 0.015}


def channel_value(truth: dict[str, float], prop: str, fidelity: str, stream: Stream) -> float:
    value = truth[prop]
    if prop == "impact_h50":
        return value * 10.0 ** (0.08 * stream.normal())
    scale = abs(value) * _NOISE[fidelity] + 0.5 * _NOISE[fidelity]
    bias = 0.03 * abs(value) if fidelity == "calc" else 0.0
    return value + bias + scale * stream.normal()


@dataclass(frozen=True)
class Inputs:
    dataset_csv: str
    library_csv: str
    expectations: dict  # library truth and must-reject codes, by material id
    densities: dict     # channel key -> share of materials with a record


def make_inputs(seed: int, n_materials: int, n_library: int) -> Inputs:
    """Dataset and screening library for one seed; same seed, same bytes."""
    mols = anchors()
    stream = Stream(seed, "materials")
    while len(mols) < n_materials:
        mols.append(random_molecule(stream))
    mols = mols[:n_materials]

    value_stream = Stream(seed, "values")
    pick_stream = Stream(seed, "records")
    truths = [true_properties(mol) for mol in mols]
    records: list[tuple[int, int, float]] = []
    densities = {}
    for channel_index, (prop, fidelity, share) in enumerate(CHANNELS):
        count = max(1, round(share * n_materials))
        chosen = pick_stream.sample(n_materials, count)
        densities[f"{prop}:{fidelity}"] = count / n_materials
        for material_index in chosen:
            value = channel_value(truths[material_index], prop, fidelity, value_stream)
            records.append((material_index, channel_index, value))
    records.sort()

    lines = ["material_id,smiles,property,fidelity,value,density"]
    for material_index, channel_index, value in records:
        prop, fidelity, _ = CHANNELS[channel_index]
        lines.append(f"M{material_index:04d},{mols[material_index].smiles},{prop},{fidelity},"
                     f"{value:.6g},")
    dataset_csv = "\n".join(lines) + "\n"

    lib_stream = Stream(seed, "library")
    reject_stream = Stream(seed, "rejects")
    lib_lines = ["material_id,smiles"]
    expectations: dict[str, dict] = {}
    for index in range(n_library):
        material = f"C{index:05d}"
        mol = random_molecule(lib_stream)
        if index % REJECT_EVERY == REJECT_EVERY - 1:
            kind, code = REJECT_KINDS[(index // REJECT_EVERY) % len(REJECT_KINDS)]
            smiles = _corrupt(mol.smiles, kind, reject_stream)
            expectations[material] = {"reject": code}
        else:
            smiles = mol.smiles
            expectations[material] = {"truth": true_properties(mol)}
        lib_lines.append(f"{material},{smiles}")
    library_csv = "\n".join(lib_lines) + "\n"
    return Inputs(dataset_csv, library_csv, expectations, densities)


def _corrupt(smiles: str, kind: str, stream: Stream) -> str:
    if kind == "multi_fragment":
        partner = random_molecule(stream).smiles
        return f"{smiles}.{partner}"
    if kind == "unsupported_element":
        element = ("Br", "[Si]", "S", "[Na+]", "I")[stream.below(5)]
        return f"{element}{smiles}" if stream.uniform() < 0.5 else f"{smiles}.{element}"
    if kind == "bad_syntax":
        damage = ("(", "1", "==C")[stream.below(3)]
        return f"{smiles}{damage}" if damage != "==C" else f"C{damage}{smiles}"
    raise ValueError(f"unknown reject kind {kind!r}")


def write_inputs(inputs: Inputs, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "dataset": directory / "dataset.csv",
        "library": directory / "library.csv",
        "expectations": directory / "expectations.json",
    }
    paths["dataset"].write_text(inputs.dataset_csv, encoding="utf-8")
    paths["library"].write_text(inputs.library_csv, encoding="utf-8")
    paths["expectations"].write_text(
        json.dumps(inputs.expectations, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths
