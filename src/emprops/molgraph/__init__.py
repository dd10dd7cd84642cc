"""Molecular graphs for pure CHNOClF molecules.

Parses a documented SMILES subset into a perceived graph (implicit
hydrogens assigned, aromatic systems kekulized, rings found) and provides
the ring perception and substructure matching used by the descriptor
engine.
"""

from emprops.molgraph.graph import (
    Atom,
    Bond,
    ElementCounts,
    MolGraph,
    Ring,
    molecular_formula,
)
from emprops.molgraph.match import (
    PatternAtom,
    PatternBond,
    SubstructurePattern,
    match_pattern,
)
from emprops.molgraph.parser import parse_smiles
from emprops.molgraph.rings import sssr_rings

__all__ = [
    "Atom",
    "Bond",
    "ElementCounts",
    "MolGraph",
    "Ring",
    "PatternAtom",
    "PatternBond",
    "SubstructurePattern",
    "match_pattern",
    "molecular_formula",
    "parse_smiles",
    "sssr_rings",
]
