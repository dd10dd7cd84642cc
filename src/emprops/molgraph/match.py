"""Substructure matching for small connected graph patterns.

Patterns constrain element, formal charge, aromaticity, hydrogen count,
heavy-atom degree, and bond order, plus an optional list of forbidden
neighbor (element, order) pairs for groups defined by what they must not
touch (e.g. N-oxide versus nitro). Matching is a plain backtracking
subgraph embedding; embeddings are deduplicated by the set of molecule
atoms they cover, which collapses automorphic repeats such as the two
oxygens of a nitro group.
"""

from __future__ import annotations

from dataclasses import dataclass

from emprops.molgraph.graph import Bond, MolGraph


@dataclass(frozen=True)
class PatternAtom:
    element: str | None = None  # None matches any element
    charge: int | None = None
    aromatic: bool | None = None
    h_count: int | None = None
    heavy_degree: int | None = None
    # (element, order) neighbor combinations that must not exist;
    # order None means any bond order.
    forbidden: tuple[tuple[str, str | None], ...] = ()


@dataclass(frozen=True)
class PatternBond:
    i: int
    j: int
    order: str | None = None  # None matches any order


@dataclass(frozen=True)
class SubstructurePattern:
    name: str
    atoms: tuple[PatternAtom, ...]
    bonds: tuple[PatternBond, ...] = ()


def _atom_ok(g: MolGraph, idx: int, patom: PatternAtom) -> bool:
    atom = g.atoms[idx]
    if patom.element is not None and atom.element != patom.element:
        return False
    if patom.charge is not None and atom.formal_charge != patom.charge:
        return False
    if patom.aromatic is not None and atom.aromatic != patom.aromatic:
        return False
    if patom.h_count is not None and atom.implicit_h != patom.h_count:
        return False
    if patom.heavy_degree is not None and g.heavy_degree(idx) != patom.heavy_degree:
        return False
    for element, order in patom.forbidden:
        for nbr, bond in g.neighbors(idx):
            if g.atoms[nbr].element == element and (order is None or bond.order == order):
                return False
    return True


def _bond_ok(bond: Bond, pbond: PatternBond) -> bool:
    return pbond.order is None or bond.order == pbond.order


def _match_order(pattern: SubstructurePattern) -> list[tuple[int, int | None, PatternBond | None]]:
    """Visit order for pattern atoms: each entry is (atom, anchor, anchor bond).

    The first atom has no anchor; every later atom must connect to an
    already-visited one (patterns are connected by contract).
    """
    adjacency: dict[int, list[tuple[int, PatternBond]]] = {i: [] for i in range(len(pattern.atoms))}
    for pb in pattern.bonds:
        adjacency[pb.i].append((pb.j, pb))
        adjacency[pb.j].append((pb.i, pb))
    order: list[tuple[int, int | None, PatternBond | None]] = [(0, None, None)]
    placed = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop(0)
        for v, pb in adjacency[u]:
            if v not in placed:
                placed.add(v)
                order.append((v, u, pb))
                frontier.append(v)
    if len(placed) != len(pattern.atoms):
        raise ValueError(f"pattern {pattern.name!r} is not connected")
    return order


def match_pattern(g: MolGraph, pattern: SubstructurePattern) -> int:
    """Count embeddings of the pattern, deduplicated by matched atom set."""
    return len(match_atom_sets(g, pattern))


def match_atom_sets(g: MolGraph, pattern: SubstructurePattern) -> set[frozenset[int]]:
    """Distinct matched atom-index sets for a pattern."""
    order = _match_order(pattern)
    found: set[frozenset[int]] = set()
    assignment: dict[int, int] = {}

    def constraints_hold() -> bool:
        # every pattern bond whose endpoints are both assigned must exist
        for pb in pattern.bonds:
            a = assignment.get(pb.i)
            b = assignment.get(pb.j)
            if a is None or b is None:
                continue
            bond = g.bond_between(a, b)
            if bond is None or not _bond_ok(bond, pb):
                return False
        return True

    def backtrack(step: int) -> None:
        if step == len(order):
            found.add(frozenset(assignment.values()))
            return
        pidx, anchor, _ = order[step]
        if anchor is None:
            candidates = range(len(g.atoms))
        else:
            candidates = [nbr for nbr, _ in g.neighbors(assignment[anchor])]
        for midx in candidates:
            if midx in assignment.values():
                continue
            if not _atom_ok(g, midx, pattern.atoms[pidx]):
                continue
            assignment[pidx] = midx
            if constraints_hold():
                backtrack(step + 1)
            del assignment[pidx]

    backtrack(0)
    return found
