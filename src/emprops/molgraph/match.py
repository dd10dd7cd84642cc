"""Substructure matching for small connected graph patterns.

Patterns constrain element, formal charge, aromaticity, hydrogen count,
heavy-atom degree, and bond order, plus an optional list of forbidden
neighbor (element, order) pairs for groups defined by what they must not
touch (e.g. N-oxide versus nitro). Matching is a plain backtracking
subgraph embedding; embeddings are deduplicated by the set of molecule
atoms they cover, which collapses automorphic repeats such as the two
oxygens of a nitro group.

Each pattern's visit plan is built once and cached. The plan is a tuple of
steps in breadth-first order over the pattern from its atom 0; step k is
(pattern atom, anchor, anchor bond, closures):

- anchor is the index of the earlier step whose molecule atom the new atom
  must neighbour, with anchor bond the pattern bond between them; the
  first step has neither and tries every molecule atom;
- closures holds (earlier step, pattern bond) for every other pattern bond
  from this atom back to an atom placed before it: the ring-closure bonds.

Backtracking takes candidates from the anchor atom's (neighbour, bond)
pairs, so the anchor bond is checked on the bond at hand, and looks up only
the closure bonds in the molecule. Each pattern bond is thereby checked
exactly once, when its later end is placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


def _closure_ok(g: MolGraph, a: int, b: int, pbond: PatternBond) -> bool:
    bond = g.bond_between(a, b)
    return bond is not None and _bond_ok(bond, pbond)


PlanStep = tuple[PatternAtom, int | None, PatternBond | None, tuple[tuple[int, PatternBond], ...]]


@cache
def _plan(pattern: SubstructurePattern) -> tuple[PlanStep, ...]:
    """The visit plan of a pattern (see the module docstring).

    Every atom after the first must connect to an already-placed one
    (patterns are connected by contract).
    """
    adjacency: list[list[tuple[int, PatternBond]]] = [[] for _ in pattern.atoms]
    for pb in pattern.bonds:
        adjacency[pb.i].append((pb.j, pb))
        adjacency[pb.j].append((pb.i, pb))
    step_of = {0: 0}
    visit: list[tuple[int, int | None, PatternBond | None]] = [(0, None, None)]
    for atom, _, _ in visit:  # grows while iterated: a breadth-first queue
        for other, pb in adjacency[atom]:
            if other not in step_of:
                step_of[other] = len(visit)
                visit.append((other, step_of[atom], pb))
    if len(visit) != len(pattern.atoms):
        raise ValueError(f"pattern {pattern.name!r} is not connected")
    plan: list[PlanStep] = []
    for step, (atom, anchor, anchor_bond) in enumerate(visit):
        closures = tuple(
            (step_of[other], pb) for other, pb in adjacency[atom]
            if pb is not anchor_bond and step_of[other] < step
        )
        plan.append((pattern.atoms[atom], anchor, anchor_bond, closures))
    return tuple(plan)


def match_pattern(g: MolGraph, pattern: SubstructurePattern) -> int:
    """Count embeddings of the pattern, deduplicated by matched atom set."""
    return len(match_atom_sets(g, pattern))


def match_atom_sets(g: MolGraph, pattern: SubstructurePattern) -> set[frozenset[int]]:
    """Distinct matched atom-index sets for a pattern."""
    plan = _plan(pattern)
    found: set[frozenset[int]] = set()
    assignment: list[int] = []  # molecule atom of each placed step

    def backtrack(step: int) -> None:
        if step == len(plan):
            found.add(frozenset(assignment))
            return
        patom, anchor, anchor_bond, closures = plan[step]
        if anchor is None:
            candidates = [(midx, None) for midx in range(len(g.atoms))]
        else:
            candidates = g.neighbors(assignment[anchor])
        for midx, bond in candidates:
            if midx in assignment:
                continue
            if bond is not None and not _bond_ok(bond, anchor_bond):
                continue
            if not _atom_ok(g, midx, patom):
                continue
            if closures and not all(
                    _closure_ok(g, assignment[earlier], midx, pb) for earlier, pb in closures):
                continue
            assignment.append(midx)
            backtrack(step + 1)
            assignment.pop()

    backtrack(0)
    return found
