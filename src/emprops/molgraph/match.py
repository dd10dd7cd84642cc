"""Substructure matching for small connected graph patterns.

Patterns constrain element, formal charge, aromaticity, hydrogen count,
heavy-atom degree, and bond order, plus an optional list of forbidden
neighbor (element, order) pairs for groups defined by what they must not
touch (e.g. N-oxide versus nitro). Matching is a plain backtracking
subgraph embedding; embeddings are deduplicated by the set of molecule
atoms they cover, which collapses automorphic repeats such as the two
oxygens of a nitro group.

Each pattern's visit plan is built once and cached on the pattern. The plan
is a tuple of steps in breadth-first order over the pattern from its root,
the most constrained atom (see _root); step k is (pattern atom, anchor,
anchor bond, closures):

- anchor is the index of the earlier step whose molecule atom the new atom
  must neighbour, with anchor bond the pattern bond between them; the
  first step has neither and tries every molecule atom of the root's
  element (every atom when the root is a wildcard);
- closures holds (earlier step, pattern bond) for every other pattern bond
  from this atom back to an atom placed before it: the ring-closure bonds.

Backtracking takes candidates from the anchor atom's (neighbour, bond)
pairs, so the anchor bond is checked on the bond at hand, and looks up only
the closure bonds in the molecule. Each pattern bond is thereby checked
exactly once, when its later end is placed. The root changes only the
order in which embeddings are found, not the set of matched atom sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


PlanStep = tuple[PatternAtom, int | None, PatternBond | None, tuple[tuple[int, PatternBond], ...]]


@dataclass(frozen=True)
class SubstructurePattern:
    name: str
    atoms: tuple[PatternAtom, ...]
    bonds: tuple[PatternBond, ...] = ()

    @cached_property
    def plan(self) -> tuple[PlanStep, ...]:
        """The visit plan (see the module docstring), built on first use and
        kept on the pattern, so a lookup does not hash it."""
        return _plan(self)


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
    if patom.heavy_degree is not None and len(g._neighbors[idx]) != patom.heavy_degree:
        return False
    for element, order in patom.forbidden:
        for nbr, bond in g._neighbors[idx]:
            if g.atoms[nbr].element == element and (order is None or bond.order == order):
                return False
    return True


def _bond_ok(bond: Bond, pbond: PatternBond) -> bool:
    return pbond.order is None or bond.order == pbond.order


def _closure_ok(g: MolGraph, a: int, b: int, pbond: PatternBond) -> bool:
    bond = g.bond_between(a, b)
    return bond is not None and _bond_ok(bond, pbond)


def _root(pattern: SubstructurePattern) -> int:
    """The atom that the fewest molecule atoms are expected to match: the
    first of those with an element and the most other constraints (atom 0
    when none names an element)."""
    def constraints(k: int) -> tuple[bool, int]:
        patom = pattern.atoms[k]
        others = (patom.charge, patom.aromatic, patom.h_count, patom.heavy_degree)
        return (patom.element is not None,
                sum(value is not None for value in others) + bool(patom.forbidden))

    return max(range(len(pattern.atoms)), key=constraints)


def _plan(pattern: SubstructurePattern) -> tuple[PlanStep, ...]:
    """The visit plan of a pattern, breadth-first from its root.

    Every atom after the first must connect to an already-placed one
    (patterns are connected by contract).
    """
    adjacency: list[list[tuple[int, PatternBond]]] = [[] for _ in pattern.atoms]
    for pb in pattern.bonds:
        adjacency[pb.i].append((pb.j, pb))
        adjacency[pb.j].append((pb.i, pb))
    root = _root(pattern)
    step_of = {root: 0}
    visit: list[tuple[int, int | None, PatternBond | None]] = [(root, None, None)]
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
    """Distinct matched atom-index sets for a pattern.

    Backtracking on an explicit stack: assignment[k] is the molecule atom
    of step k, and stack[k] iterates the (neighbour, bond) candidates for
    step k + 1 around that step's anchor atom.
    """
    plan = pattern.plan
    root = plan[0][0]
    if root.element is None:
        seeds = range(len(g.atoms))
    else:
        seeds = g.atoms_by_element.get(root.element)
        if seeds is None:  # no atom can seed the root
            return set()
    found: set[frozenset[int]] = set()
    neighbours = g._neighbors
    last = len(plan) - 1
    for seed in seeds:
        if not _atom_ok(g, seed, root):
            continue
        if not last:
            found.add(frozenset((seed,)))
            continue
        assignment = [seed]
        stack = [iter(neighbours[seed])]  # step 1 is anchored at step 0
        while stack:
            step = len(assignment)
            patom, _, anchor_bond, closures = plan[step]
            for nbr, bond in stack[-1]:
                if nbr in assignment or not _bond_ok(bond, anchor_bond) \
                        or not _atom_ok(g, nbr, patom):
                    continue
                if closures and not all(
                        _closure_ok(g, assignment[earlier], nbr, pb) for earlier, pb in closures):
                    continue
                if step == last:
                    found.add(frozenset((*assignment, nbr)))
                    continue
                assignment.append(nbr)
                stack.append(iter(neighbours[assignment[plan[step + 1][1]]]))
                break
            else:  # step's candidates are used up: take back the step before it
                stack.pop()
                assignment.pop()
    return found
