"""Smallest set of smallest rings, and the ring bonds.

Horton-style minimum cycle basis (Horton, SIAM J. Comput. 1987): collect
candidate cycles built from shortest paths, then greedily keep cycles whose
edge sets are independent over GF(2) until the cyclomatic number is
reached.

Candidates come from the graph's 2-core only: the atoms left after
repeatedly removing atoms of degree <= 1 (Vismara 1997 restricts the
relevant cycles to the 2-connected parts). A pruned atom lies on no cycle,
so a root outside the core, or a bond with a pruned end, never closes a
candidate: every tree path from such a root runs through the one core atom
its pendant tree hangs from, and a pendant bond is a tree edge. The BFS
from each core root runs over the core alone: a pendant tree lies on no
shortest path between core atoms and enqueues no core atom, so the whole
graph's BFS reaches the core atoms in the same order and from the same
parents. Roots and bonds keep their order, so the candidate list is that
of the full sweep, order included.

For each root, every core atom the BFS reaches is labelled with its
branch: the child of the root that its tree path descends from. The tree
paths from two atoms meet below the root exactly when the atoms share a
branch, so a bond (x, y) closes a candidate exactly when x and y lie on
different branches and neither is the root (a bond at the root is a tree
edge). Paths are walked only for bonds that pass this test.

The shortest paths are BFS-tree paths over the graph's neighbour list
with the pruned atoms left out, so the candidate order, and with it the
choice among equally small rings and their order, follows the
neighbour-list (bond-index) order.

A graph whose cyclomatic number is 1 holds exactly one cycle, so every
candidate is that cycle and deduplication by atom set keeps only the
sweep's first one: the sorted candidate list has one entry, and the greedy
takes it. The sweep therefore stops at its first candidate, which gives the
same tuple, in the same rotation and direction, as the full sweep.

A bond lies on some cycle exactly when some SSSR ring contains it: every
cycle is a GF(2) sum of basis cycles, so an edge that no basis cycle holds
lies on no cycle. The parser therefore sets Bond.in_ring from the edges of
these rings instead of searching for bridges separately.
"""

from __future__ import annotations

from emprops.molgraph.graph import MolGraph, Ring


def _ring_core(g: MolGraph) -> list[bool]:
    """in_core[i]: atom i survives repeated pruning of atoms of degree <= 1."""
    neighbours = g.adjacency
    degree = [len(row) for row in neighbours]
    in_core = [True] * len(degree)
    leaves = [i for i, d in enumerate(degree) if d <= 1]
    for u in leaves:  # grows while iterated; the 2-core does not depend on the order
        in_core[u] = False
        for v in neighbours[u]:
            if in_core[v]:
                degree[v] -= 1
                if degree[v] == 1:
                    leaves.append(v)
    return in_core


def _core_walk(neighbours: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    """graph.bfs from root over the core's neighbour lists: the BFS-tree
    parent and the branch of each atom it reaches, -1 for the root and for
    every atom it does not reach."""
    parent = [-1] * len(neighbours)
    branch = [-1] * len(neighbours)
    parent[root] = root  # marks the root reached until the walk ends
    order = [root]
    for v in neighbours[root]:  # the root's children head their own branches
        if parent[v] < 0:
            parent[v] = root
            branch[v] = v
            order.append(v)
    for u in order:  # the queue: the root finds no atom left to reach
        for v in neighbours[u]:
            if parent[v] < 0:
                parent[v] = u
                branch[v] = branch[u]
                order.append(v)
    parent[root] = -1
    return parent, branch


def _candidate_cycles(g: MolGraph, first_only: bool = False) -> list[tuple[int, ...]]:
    """Candidate rings: for every core root r and core bond (x, y), the cycle
    formed by the tree paths r->x, r->y plus the bond, when those paths only
    share r. With first_only, the sweep stops at its first candidate."""
    in_core = _ring_core(g)
    bonds = [(b.i, b.j) for b in g.bonds if in_core[b.i] and in_core[b.j]]
    core_neighbours = [[v for v in row if in_core[v]] if kept else []
                       for row, kept in zip(g.adjacency, in_core)]
    seen: set[frozenset[int]] = set()
    cycles: list[tuple[int, ...]] = []
    for root in range(len(g.atoms)):
        if not in_core[root]:
            continue
        parent, branch = _core_walk(core_neighbours, root)  # unreached atoms share branch -1
        for x, y in bonds:
            if branch[x] == branch[y] or x == root or y == root:
                continue
            cycle = [x]
            while cycle[-1] != root:
                cycle.append(parent[cycle[-1]])
            tail = [y]
            while parent[tail[-1]] != root:
                tail.append(parent[tail[-1]])
            cycle.extend(reversed(tail))  # x..root..y, closed by (x, y)
            key = frozenset(cycle)
            if key not in seen:
                seen.add(key)
                cycles.append(tuple(cycle))
                if first_only:
                    return cycles
    return cycles


def _edge_mask(cycle: tuple[int, ...], bond_index: dict[tuple[int, int], int]) -> int:
    mask = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        key = (a, b) if a < b else (b, a)
        mask |= 1 << bond_index[key]
    return mask


def cyclomatic_number(g: MolGraph) -> int:
    return len(g.bonds) - len(g.atoms) + g.fragment_count


def sssr_atom_cycles(g: MolGraph) -> list[tuple[int, ...]]:
    """The SSSR as ordered atom cycles, smallest first, deterministic."""
    target = cyclomatic_number(g)
    if target == 0:
        return []
    if target == 1:  # one cycle: the sweep's first candidate (see the module docstring)
        return _candidate_cycles(g, first_only=True)
    candidates = _candidate_cycles(g)
    candidates.sort(key=lambda c: (len(c), tuple(sorted(c)), c))

    basis: dict[int, int] = {}  # leading bit -> reduced mask
    chosen: list[tuple[int, ...]] = []
    for cycle in candidates:
        mask = _edge_mask(cycle, g.bond_index)
        m = mask
        while m:
            high = m.bit_length() - 1
            if high in basis:
                m ^= basis[high]
            else:
                basis[high] = m
                chosen.append(cycle)
                break
        if len(chosen) == target:
            break
    return chosen


def _classify(g: MolGraph, cycle: tuple[int, ...]) -> Ring:
    aromatic = all(g.atoms[a].aromatic for a in cycle)
    if aromatic:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            bond = g.bond_between(a, b)
            if bond is None or bond.order != "aromatic":
                aromatic = False
                break
    hetero = any(g.atoms[a].element != "C" for a in cycle)
    return Ring(atoms=cycle, aromatic=aromatic, hetero=hetero)


def sssr_rings(g: MolGraph) -> list[Ring]:
    """SSSR with aromatic and hetero flags; empty for acyclic molecules."""
    return [_classify(g, cycle) for cycle in sssr_atom_cycles(g)]
