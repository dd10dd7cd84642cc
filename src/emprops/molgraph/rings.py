"""Smallest set of smallest rings, and the ring bonds.

Horton-style minimum cycle basis (Horton, SIAM J. Comput. 1987): collect
candidate cycles built from shortest paths, then greedily keep cycles whose
edge sets are independent over GF(2) until the cyclomatic number is
reached. Molecular graphs are tiny, so the O(V * E) candidate sweep is
perfectly affordable.

The shortest paths are BFS-tree paths over the graph's neighbour list, so
the candidate order, and with it the choice among equally small rings and
their order, follows the neighbour-list (bond-index) order.

A bond lies on some cycle exactly when some SSSR ring contains it: every
cycle is a GF(2) sum of basis cycles, so an edge that no basis cycle holds
lies on no cycle. The parser therefore sets Bond.in_ring from the edges of
these rings instead of searching for bridges separately.
"""

from __future__ import annotations

from emprops.molgraph.graph import MolGraph, Ring, bfs


def _path_to_root(parent: list[int], node: int) -> list[int]:
    path = [node]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def _candidate_cycles(g: MolGraph) -> list[tuple[int, ...]]:
    """Candidate rings: for every root r and edge (x, y), the cycle formed by
    the shortest paths r->x, r->y plus the edge, when those paths only share r."""
    seen: set[frozenset[int]] = set()
    cycles: list[tuple[int, ...]] = []
    for root in range(len(g.atoms)):
        parent, dist = bfs(g, root)
        for bond in g.bonds:
            x, y = bond.i, bond.j
            if dist[x] < 0 or dist[y] < 0:
                continue
            px = _path_to_root(parent, x)
            py = _path_to_root(parent, y)
            if set(px) & set(py) != {root}:
                continue
            cycle = tuple(px + py[::-1][1:])  # x..root..y, closed by (x, y)
            if len(cycle) < 3:
                continue
            key = frozenset(cycle)
            if len(key) == len(cycle) and key not in seen:
                seen.add(key)
                cycles.append(cycle)
    return cycles


def _edge_mask(cycle: tuple[int, ...], bond_index: dict[tuple[int, int], int]) -> int:
    mask = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        key = (a, b) if a < b else (b, a)
        mask |= 1 << bond_index[key]
    return mask


def cyclomatic_number(g: MolGraph) -> int:
    return len(g.bonds) - len(g.atoms) + len(g.fragments())


def sssr_atom_cycles(g: MolGraph) -> list[tuple[int, ...]]:
    """The SSSR as ordered atom cycles, smallest first, deterministic."""
    target = cyclomatic_number(g)
    if target == 0:
        return []
    bond_index = {bond.key(): i for i, bond in enumerate(g.bonds)}
    candidates = _candidate_cycles(g)
    candidates.sort(key=lambda c: (len(c), tuple(sorted(c)), c))

    basis: dict[int, int] = {}  # leading bit -> reduced mask
    chosen: list[tuple[int, ...]] = []
    for cycle in candidates:
        mask = _edge_mask(cycle, bond_index)
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
