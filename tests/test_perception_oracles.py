"""Perception over the shared neighbour list against its predecessors.

The oracles below are the earlier implementations, kept verbatim in logic:
ring bonds found by one bridge test (BFS) per bond, E-state distances from
a BFS over a bond-list adjacency, and the SSSR candidate sweep over its own
adjacency. The parser now reads ring bonds off the SSSR and every step
shares MolGraph's neighbour list and graph.bfs; the results must be equal,
E-state values bit for bit.
"""

from __future__ import annotations

import math
from collections import deque

import pytest

from emprops.descriptors import estate_vector
from emprops.molgraph import parse_smiles
from emprops.molgraph.elements import PRINCIPAL_QUANTUM, VALENCE_ELECTRONS
from emprops.molgraph.rings import _edge_mask, cyclomatic_number, sssr_atom_cycles

from conftest import CORPUS

RING_SYSTEMS = {
    "cubane": "C12C3C4C1C5C2C3C45",
    "adamantane": "C1C2CC3CC1CC(C2)C3",
    "bicyclo": "C1CC2CCC1CC2",
    "spiro": "C1CC2(CC1)CCCC2",
    "pyrene": "c1cc2ccc3cccc4ccc(c1)c2c34",
    "hexamine": "N12CN3CN(C1)CN(C2)C3",
    "multi_fragment": "c1ccccc1.C1CC1CC.C[N+](=O)[O-].C12C3C4C1C5C2C3C45",
    "biphenyl": "c1ccc(cc1)-c1ccccc1",
}

SMILES = {**CORPUS, **RING_SYSTEMS}


def _bond_adjacency(g) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in g.atoms]
    for bidx, bond in enumerate(g.bonds):
        adj[bond.i].append((bond.j, bidx))
        adj[bond.j].append((bond.i, bidx))
    return adj


def oracle_ring_bonds(g) -> set[tuple[int, int]]:
    """Bonds whose endpoints stay connected once the bond is removed."""
    adj = _bond_adjacency(g)
    ring_bonds = set()
    for bidx, bond in enumerate(g.bonds):
        seen = [False] * len(g.atoms)
        seen[bond.i] = True
        queue = deque([bond.i])
        reachable = False
        while queue and not reachable:
            u = queue.popleft()
            for v, eidx in adj[u]:
                if eidx == bidx or seen[v]:
                    continue
                if v == bond.j:
                    reachable = True
                    break
                seen[v] = True
                queue.append(v)
        if reachable:
            ring_bonds.add(bond.key())
    return ring_bonds


def _oracle_bfs(adj, root: int) -> tuple[list[int], list[int]]:
    parent = [-1] * len(adj)
    dist = [-1] * len(adj)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return parent, dist


def oracle_estate(g) -> dict[str, float]:
    """Kier-Hall E-state sums with per-atom BFS distances over a bond list."""
    adj = _bond_adjacency(g)
    n = len(g.atoms)
    intrinsic = [0.0] * n
    for atom in g.atoms:
        delta = len(adj[atom.index])
        if delta == 0:
            continue
        delta_v = VALENCE_ELECTRONS[atom.element] - atom.implicit_h
        scale = (2.0 / PRINCIPAL_QUANTUM[atom.element]) ** 2
        intrinsic[atom.index] = (scale * delta_v + 1.0) / delta
    per_element: dict[str, list[float]] = {"C": [], "N": [], "O": [], "F": [], "Cl": []}
    for atom in g.atoms:
        i = atom.index
        if not adj[i]:
            continue
        terms: list[float] = []
        dist = _oracle_bfs(adj, i)[1]
        for j in range(n):
            if j == i or dist[j] < 0 or not adj[j]:
                continue
            terms.append((intrinsic[i] - intrinsic[j]) / (dist[j] + 1.0) ** 2)
        per_element[atom.element].append(intrinsic[i] + math.fsum(sorted(terms)))
    return {f"estate_{e}": math.fsum(sorted(v)) for e, v in per_element.items()}


def oracle_sssr(g) -> list[tuple[int, ...]]:
    """Horton candidate sweep over a private adjacency, then the GF(2) greedy."""
    target = cyclomatic_number(g)
    if target == 0:
        return []
    adj = _bond_adjacency(g)
    seen: set[frozenset[int]] = set()
    candidates: list[tuple[int, ...]] = []
    for root in range(len(g.atoms)):
        parent, dist = _oracle_bfs(adj, root)

        def to_root(node):
            path = [node]
            while parent[path[-1]] >= 0:
                path.append(parent[path[-1]])
            return path

        for bond in g.bonds:
            if dist[bond.i] < 0 or dist[bond.j] < 0:
                continue
            px, py = to_root(bond.i), to_root(bond.j)
            if set(px) & set(py) != {root}:
                continue
            cycle = tuple(px + py[::-1][1:])
            key = frozenset(cycle)
            if len(cycle) >= 3 and len(key) == len(cycle) and key not in seen:
                seen.add(key)
                candidates.append(cycle)
    candidates.sort(key=lambda c: (len(c), tuple(sorted(c)), c))
    bond_index = {bond.key(): i for i, bond in enumerate(g.bonds)}
    basis: dict[int, int] = {}
    chosen: list[tuple[int, ...]] = []
    for cycle in candidates:
        m = _edge_mask(cycle, bond_index)
        while m:
            high = m.bit_length() - 1
            if high not in basis:
                basis[high] = m
                chosen.append(cycle)
                break
            m ^= basis[high]
        if len(chosen) == target:
            break
    return chosen


@pytest.mark.parametrize("smiles", SMILES.values(), ids=SMILES)
def test_ring_bonds_match_bridge_search(smiles):
    g = parse_smiles(smiles)
    assert {b.key() for b in g.bonds if b.in_ring} == oracle_ring_bonds(g)


@pytest.mark.parametrize("smiles", SMILES.values(), ids=SMILES)
def test_estate_bit_equal(smiles):
    g = parse_smiles(smiles)
    new, old = estate_vector(g), oracle_estate(g)
    assert new.keys() == old.keys()
    assert all(new[k].hex() == old[k].hex() for k in old)


@pytest.mark.parametrize("smiles", SMILES.values(), ids=SMILES)
def test_sssr_cycles_and_order_match(smiles):
    g = parse_smiles(smiles)
    assert sssr_atom_cycles(g) == oracle_sssr(g)
    assert [ring.atoms for ring in g.rings] == oracle_sssr(g)


def test_ring_systems_have_expected_ring_counts():
    counts = {name: len(parse_smiles(s).rings) for name, s in RING_SYSTEMS.items()}
    assert counts == {"cubane": 5, "adamantane": 3, "bicyclo": 2, "spiro": 2, "pyrene": 4,
                      "hexamine": 3, "multi_fragment": 7, "biphenyl": 2}


def test_biphenyl_bridge_is_demoted_and_not_in_ring():
    g = parse_smiles("c1ccc(cc1)c1ccccc1")
    bridge = g.bond_between(3, 6)
    assert bridge.order == "single" and not bridge.in_ring
    assert sum(b.in_ring for b in g.bonds) == 12
