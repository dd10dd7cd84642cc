"""Perception against its predecessors, kept as exact oracles.

The oracles below are the earlier implementations, kept verbatim in logic:
ring bonds found by one bridge test (BFS) per bond; E-state from a BFS over
a bond-list adjacency with sorted sums; the SSSR candidate sweep from every
root over every bond of the whole graph, rejecting a bond when the two
tree paths share more than the root; and substructure matching that
rechecks every pattern bond after each placement. The code under test reads
ring bonds off the SSSR, sweeps only the ring core with a branch test, sums
E-state terms unsorted with math.fsum, and matches along a cached plan; the
results must be equal, candidate lists in order and E-state values bit for
bit. The parsed corpus is checked, and random carbon graphs built directly
check the ring-core argument beyond it.
"""

from __future__ import annotations

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emprops.descriptors import ACIDIC_PATTERNS, PATTERN_TABLE, estate_vector
from emprops.molgraph import (
    Atom,
    Bond,
    MolGraph,
    PatternAtom,
    PatternBond,
    SubstructurePattern,
    parse_smiles,
    rings,
)
from emprops.molgraph.elements import PRINCIPAL_QUANTUM, VALENCE_ELECTRONS
from emprops.molgraph.match import _atom_ok, _bond_ok, match_atom_sets
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


def oracle_candidate_cycles(g) -> list[tuple[int, ...]]:
    """Horton candidates from every root and every bond of the whole graph."""
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
    return candidates


def oracle_sssr(g) -> list[tuple[int, ...]]:
    """The oracle candidates, sorted, then the GF(2) greedy."""
    target = cyclomatic_number(g)
    if target == 0:
        return []
    candidates = oracle_candidate_cycles(g)
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


def oracle_core(g) -> set[int]:
    """The 2-core by definition: drop every atom of degree <= 1 until none is left."""
    alive = set(range(len(g.atoms)))
    while True:
        leaves = {i for i in alive if sum(v in alive for v, _ in g.neighbors(i)) <= 1}
        if not leaves:
            return alive
        alive -= leaves


def _oracle_match_order(pattern):
    adjacency = {i: [] for i in range(len(pattern.atoms))}
    for pb in pattern.bonds:
        adjacency[pb.i].append((pb.j, pb))
        adjacency[pb.j].append((pb.i, pb))
    order = [(0, None, None)]
    placed = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop(0)
        for v, pb in adjacency[u]:
            if v not in placed:
                placed.add(v)
                order.append((v, u, pb))
                frontier.append(v)
    return order


def oracle_match_atom_sets(g, pattern) -> set[frozenset[int]]:
    """Backtracking that rechecks every pattern bond with both ends placed."""
    order = _oracle_match_order(pattern)
    found: set[frozenset[int]] = set()
    assignment: dict[int, int] = {}

    def constraints_hold() -> bool:
        for pb in pattern.bonds:
            a, b = assignment.get(pb.i), assignment.get(pb.j)
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
            if midx in assignment.values() or not _atom_ok(g, midx, pattern.atoms[pidx]):
                continue
            assignment[pidx] = midx
            if constraints_hold():
                backtrack(step + 1)
            del assignment[pidx]

    backtrack(0)
    return found


def _ring_pattern(name: str, atoms, orders) -> SubstructurePattern:
    """A cycle pattern: atom k bonds atom k+1 (the last atom bonds atom 0) with orders[k]."""
    n = len(atoms)
    bonds = tuple(PatternBond(k, (k + 1) % n, orders[k]) for k in range(n))
    return SubstructurePattern(name=name, atoms=tuple(atoms), bonds=bonds)


CARBON, ANY = PatternAtom(element="C"), PatternAtom()
# The table patterns are trees; these have ring-closure bonds.
CLOSURE_PATTERNS = {
    "three_carbon_cycle": _ring_pattern("three_carbon_cycle", [CARBON] * 3, [None] * 3),
    # atom 0 places atoms 1 and 2, so the double bond 1-2 is the closure
    "three_cycle_double_closure": _ring_pattern(
        "three_cycle_double_closure", [CARBON] * 3, [None, "double", None]),
    "aromatic_six_cycle": _ring_pattern("aromatic_six_cycle", [ANY] * 6, ["aromatic"] * 6),
    "carbonyl_in_ring": SubstructurePattern(
        name="carbonyl_in_ring",
        atoms=(CARBON, PatternAtom(element="O"), ANY, ANY),
        bonds=(PatternBond(0, 1, "double"), PatternBond(0, 2), PatternBond(0, 3),
               PatternBond(2, 3)),
    ),
}
PATTERNS = {**PATTERN_TABLE, **ACIDIC_PATTERNS, **CLOSURE_PATTERNS}


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
    assert rings._candidate_cycles(g) == oracle_candidate_cycles(g)
    assert sssr_atom_cycles(g) == oracle_sssr(g)
    assert [ring.atoms for ring in g.rings] == oracle_sssr(g)


@pytest.mark.parametrize("smiles", SMILES.values(), ids=SMILES)
def test_candidate_sweep_runs_from_ring_core_roots_only(smiles, monkeypatch):
    g = parse_smiles(smiles)
    core = oracle_core(g)
    assert {i for i, kept in enumerate(rings._ring_core(g)) if kept} == core
    roots = []
    real_bfs = rings.bfs

    def counting_bfs(graph, root):
        roots.append(root)
        return real_bfs(graph, root)

    monkeypatch.setattr(rings, "bfs", counting_bfs)
    rings._candidate_cycles(g)
    assert roots == sorted(core)


@pytest.mark.parametrize("smiles", SMILES.values(), ids=SMILES)
def test_match_sets_equal_for_every_pattern(smiles):
    g = parse_smiles(smiles)
    for name, pattern in PATTERNS.items():
        assert match_atom_sets(g, pattern) == oracle_match_atom_sets(g, pattern), name


def test_closure_patterns_match_where_expected():
    counts = {(name, mol): len(match_atom_sets(parse_smiles(s), CLOSURE_PATTERNS[name]))
              for name, mol, s in [("three_carbon_cycle", "cyclopropane", "C1CC1"),
                                   ("three_carbon_cycle", "propane", "CCC"),
                                   ("three_cycle_double_closure", "cyclopropane", "C1CC1"),
                                   ("three_cycle_double_closure", "cyclopropene", "C1=CC1"),
                                   ("aromatic_six_cycle", "naphthalene", "c1ccc2ccccc2c1"),
                                   ("carbonyl_in_ring", "cyclopropanone", "O=C1CC1")]}
    assert counts == {("three_carbon_cycle", "cyclopropane"): 1,
                      ("three_carbon_cycle", "propane"): 0,
                      ("three_cycle_double_closure", "cyclopropane"): 0,
                      ("three_cycle_double_closure", "cyclopropene"): 1,
                      ("aromatic_six_cycle", "naphthalene"): 2,
                      ("carbonyl_in_ring", "cyclopropanone"): 1}


@st.composite
def carbon_graphs(draw) -> MolGraph:
    """A connected carbon graph with single bonds, built directly: a random
    tree with up to six extra edges, pendant chains hung on it, then atoms
    and bonds shuffled so neither index order nor bond order is special."""
    n = draw(st.integers(3, 30))
    n_chain = draw(st.integers(0, n - 3))
    n_tree = n - n_chain
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n_tree)}
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.integers(0, n_tree - 1)), draw(st.integers(0, n_tree - 1))
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    for v in range(n_tree, n):  # continue the last chain, or start one anywhere
        extend = v > n_tree and draw(st.booleans())
        edges.add((v - 1 if extend else draw(st.integers(0, v - 1)), v))
    label = draw(st.permutations(range(n)))
    bonds = [Bond(label[a], label[b], "single") if draw(st.booleans())
             else Bond(label[b], label[a], "single") for a, b in sorted(edges)]
    bonds = draw(st.permutations(bonds))
    return MolGraph(atoms=[Atom("C", index=i) for i in range(n)], bonds=bonds)


@settings(max_examples=300, deadline=None)
@given(carbon_graphs())
def test_random_carbon_graphs_match_oracles(g):
    assert rings._candidate_cycles(g) == oracle_candidate_cycles(g)
    cycles = sssr_atom_cycles(g)
    assert cycles == oracle_sssr(g)
    ring_edges = {(min(a, b), max(a, b)) for c in cycles for a, b in zip(c, c[1:] + c[:1])}
    assert ring_edges == oracle_ring_bonds(g)
    new, old = estate_vector(g), oracle_estate(g)
    assert all(new[k].hex() == old[k].hex() for k in old)


def test_ring_systems_have_expected_ring_counts():
    counts = {name: len(parse_smiles(s).rings) for name, s in RING_SYSTEMS.items()}
    assert counts == {"cubane": 5, "adamantane": 3, "bicyclo": 2, "spiro": 2, "pyrene": 4,
                      "hexamine": 3, "multi_fragment": 7, "biphenyl": 2}


def test_biphenyl_bridge_is_demoted_and_not_in_ring():
    g = parse_smiles("c1ccc(cc1)c1ccccc1")
    bridge = g.bond_between(3, 6)
    assert bridge.order == "single" and not bridge.in_ring
    assert sum(b.in_ring for b in g.bonds) == 12
