"""Perception against its predecessors, kept as exact oracles.

The oracles below are the earlier implementations, kept verbatim in logic:
ring bonds found by one bridge test (BFS) per bond; E-state from a BFS over
a bond-list adjacency with sorted sums; the SSSR candidate sweep from every
root over every bond of the whole graph, rejecting a bond when the two
tree paths share more than the root; substructure matching that rechecks
every pattern bond after each placement; kekulization by one recursive
search over every needy atom of the molecule; and the tokenizer that added
each atom and bond through a builder object, checking every bond against a
set of all bonds so far. The code under test reads ring bonds off the SSSR,
sweeps only the ring core with a branch test, sums E-state terms unsorted
with math.fsum from the walks of atoms that are not pendant, matches along
a cached plan on an explicit stack, kekulizes each component of needy
atoms on an explicit stack, and tokenizes in one loop that checks only
ring closures for repeated bonds; the results must be equal, candidate
lists in order, E-state values bit for bit, and errors in type and
message.
The parsed corpus is checked; random carbon graphs built directly check
the ring-core argument beyond it, and random heteroatom graphs (charges, H
counts, aromatic flags, bond orders) check matching from each pattern's
most constrained atom and the per-atom E-state walk.
"""

from __future__ import annotations

import math
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emprops.descriptors import ACIDIC_PATTERNS, PATTERN_TABLE, estate_vector
from emprops.errors import (
    KekulizationError,
    SmilesSyntaxError,
    ToolkitError,
    UnsupportedElement,
    ValenceError,
)
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
from emprops.molgraph import parser
from emprops.molgraph.elements import PRINCIPAL_QUANTUM, VALENCE_ELECTRONS, effective_valence
from emprops.molgraph.graph import BOND_ORDERS, ORDER_VALUE, bfs
from emprops.molgraph.match import _atom_ok, _bond_ok, match_atom_sets
from emprops.molgraph.rings import _edge_mask, cyclomatic_number, sssr_atom_cycles

from conftest import CORPUS, SPELLING_PAIRS, malformed_examples

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

# Pendant-heavy molecules: the E-state reads a pendant atom's terms off its
# hub's walk, and two pendants of one hub with one intrinsic state share S.
PENDANT_HEAVY = {
    "neopentane": "C(C)(C)(C)C",
    "tetranitromethane": "C([N+](=O)[O-])([N+](=O)[O-])([N+](=O)[O-])[N+](=O)[O-]",
    "hexanitroethane": "C([N+](=O)[O-])([N+](=O)[O-])([N+](=O)[O-])"
                       "C([N+](=O)[O-])([N+](=O)[O-])[N+](=O)[O-]",
    "dinitramide": "[O-][N+](=O)[N-][N+](=O)[O-]",
    "trifluoronitromethane": "FC(F)(F)[N+](=O)[O-]",
    "nitrate_ester_chain": "OCCO[N+](=O)[O-]",
    "two_atoms_charged": "[NH3+][O-]",
}

UNICYCLIC = {f"ring_{size}": "C1" + "C" * (size - 1) + "1" for size in range(3, 9)} | {
    "cyclopropanone": "O=C1CC1",
    "furazan_chain": "CCc1nonc1CC",
    "nitrobenzene": "c1ccccc1[N+](=O)[O-]",
    "cyclooctatetraene": "C1=CC=CC=CC=C1",
    "two_fragments": "C1CC1.CCO",
}

SMILES = {**CORPUS, **RING_SYSTEMS, **PENDANT_HEAVY, **UNICYCLIC}


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


def oracle_tokenize(text: str):
    """The builder-based tokenizer: (atoms, bonds, explicit H counts,
    default-aromatic bond indices), with ASCII digits, non-empty fragments
    and branches, no branch opened directly after '(' nor started with a
    ring closure, and no bond symbol before a fragment's first atom."""
    atoms, bonds, explicit_h, default_aromatic, pairs = [], [], [], [], set()
    prev = pending = None
    branch_stack, ring_open = [], {}
    branch_digit = None

    def add_bond(i, j, symbol, pos):
        if i == j:
            raise SmilesSyntaxError(f"bond from atom to itself at position {pos}")
        key = (i, j) if i < j else (j, i)
        if key in pairs:
            raise SmilesSyntaxError(f"duplicate bond between atoms {key[0]} and {key[1]}")
        both = atoms[i].aromatic and atoms[j].aromatic
        if symbol is None:
            order = "aromatic" if both else "single"
            if order == "aromatic":
                default_aromatic.append(len(bonds))
        else:
            order = parser._BOND_SYMBOLS[symbol]
        if order == "aromatic" and not both:
            raise SmilesSyntaxError(f"aromatic bond between non-aromatic atoms {i} and {j}")
        pairs.add(key)
        bonds.append(Bond(i=i, j=j, order=order))

    def attach(element, aromatic, charge, h_count, pos):
        nonlocal prev, pending
        if branch_digit is not None:
            raise SmilesSyntaxError(f"branch starts with a ring closure at position {branch_digit}")
        atoms.append(Atom(element=element, formal_charge=charge, aromatic=aromatic,
                          index=len(atoms)))
        explicit_h.append(h_count)
        if prev is not None:
            add_bond(prev, len(atoms) - 1, pending, pos)
        prev, pending = len(atoms) - 1, None

    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesSyntaxError(f"unterminated bracket atom at position {i}")
            element, aromatic, h_count, charge = parser._parse_bracket(text[i + 1:end], i)
            attach(element, aromatic, charge, h_count, i)
            i = end + 1
        elif text.startswith("Cl", i):
            attach("Cl", False, 0, None, i)
            i += 2
        elif ch in "CNOF":
            attach(ch, False, 0, None, i)
            i += 1
        elif ch in "cno":
            attach(ch.upper(), True, 0, None, i)
            i += 1
        elif ch in parser._BOND_SYMBOLS:
            if prev is None:
                raise SmilesSyntaxError(f"bond symbol before any atom at position {i}")
            if pending is not None:
                raise SmilesSyntaxError(f"two bond symbols in a row at position {i}")
            pending = ch
            i += 1
        elif ch in "0123456789" or ch == "%":
            if branch_stack and branch_stack[-1][1] == len(atoms) and branch_digit is None:
                branch_digit = i
            if ch == "%":
                if i + 2 >= n or not all(c in "0123456789" for c in text[i + 1:i + 3]):
                    raise SmilesSyntaxError(f"%% ring closure needs two digits at position {i}")
                number, i = int(text[i + 1:i + 3]), i + 3
            else:
                number, i = int(ch), i + 1
            if prev is None:
                raise SmilesSyntaxError("ring closure before any atom")
            if number in ring_open:
                other, other_sym = ring_open.pop(number)
                if pending is not None and other_sym is not None and pending != other_sym:
                    raise SmilesSyntaxError(f"conflicting bond symbols on ring closure {number}")
                add_bond(prev, other, pending or other_sym, i)
            else:
                ring_open[number] = (prev, pending)
            pending = None
        elif ch == "(":
            if prev is None:
                raise SmilesSyntaxError(f"branch before any atom at position {i}")
            if pending is not None:
                raise SmilesSyntaxError(f"bond symbol before branch open at position {i}")
            if text[i - 1] == "(":
                raise SmilesSyntaxError(f"branch open directly after '(' at position {i}")
            branch_stack.append((prev, len(atoms)))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError(f"unbalanced ')' at position {i}")
            if pending is not None:
                raise SmilesSyntaxError(f"dangling bond before ')' at position {i}")
            prev, atoms_at_open = branch_stack.pop()
            if len(atoms) == atoms_at_open:
                raise SmilesSyntaxError(f"empty branch closed at position {i}")
            i += 1
        elif ch == ".":
            if pending is not None or branch_stack:
                raise SmilesSyntaxError(f"misplaced fragment separator at position {i}")
            if prev is None or i == n - 1:
                raise SmilesSyntaxError(f"empty fragment next to '.' at position {i}")
            prev = None
            i += 1
        elif ch == "@":
            raise SmilesSyntaxError(f"unexpected '@' at position {i}")
        else:
            attempt = parser._ELEMENT_ATTEMPT_RE.match(text, i)
            if attempt:
                raise UnsupportedElement(
                    f"element {attempt.group(0)!r} at position {i} is outside CHNOClF")
            raise SmilesSyntaxError(f"unexpected character {ch!r} at position {i}")
    if branch_stack:
        raise SmilesSyntaxError("unbalanced '(' in input")
    if ring_open:
        raise SmilesSyntaxError(f"dangling ring closure(s): {sorted(ring_open)}")
    if pending is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not atoms:
        raise SmilesSyntaxError("empty SMILES")
    return atoms, bonds, explicit_h, default_aromatic


def oracle_kekulize(g, explicit_h) -> None:
    """Kekule orders from the lexicographically first perfect matching over
    every needy aromatic atom at once, by recursive backtracking."""
    aromatic_atoms = [a.index for a in g.atoms if a.aromatic]
    if not aromatic_atoms:
        for bond in g.bonds:
            bond.kekule_order = ORDER_VALUE[bond.order]
        return

    aromatic_ring_atoms: set[int] = set()
    for ring in g.rings:
        if ring.aromatic:
            aromatic_ring_atoms.update(ring.atoms)
    for idx in aromatic_atoms:
        if idx not in aromatic_ring_atoms:
            raise KekulizationError(f"aromatic atom {idx} is not part of an aromatic ring")
    for bond in g.bonds:
        if bond.order == "aromatic" and not bond.in_ring:
            raise KekulizationError(
                f"aromatic bond between atoms {bond.i} and {bond.j} is not in a ring"
            )

    sigma = {
        idx: sum(1 if bond.order == "aromatic" else ORDER_VALUE[bond.order]
                 for _, bond in g.neighbors(idx))
        for idx in aromatic_atoms
    }

    needy: set[int] = set()
    for idx in aromatic_atoms:
        atom = g.atoms[idx]
        valence = effective_valence(atom.element, atom.formal_charge)
        h_count = explicit_h[idx]
        if h_count is None:
            needs = max(0, min(1, valence - sigma[idx]))
        else:
            needs = valence - sigma[idx] - h_count
            if needs < 0 or needs > 1:
                raise ValenceError(
                    f"aromatic atom {idx} ({atom.element}) cannot satisfy valence {valence}"
                )
        if needs:
            needy.add(idx)

    partner_bonds = {
        idx: sorted(((v, bond) for v, bond in g.neighbors(idx)
                     if bond.order == "aromatic" and v in needy), key=lambda pair: pair[0])
        for idx in needy
    }

    matched: dict[int, int] = {}
    double_bonds: set[int] = set()

    def backtrack() -> bool:
        unmatched = [idx for idx in sorted(needy) if idx not in matched]
        if not unmatched:
            return True
        u = unmatched[0]
        for v, bond in partner_bonds[u]:
            if v in matched:
                continue
            matched[u] = v
            matched[v] = u
            double_bonds.add(id(bond))
            if backtrack():
                return True
            del matched[u]
            del matched[v]
            double_bonds.discard(id(bond))
        return False

    if not backtrack():
        raise KekulizationError("no kekule structure exists for the aromatic system")

    for bond in g.bonds:
        if bond.order == "aromatic":
            bond.kekule_order = 2 if id(bond) in double_bonds else 1
        else:
            bond.kekule_order = ORDER_VALUE[bond.order]


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
    # the matcher starts from the charged nitrogen, a ring atom other than atom 0
    "charged_nitrogen_four_cycle": _ring_pattern(
        "charged_nitrogen_four_cycle", [CARBON, ANY, PatternAtom(element="N", charge=1), ANY],
        [None] * 4),
    # the matcher starts from the hydroxyl oxygen, off the ring
    "hydroxyl_on_three_cycle": SubstructurePattern(
        name="hydroxyl_on_three_cycle",
        atoms=(ANY, ANY, ANY, PatternAtom(element="O", h_count=1)),
        bonds=(PatternBond(0, 1), PatternBond(1, 2), PatternBond(2, 0),
               PatternBond(0, 3, "single")),
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


@pytest.mark.parametrize("smiles", UNICYCLIC.values(), ids=UNICYCLIC)
def test_one_cycle_stops_at_the_full_sweeps_ring(smiles):
    g = parse_smiles(smiles)
    assert cyclomatic_number(g) == 1
    assert rings._candidate_cycles(g, first_only=True) == rings._candidate_cycles(g)
    assert [ring.atoms for ring in g.rings] == oracle_sssr(g)


@pytest.mark.parametrize("smiles", SMILES.values(), ids=SMILES)
def test_candidate_sweep_runs_from_ring_core_roots_only(smiles, monkeypatch):
    g = parse_smiles(smiles)
    core = oracle_core(g)
    assert {i for i, kept in enumerate(rings._ring_core(g)) if kept} == core
    roots = []
    real_walk = rings._core_walk

    def counting_walk(neighbours, root):
        roots.append(root)
        parent, branch = real_walk(neighbours, root)
        # it stays in the core, where its parents are the whole-graph BFS's
        whole = bfs(g, root)[1]
        reached = {v for v, p in enumerate(parent) if p >= 0}
        assert reached == {v for v in core if whole[v] >= 0}
        assert all(parent[v] == whole[v] for v in reached)
        return parent, branch

    monkeypatch.setattr(rings, "_core_walk", counting_walk)
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
                                   ("carbonyl_in_ring", "cyclopropanone", "O=C1CC1"),
                                   ("charged_nitrogen_four_cycle", "azetidinium", "C1C[NH2+]C1"),
                                   ("charged_nitrogen_four_cycle", "azetidine", "C1CNC1"),
                                   ("hydroxyl_on_three_cycle", "cyclopropanol", "OC1CC1")]}
    assert counts == {("three_carbon_cycle", "cyclopropane"): 1,
                      ("three_carbon_cycle", "propane"): 0,
                      ("three_cycle_double_closure", "cyclopropane"): 0,
                      ("three_cycle_double_closure", "cyclopropene"): 1,
                      ("aromatic_six_cycle", "naphthalene"): 2,
                      ("carbonyl_in_ring", "cyclopropanone"): 1,
                      ("charged_nitrogen_four_cycle", "azetidinium"): 1,
                      ("charged_nitrogen_four_cycle", "azetidine"): 0,
                      ("hydroxyl_on_three_cycle", "cyclopropanol"): 1}


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
    if cyclomatic_number(g) == 1:  # the sweep's first candidate is the whole SSSR
        assert rings._candidate_cycles(g, first_only=True) == oracle_candidate_cycles(g)
    cycles = sssr_atom_cycles(g)
    assert cycles == oracle_sssr(g)
    ring_edges = {(min(a, b), max(a, b)) for c in cycles for a, b in zip(c, c[1:] + c[:1])}
    assert ring_edges == oracle_ring_bonds(g)
    new, old = estate_vector(g), oracle_estate(g)
    assert all(new[k].hex() == old[k].hex() for k in old)


# Groups hung on heteroatom graphs: (element, charge, H count) per atom, the
# first bonded singly to the anchor, and (i, j, order) bonds within the group.
HUNG_GROUPS = (
    ((("N", 1, 0), ("O", 0, 0), ("O", -1, 0)), ((0, 1, "double"), (0, 2, "single"))),  # nitro
    ((("N", 0, 0), ("N", 1, 0), ("N", -1, 0)), ((0, 1, "double"), (1, 2, "double"))),  # azide
    ((("C", 0, 0), ("O", 0, 0), ("O", 0, 1)), ((0, 1, "double"), (0, 2, "single"))),  # carboxyl
    ((("N", 1, 0), ("O", -1, 0)), ((0, 1, "single"),)),  # N-oxide
    ((("N", 0, 2),), ()),  # primary amine
)


@st.composite
def heteroatom_graphs(draw) -> MolGraph:
    """carbon_graphs' shapes with random elements, charges, H counts,
    aromatic flags and bond orders, up to four functional groups hung on and
    perhaps an isolated atom, so that the patterns match in some graphs and
    the E-state walk meets unreachable atoms."""
    shape = draw(carbon_graphs())
    atoms = [Atom(draw(st.sampled_from(("C", "C", "N", "O", "F", "Cl"))),
                  formal_charge=draw(st.sampled_from((-1, 0, 0, 1))),
                  aromatic=draw(st.booleans()), implicit_h=draw(st.integers(0, 3)), index=i)
             for i in range(len(shape.atoms))]
    bonds = [Bond(b.i, b.j, draw(st.sampled_from(BOND_ORDERS))) for b in shape.bonds]
    for _ in range(draw(st.integers(0, 4))):
        group_atoms, group_bonds = draw(st.sampled_from(HUNG_GROUPS))
        anchor, n = draw(st.integers(0, len(atoms) - 1)), len(atoms)
        atoms += [Atom(e, charge, implicit_h=h, index=n + k)
                  for k, (e, charge, h) in enumerate(group_atoms)]
        bonds += [Bond(anchor, n, "single")]
        bonds += [Bond(n + i, n + j, order) for i, j, order in group_bonds]
    if draw(st.booleans()):
        atoms.append(Atom(draw(st.sampled_from(("C", "N", "O"))), index=len(atoms)))
    return MolGraph(atoms=atoms, bonds=bonds)


@settings(max_examples=300, deadline=None)
@given(heteroatom_graphs())
def test_random_heteroatom_graphs_match_oracles(g):
    for name, pattern in PATTERNS.items():
        assert match_atom_sets(g, pattern) == oracle_match_atom_sets(g, pattern), name
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


def perception(smiles: str):
    """What parse_smiles gives: every bond's Kekule order and every atom's
    hydrogen count, or the error's class and message."""
    try:
        g = parse_smiles(smiles)
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)
    return [b.kekule_order for b in g.bonds], [a.implicit_h for a in g.atoms]


def assert_kekulized_as_oracle(smiles: str, monkeypatch) -> None:
    new = perception(smiles)
    with monkeypatch.context() as patch:
        patch.setattr(parser, "_kekulize", oracle_kekulize)
        assert new == perception(smiles), smiles


AROMATIC_SYSTEMS = [
    "c1ccc2ccccc2c1", "c1ccc2cc3ccccc3cc2c1", "c1cc2cccc3cccc1c23", "c1cccc2cccc12",
    "c1ccccc1c1cccc1", "c1cc[nH]c1", "c1ccoc1", "[n-]1cccc1", "c1ncncn1", "c1cnc2[nH]cnc2c1",
    "Cc1ccc(cc1[N+](=O)[O-])C", "c1ccc2c(c1)oc1ccccc12", "c1ccc2ccc3cccc4ccc1c2c34",
    "n1nnn[nH]1", "c1cc2ccc1cc2", "c1ccccc1.c1cccc1", "c12c3c4c5c1c6c2c3c4c56",
    "c1ccc(cc1)" * 5 + "c1cccc1", "[nH]1cccc1c1ccccc1", "c1ccc2[nH]ccc2c1", "o1cccc1c1ccco1",
]


@pytest.mark.parametrize("smiles", [*SMILES.values(), *(s for pair in SPELLING_PAIRS for s in pair),
                                    *AROMATIC_SYSTEMS])
def test_kekulization_matches_oracle(smiles, monkeypatch):
    assert_kekulized_as_oracle(smiles, monkeypatch)


def tokenized(tokenize, text: str):
    try:
        return tuple(tokenize(text))
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)


SMILES_TOKENS = ["C", "N", "O", "F", "Cl", "c", "n", "o", "[N+]", "[O-]", "[nH]", "[NH2+]",
                 "[C@@H]", "[13C]", "[Cl", "[Na]", "[]", "1", "2", "%12", "%1", "(", ")", "-",
                 "=", "#", ":", "/", "\\", ".", "@", "x", "Br", "\u00b2"]


@pytest.mark.parametrize("smiles", [*SMILES.values(), *(s for pair in SPELLING_PAIRS for s in pair),
                                    "C11", "C12CC12", "C1CC1C1", "c1:c", "C:C", "=C", ".C", "C=1CC-1"])
def test_tokenizer_matches_oracle(smiles):
    assert tokenized(parser._tokenize_and_build, smiles) == tokenized(oracle_tokenize, smiles)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SMILES_TOKENS), min_size=1, max_size=12).map("".join))
@malformed_examples
def test_tokenizer_of_generated_text_matches_oracle(text):
    assert tokenized(parser._tokenize_and_build, text) == tokenized(oracle_tokenize, text)


FRAMEWORKS = ["c1ccccc1", "c1cccc1", "c1ccc2ccccc2c1", "c1ccc2cccc2c1", "c1cc2cccc3cccc1c23",
              "c1ccc2c(c1)ccc1ccccc12", "c1ccc(cc1)", "c1ccc2cc3ccccc3cc2c1", "C"]


@st.composite
def aromatic_smiles(draw) -> str:
    """Up to three aromatic frameworks, bonded or as fragments, with each
    aromatic carbon drawn again as c, n, [nH], o or [n-]: about a sixth
    parse, the rest end in a valence or kekulization error."""
    joint = draw(st.sampled_from(["", "."]))
    text = joint.join(draw(st.lists(st.sampled_from(FRAMEWORKS), min_size=1, max_size=3)))
    atoms = st.sampled_from(["c", "c", "c", "n", "[nH]", "o", "[n-]"])
    return re.sub("c", lambda _: draw(atoms), text)


@settings(max_examples=300, deadline=None)
@given(aromatic_smiles())
def test_kekulization_of_generated_smiles_matches_oracle(smiles):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_kekulized_as_oracle(smiles, monkeypatch)
