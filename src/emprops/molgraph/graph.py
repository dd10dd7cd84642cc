"""Graph types shared by the parser, ring perception, and descriptors."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

BOND_ORDERS = ("single", "double", "triple", "aromatic")
ORDER_VALUE = {"single": 1, "double": 2, "triple": 3}


@dataclass
class Atom:
    element: str
    formal_charge: int = 0
    aromatic: bool = False
    implicit_h: int = 0
    index: int = 0


@dataclass
class Bond:
    i: int
    j: int
    order: str
    in_ring: bool = False
    # Bond order under the kekulized assignment: equals the numeric order
    # for plain bonds, 1 or 2 for aromatic bonds once perceived.
    kekule_order: int = 0

    def key(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


@dataclass(frozen=True)
class Ring:
    """One ring of the smallest set of smallest rings."""

    atoms: tuple[int, ...]
    aromatic: bool
    hetero: bool

    @property
    def size(self) -> int:
        return len(self.atoms)


@dataclass
class MolGraph:
    """Perceived molecular graph.

    The neighbour list and the bond index are built once, when the graph
    is made: neighbors(i) holds the (neighbour atom, bond) pairs of atom i
    in bond-index order, and bond_index (read-only) maps each (low, high)
    atom pair to the index of the first bond joining them.
    Every perception step reads that list, and ring perception depends on
    its order: BFS parents, hence SSSR candidate cycles and the order of
    `rings`, follow it. Bond orders may change after construction, but the
    bond list must not gain or lose a bond.

    Treated as immutable once the parser returns it; nothing in the package
    mutates a perceived graph, so instances are safe to share.
    """

    atoms: list[Atom]
    bonds: list[Bond]
    rings: list[Ring] = field(default_factory=list)
    _neighbors: list[list[tuple[int, Bond]]] = field(init=False, repr=False, compare=False)
    bond_index: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._neighbors = [[] for _ in self.atoms]
        self.bond_index = {}
        for idx, bond in enumerate(self.bonds):
            i, j = bond.i, bond.j
            self._neighbors[i].append((j, bond))
            self._neighbors[j].append((i, bond))
            self.bond_index.setdefault((i, j) if i < j else (j, i), idx)

    def neighbors(self, idx: int) -> list[tuple[int, Bond]]:
        """(neighbor atom index, bond) pairs for one atom; do not modify."""
        return self._neighbors[idx]

    @cached_property
    def atoms_by_element(self) -> dict[str, list[int]]:
        """Atom indices per element, in index order, built on first use; do
        not modify."""
        by_element: dict[str, list[int]] = {}
        for idx, atom in enumerate(self.atoms):
            by_element.setdefault(atom.element, []).append(idx)
        return by_element

    def heavy_degree(self, idx: int) -> int:
        return len(self._neighbors[idx])

    def fragments(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists."""
        seen = [False] * len(self.atoms)
        out: list[list[int]] = []
        for start in range(len(self.atoms)):
            if not seen[start]:
                comp = sorted(bfs(self, start)[0])
                for i in comp:
                    seen[i] = True
                out.append(comp)
        return out

    def bond_between(self, i: int, j: int) -> Bond | None:
        """The lowest-index bond joining atoms i and j, or None."""
        idx = self.bond_index.get((i, j) if i < j else (j, i))
        return None if idx is None else self.bonds[idx]


@dataclass(frozen=True)
class ElementCounts:
    n_C: int = 0
    n_H: int = 0
    n_N: int = 0
    n_O: int = 0
    n_Cl: int = 0
    n_F: int = 0

    @property
    def n_atoms(self) -> int:
        return self.n_C + self.n_H + self.n_N + self.n_O + self.n_Cl + self.n_F


def molecular_formula(g: MolGraph) -> ElementCounts:
    """Element counts including implicit hydrogens."""
    counts = {"C": 0, "H": 0, "N": 0, "O": 0, "Cl": 0, "F": 0}
    for atom in g.atoms:
        counts[atom.element] += 1
        counts["H"] += atom.implicit_h
    return ElementCounts(
        n_C=counts["C"],
        n_H=counts["H"],
        n_N=counts["N"],
        n_O=counts["O"],
        n_Cl=counts["Cl"],
        n_F=counts["F"],
    )


def bfs(g: MolGraph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first search over the heavy-atom graph from root.

    Returns (order, parent): the atoms reached, root first, in visit order;
    and the BFS-tree parent of each atom (-1 for the root and unreachable
    atoms). Neighbours are visited in neighbour-list order, so order and
    parents are deterministic. The order list is the queue itself:
    iterating it while appending visits each reached atom once.
    """
    parent = [-1] * len(g.atoms)
    parent[root] = root  # marks the root reached until the walk ends
    order = [root]
    for u in order:
        for v, _ in g._neighbors[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    parent[root] = -1
    return order, parent
