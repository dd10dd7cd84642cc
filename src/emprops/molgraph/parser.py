"""SMILES parsing and perception for the supported CHNOClF grammar.

Supported notation: organic-subset atoms C N O F Cl (aromatic c n o),
bracket atoms with an explicit hydrogen count and charge (e.g. [N+],
[O-], [NH2], [nH]), bonds - = # :, branches, ring closures as digits or
%nn, and dot-separated fragments. Stereo markers (/ \\ @) are accepted
and ignored. Aromaticity is taken from the notation itself; no electron
counting is attempted.

Perception normalizes neutral nitro spellings N(=O)=O to the
charge-separated form [N+](=O)[O-], kekulizes aromatic systems by perfect
matching, and fills implicit hydrogens from charge-adjusted valences.
"""

from __future__ import annotations

import re

from emprops.errors import (
    KekulizationError,
    SmilesSyntaxError,
    UnsupportedElement,
    ValenceError,
)
from emprops.molgraph.elements import AROMATIC_TOKENS, HEAVY_ELEMENTS, effective_valence
from emprops.molgraph.graph import Atom, Bond, MolGraph, ORDER_VALUE
from emprops.molgraph.rings import sssr_rings

_BOND_SYMBOLS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
                 "/": "single", "\\": "single"}

_BRACKET_RE = re.compile(
    r"^(?P<sym>Cl|[CNOF]|[cno])(?P<stereo>@{1,2})?(?P<h>H\d*)?"
    r"(?P<charge>\+\+|--|[+-]\d+|[+-])?$"
)

_ELEMENT_ATTEMPT_RE = re.compile(r"[A-Z][a-z]?|[a-z]")


def _parse_bracket(body: str, pos: int) -> tuple[str, bool, int, int]:
    """Parse the inside of a bracket atom.

    Returns (element, aromatic, explicit_h, charge).
    """
    if body and body[0].isdigit():
        raise SmilesSyntaxError(f"isotope specifications are not supported at position {pos}")
    m = _BRACKET_RE.match(body)
    if m is None:
        attempt = _ELEMENT_ATTEMPT_RE.match(body)
        if attempt and attempt.group(0) not in HEAVY_ELEMENTS and attempt.group(0) not in AROMATIC_TOKENS:
            raise UnsupportedElement(f"element {attempt.group(0)!r} at position {pos} is outside CHNOClF")
        raise SmilesSyntaxError(f"malformed bracket atom {'[' + body + ']'!r} at position {pos}")
    sym = m.group("sym")
    aromatic = sym in AROMATIC_TOKENS
    element = AROMATIC_TOKENS.get(sym, sym)
    h_part = m.group("h")
    if h_part is None:
        h_count = 0
    elif h_part == "H":
        h_count = 1
    else:
        h_count = int(h_part[1:])
    charge_part = m.group("charge")
    if charge_part is None:
        charge = 0
    elif charge_part in ("+", "-"):
        charge = 1 if charge_part == "+" else -1
    elif charge_part in ("++", "--"):
        charge = 2 if charge_part == "++" else -2
    else:
        charge = int(charge_part)
    return element, aromatic, h_count, charge


class _Builder:
    """Accumulates atoms/bonds while walking the SMILES text."""

    def __init__(self) -> None:
        self.atoms: list[Atom] = []
        self.explicit_h: list[int | None] = []  # None until perception for organic atoms
        self.bonds: list[Bond] = []
        self.default_aromatic: list[int] = []  # bonds aromatic by omission, not ':'
        self._pairs: set[tuple[int, int]] = set()

    def add_atom(self, element: str, aromatic: bool, charge: int, explicit_h: int | None) -> int:
        idx = len(self.atoms)
        self.atoms.append(Atom(element=element, formal_charge=charge, aromatic=aromatic, index=idx))
        self.explicit_h.append(explicit_h)
        return idx

    def add_bond(self, i: int, j: int, symbol: str | None, pos: int) -> None:
        if i == j:
            raise SmilesSyntaxError(f"bond from atom to itself at position {pos}")
        key = (i, j) if i < j else (j, i)
        if key in self._pairs:
            raise SmilesSyntaxError(f"duplicate bond between atoms {key[0]} and {key[1]}")
        ai, aj = self.atoms[i], self.atoms[j]
        if symbol is None:
            order = "aromatic" if (ai.aromatic and aj.aromatic) else "single"
            if order == "aromatic":
                # demoted to single later if it turns out not to be in a ring
                # (e.g. the biphenyl bridge)
                self.default_aromatic.append(len(self.bonds))
        else:
            order = _BOND_SYMBOLS[symbol]
        if order == "aromatic" and not (ai.aromatic and aj.aromatic):
            raise SmilesSyntaxError(
                f"aromatic bond between non-aromatic atoms {i} and {j}"
            )
        self._pairs.add(key)
        self.bonds.append(Bond(i=i, j=j, order=order))


def _tokenize_and_build(text: str) -> _Builder:
    builder = _Builder()
    prev: int | None = None
    pending: str | None = None
    branch_stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None]] = {}

    def attach(idx: int, pos: int) -> None:
        nonlocal prev, pending
        if prev is not None:
            builder.add_bond(prev, idx, pending, pos)
        prev = idx
        pending = None

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesSyntaxError(f"unterminated bracket atom at position {i}")
            element, aromatic, h_count, charge = _parse_bracket(text[i + 1 : end], i)
            attach(builder.add_atom(element, aromatic, charge, h_count), i)
            i = end + 1
        elif text.startswith("Cl", i):
            attach(builder.add_atom("Cl", False, 0, None), i)
            i += 2
        elif ch in "CNOF":
            attach(builder.add_atom(ch, False, 0, None), i)
            i += 1
        elif ch in "cno":
            attach(builder.add_atom(AROMATIC_TOKENS[ch], True, 0, None), i)
            i += 1
        elif ch in _BOND_SYMBOLS:
            if pending is not None:
                raise SmilesSyntaxError(f"two bond symbols in a row at position {i}")
            pending = ch
            i += 1
        elif ch.isdigit() or ch == "%":
            if ch == "%":
                if i + 2 >= n or not text[i + 1 : i + 3].isdigit():
                    raise SmilesSyntaxError(f"%% ring closure needs two digits at position {i}")
                number = int(text[i + 1 : i + 3])
                i += 3
            else:
                number = int(ch)
                i += 1
            if prev is None:
                raise SmilesSyntaxError("ring closure before any atom")
            if number in ring_open:
                other, other_sym = ring_open.pop(number)
                if pending is not None and other_sym is not None and pending != other_sym:
                    raise SmilesSyntaxError(f"conflicting bond symbols on ring closure {number}")
                builder.add_bond(prev, other, pending or other_sym, i)
                pending = None
            else:
                ring_open[number] = (prev, pending)
                pending = None
        elif ch == "(":
            if prev is None:
                raise SmilesSyntaxError(f"branch before any atom at position {i}")
            if pending is not None:
                raise SmilesSyntaxError(f"bond symbol before branch open at position {i}")
            branch_stack.append(prev)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError(f"unbalanced ')' at position {i}")
            if pending is not None:
                raise SmilesSyntaxError(f"dangling bond before ')' at position {i}")
            prev = branch_stack.pop()
            i += 1
        elif ch == ".":
            if pending is not None or branch_stack:
                raise SmilesSyntaxError(f"misplaced fragment separator at position {i}")
            prev = None
            i += 1
        elif ch == "@":
            # stereo centers outside brackets cannot occur; treat as noise
            raise SmilesSyntaxError(f"unexpected '@' at position {i}")
        else:
            attempt = _ELEMENT_ATTEMPT_RE.match(text, i)
            if attempt:
                raise UnsupportedElement(
                    f"element {attempt.group(0)!r} at position {i} is outside CHNOClF"
                )
            raise SmilesSyntaxError(f"unexpected character {ch!r} at position {i}")

    if branch_stack:
        raise SmilesSyntaxError("unbalanced '(' in input")
    if ring_open:
        raise SmilesSyntaxError(f"dangling ring closure(s): {sorted(ring_open)}")
    if pending is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not builder.atoms:
        raise SmilesSyntaxError("empty SMILES")
    return builder


def _normalize_nitro(g: MolGraph) -> None:
    """Rewrite neutral N(=O)=O groups to the charge-separated form.

    Both spellings occur in public datasets; normalizing makes pattern
    counting and valence checks uniform. The double bond to the
    lowest-index oxygen is kept.
    """
    for n_idx, atom in enumerate(g.atoms):
        if atom.element != "N" or atom.formal_charge != 0 or atom.aromatic:
            continue
        doubles = []
        for o_idx, bond in g.neighbors(n_idx):
            other = g.atoms[o_idx]
            if (
                bond.order == "double"
                and other.element == "O"
                and other.formal_charge == 0
                and g.heavy_degree(o_idx) == 1
            ):
                doubles.append((o_idx, bond))
        if len(doubles) >= 2:
            doubles.sort(key=lambda pair: pair[0])
            o_idx, bond = doubles[-1]
            bond.order = "single"
            g.atoms[o_idx].formal_charge = -1
            atom.formal_charge = 1


def _kekulize(g: MolGraph, explicit_h: list[int | None]) -> None:
    """Assign kekule orders to aromatic bonds via perfect matching.

    An aromatic atom needs one double bond when its charge-adjusted valence
    exceeds its sigma-bond count (plus any explicit hydrogens); atoms that
    instead contribute a lone pair (furan o, pyrrole [nH], azolate [n-])
    need none. The lexicographically first perfect matching over needy
    atoms is selected, so hydrogen counts are deterministic.
    """
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

    # Adjacency over in-ring aromatic bonds between two needy atoms.
    partner_bonds = {
        idx: sorted(((v, bond) for v, bond in g.neighbors(idx)
                     if bond.order == "aromatic" and v in needy), key=lambda pair: pair[0])
        for idx in needy
    }

    # Components of needy atoms are matched independently, so the union of
    # their first matchings is the first matching of the whole.
    double_bonds: set[int] = set()
    unseen = set(needy)
    while unseen:
        component, queue = [], [unseen.pop()]
        while queue:
            component.append(queue.pop())
            for v, _ in partner_bonds[component[-1]]:
                if v in unseen:
                    unseen.remove(v)
                    queue.append(v)
        matching = None if len(component) % 2 else _first_matching(sorted(component),
                                                                    partner_bonds)
        if matching is None:
            raise KekulizationError("no kekule structure exists for the aromatic system")
        double_bonds.update(id(bond) for bond in matching)

    for bond in g.bonds:
        if bond.order == "aromatic":
            bond.kekule_order = 2 if id(bond) in double_bonds else 1
        else:
            bond.kekule_order = ORDER_VALUE[bond.order]


def _first_matching(atoms: list[int], partner_bonds: dict) -> list | None:
    """The bonds of the lexicographically first perfect matching of the
    sorted atoms, None when there is none: depth-first, the smallest
    unmatched atom taking each free partner in turn, on an explicit stack."""
    matched: set[int] = set()
    frames: list[tuple[int, int]] = []  # (position of an atom, position of its partner)
    k = p = 0  # the next atom to match and the first of its partners to try
    while True:
        while k < len(atoms) and atoms[k] in matched:
            k += 1
        if k == len(atoms):
            return [partner_bonds[atoms[k]][p][1] for k, p in frames]
        partners = partner_bonds[atoms[k]]
        while p < len(partners) and partners[p][0] in matched:
            p += 1
        if p < len(partners):
            matched.update((atoms[k], partners[p][0]))
            frames.append((k, p))
            k, p = k + 1, 0
            continue
        if not frames:
            return None
        k, p = frames.pop()
        matched.difference_update((atoms[k], partner_bonds[atoms[k]][p][0]))
        p += 1


def _assign_hydrogens(g: MolGraph, explicit_h: list[int | None]) -> None:
    for idx, atom in enumerate(g.atoms):
        order_sum = sum(bond.kekule_order for _, bond in g.neighbors(idx))
        valence = effective_valence(atom.element, atom.formal_charge)
        h_count = explicit_h[idx]
        if h_count is None:
            implicit = valence - order_sum
            if implicit < 0:
                raise ValenceError(
                    f"atom {idx} ({atom.element}, charge {atom.formal_charge}) "
                    f"has bond order sum {order_sum} above valence {valence}"
                )
            atom.implicit_h = implicit
        else:
            if order_sum + h_count != valence:
                raise ValenceError(
                    f"bracket atom {idx} ({atom.element}, charge {atom.formal_charge}, "
                    f"{h_count}H) does not satisfy valence {valence}"
                )
            atom.implicit_h = h_count


def parse_smiles(text: str) -> MolGraph:
    """Parse SMILES text into a fully perceived molecular graph.

    Raises UnsupportedElement, SmilesSyntaxError, ValenceError, or
    KekulizationError; never returns a partially perceived graph.
    """
    if not text:
        raise SmilesSyntaxError("empty SMILES")
    builder = _tokenize_and_build(text)
    g = MolGraph(atoms=builder.atoms, bonds=builder.bonds)
    _normalize_nitro(g)

    # The SSSR edges are exactly the bonds that lie on a cycle (see rings).
    # Ring aromatic flags read only ring bonds, which are never demoted
    # below, and depend on notation, not on kekulization.
    g.rings = sssr_rings(g)
    for ring in g.rings:
        for a, b in zip(ring.atoms, ring.atoms[1:] + ring.atoms[:1]):
            g.bond_between(a, b).in_ring = True
    for idx in builder.default_aromatic:
        bond = g.bonds[idx]
        if not bond.in_ring:
            bond.order = "single"

    _kekulize(g, builder.explicit_h)
    _assign_hydrogens(g, builder.explicit_h)
    return g


def _closure_token(number: int) -> str:
    return str(number) if number < 10 else f"%{number:02d}"


_KEKULE_SYMBOL = {1: "", 2: "=", 3: "#"}


def _atom_token(atom: Atom) -> str:
    if atom.formal_charge == 0:
        return atom.element
    if atom.formal_charge == 1:
        charge = "+"
    elif atom.formal_charge == -1:
        charge = "-"
    elif atom.formal_charge > 0:
        charge = f"+{atom.formal_charge}"
    else:
        charge = str(atom.formal_charge)
    if atom.implicit_h == 0:
        h_part = ""
    elif atom.implicit_h == 1:
        h_part = "H"
    else:
        h_part = f"H{atom.implicit_h}"
    return f"[{atom.element}{h_part}{charge}]"


def to_smiles(g: MolGraph) -> str:
    """Emit a kekulized, non-canonical SMILES for a perceived graph.

    Round-trip guarantee: parsing the emission gives a graph with the same
    formula, kekulized bond multiset, and ring sizes.
    """
    visited: set[int] = set()
    tree_children: dict[int, list[tuple[int, Bond]]] = {}
    closures: dict[int, list[tuple[int, int]]] = {}  # atom -> [(number, kekule order)]
    counter = [0]

    def explore(root: int) -> None:
        used_bonds: set[int] = set()
        stack = [root]
        visited.add(root)
        order: list[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            for v, bond in sorted(g.neighbors(u), key=lambda p: p[0], reverse=True):
                if id(bond) in used_bonds:
                    continue
                if v not in visited:
                    used_bonds.add(id(bond))
                    tree_children.setdefault(u, []).append((v, bond))
                    visited.add(v)
                    stack.append(v)
                else:
                    used_bonds.add(id(bond))
                    counter[0] += 1
                    closures.setdefault(u, []).append((counter[0], bond.kekule_order))
                    closures.setdefault(v, []).append((counter[0], bond.kekule_order))

    def emit(u: int) -> str:
        parts = [_atom_token(g.atoms[u])]
        for number, korder in closures.get(u, []):
            parts.append(_KEKULE_SYMBOL[korder] + _closure_token(number))
        children = tree_children.get(u, [])
        for v, bond in children[:-1]:
            parts.append("(" + _KEKULE_SYMBOL[bond.kekule_order] + emit(v) + ")")
        if children:
            v, bond = children[-1]
            parts.append(_KEKULE_SYMBOL[bond.kekule_order] + emit(v))
        return "".join(parts)

    pieces = []
    for fragment in g.fragments():
        root = fragment[0]
        if root not in visited:
            explore(root)
            pieces.append(emit(root))
    return ".".join(pieces)
