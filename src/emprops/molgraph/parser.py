"""SMILES parsing and perception for the supported CHNOClF grammar.

Supported notation: organic-subset atoms C N O F Cl (aromatic c n o),
bracket atoms with an explicit hydrogen count and charge (e.g. [N+],
[O-], [NH2], [nH]), bonds - = # :, branches, ring closures as digits or
%nn, and dot-separated fragments. Stereo markers (/ \\ @) are accepted
and ignored. Aromaticity is taken from the notation itself; no electron
counting is attempted. Fragments and branches hold at least one atom, a
branch starts with an atom rather than another branch or a ring closure
(C((C)) and C(1CC1) are malformed), a bond symbol needs an atom before it
in its fragment, and a bracket atom is read up to its ']' in full, so a
line break inside one is malformed.

Perception normalizes neutral nitro spellings N(=O)=O to the
charge-separated form [N+](=O)[O-], kekulizes aromatic systems by perfect
matching, and fills implicit hydrogens from charge-adjusted valences.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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

# Organic-subset atom tokens: (element, aromatic); "C" may start "Cl".
_ORGANIC = {"C": ("C", False), "N": ("N", False), "O": ("O", False), "F": ("F", False),
            "c": ("C", True), "n": ("N", True), "o": ("O", True)}

# Ring-closure and isotope digits are ASCII only, like every SMILES token.
_DIGITS = frozenset("0123456789")

_BRACKET_RE = re.compile(
    r"(?P<sym>Cl|[CNOF]|[cno])(?P<stereo>@{1,2})?(?P<h>H\d*)?"
    r"(?P<charge>\+\+|--|[+-]\d+|[+-])?",
    re.ASCII,
)

# Bond orders as sigma-bond counts; also each bond's kekule order until the
# matching makes some aromatic bonds double.
_SIGMA_ORDER = {**ORDER_VALUE, "aromatic": 1}

_CHARGE_SIGNS = {"+": 1, "-": -1, "++": 2, "--": -2}

_ELEMENT_ATTEMPT_RE = re.compile(r"[A-Z][a-z]?|[a-z]")


def _parse_bracket(body: str, pos: int) -> tuple[str, bool, int, int]:
    """Parse the inside of a bracket atom.

    Returns (element, aromatic, explicit_h, charge).
    """
    if body[:1] in _DIGITS:
        raise SmilesSyntaxError(f"isotope specifications are not supported at position {pos}")
    m = _BRACKET_RE.fullmatch(body)
    if m is None:
        attempt = _ELEMENT_ATTEMPT_RE.match(body)
        if attempt and attempt.group(0) not in HEAVY_ELEMENTS and attempt.group(0) not in AROMATIC_TOKENS:
            raise UnsupportedElement(f"element {attempt.group(0)!r} at position {pos} is outside CHNOClF")
        raise SmilesSyntaxError(f"malformed bracket atom {'[' + body + ']'!r} at position {pos}")
    sym, _, h_part, charge_part = m.groups()
    if h_part is None:
        h_count = 0
    else:
        h_count = int(h_part[1:]) if len(h_part) > 1 else 1
    if charge_part is None:
        charge = 0
    else:
        charge = _CHARGE_SIGNS.get(charge_part) or int(charge_part)
    return AROMATIC_TOKENS.get(sym, sym), sym in AROMATIC_TOKENS, h_count, charge


class _Built(NamedTuple):
    """What the tokenizer builds from the text."""

    atoms: list[Atom]
    bonds: list[Bond]
    explicit_h: list[int | None]  # None until perception for organic atoms
    default_aromatic: list[int]  # bonds aromatic by omission, not ':'


def _tokenize_and_build(text: str) -> _Built:
    """Walk the SMILES text once, building atoms and bonds in text order.

    A chain bond always joins the new atom to an earlier one, so only a
    ring closure can repeat a bond or close on its own atom. A repeat is
    one of the closing atom's or the opening atom's chain bonds (each
    atom's chain bond goes to chain_parent) or an earlier closure.
    """
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    explicit_h: list[int | None] = []
    default_aromatic: list[int] = []
    chain_parent: list[int | None] = []
    closed: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: str | None = None
    branch_stack: list[tuple[int, int]] = []  # (branch parent, atom count at '(')
    ring_open: dict[int, tuple[int, str | None]] = {}
    branch_digit: int | None = None  # a ring closure's position in a branch without atoms

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _ORGANIC:
            if ch == "C" and text[i + 1 : i + 2] == "l":
                element, aromatic = "Cl", False
                i += 2
            else:
                element, aromatic = _ORGANIC[ch]
                i += 1
            charge, h_count = 0, None
        elif ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesSyntaxError(f"unterminated bracket atom at position {i}")
            element, aromatic, h_count, charge = _parse_bracket(text[i + 1 : end], i)
            i = end + 1
        else:
            if ch in _BOND_SYMBOLS:
                if prev is None:
                    raise SmilesSyntaxError(f"bond symbol before any atom at position {i}")
                if pending is not None:
                    raise SmilesSyntaxError(f"two bond symbols in a row at position {i}")
                pending = ch
                i += 1
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
            elif ch in _DIGITS or ch == "%":
                if branch_stack and branch_stack[-1][1] == len(atoms) and branch_digit is None:
                    branch_digit = i  # raised at the branch's first atom
                if ch == "%":
                    if i + 2 >= n or text[i + 1] not in _DIGITS or text[i + 2] not in _DIGITS:
                        raise SmilesSyntaxError(f"%% ring closure needs two digits at position {i}")
                    number = int(text[i + 1 : i + 3])
                    i += 3
                else:
                    number = int(ch)
                    i += 1
                if prev is None:
                    raise SmilesSyntaxError("ring closure before any atom")
                if number not in ring_open:
                    ring_open[number] = (prev, pending)
                    pending = None
                    continue
                other, other_sym = ring_open.pop(number)
                if pending is not None and other_sym is not None and pending != other_sym:
                    raise SmilesSyntaxError(f"conflicting bond symbols on ring closure {number}")
                if prev == other:
                    raise SmilesSyntaxError(f"bond from atom to itself at position {i}")
                key = (prev, other) if prev < other else (other, prev)
                if chain_parent[prev] == other or chain_parent[other] == prev or key in closed:
                    raise SmilesSyntaxError(f"duplicate bond between atoms {key[0]} and {key[1]}")
                closed.add(key)
                _add_bond(atoms, bonds, default_aromatic, prev, other, pending or other_sym)
                pending = None
            elif ch == ".":
                if pending is not None or branch_stack:
                    raise SmilesSyntaxError(f"misplaced fragment separator at position {i}")
                if prev is None or i + 1 == n:
                    raise SmilesSyntaxError(f"empty fragment next to '.' at position {i}")
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
            continue

        if branch_digit is not None:
            raise SmilesSyntaxError(f"branch starts with a ring closure at position {branch_digit}")
        idx = len(atoms)
        atoms.append(Atom(element, charge, aromatic, 0, idx))
        explicit_h.append(h_count)
        chain_parent.append(prev)
        if prev is not None:
            _add_bond(atoms, bonds, default_aromatic, prev, idx, pending)
        prev = idx
        pending = None

    if branch_stack:
        raise SmilesSyntaxError("unbalanced '(' in input")
    if ring_open:
        raise SmilesSyntaxError(f"dangling ring closure(s): {sorted(ring_open)}")
    if pending is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not atoms:
        raise SmilesSyntaxError("empty SMILES")
    return _Built(atoms, bonds, explicit_h, default_aromatic)


def _add_bond(atoms: list[Atom], bonds: list[Bond], default_aromatic: list[int],
              i: int, j: int, symbol: str | None) -> None:
    """Append the bond i-j written with symbol (None when omitted)."""
    both_aromatic = atoms[i].aromatic and atoms[j].aromatic
    if symbol is None:
        if both_aromatic:
            # demoted to single later if it turns out not to be in a ring
            # (e.g. the biphenyl bridge)
            default_aromatic.append(len(bonds))
            order = "aromatic"
        else:
            order = "single"
    else:
        order = _BOND_SYMBOLS[symbol]
        if order == "aromatic" and not both_aromatic:
            raise SmilesSyntaxError(f"aromatic bond between non-aromatic atoms {i} and {j}")
    bonds.append(Bond(i, j, order))


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
    for bond in g.bonds:
        bond.kekule_order = _SIGMA_ORDER[bond.order]  # aromatic bonds single until matched
    aromatic_atoms = [a.index for a in g.atoms if a.aromatic]
    if not aromatic_atoms:
        return

    aromatic_ring_atoms: set[int] = set()
    for ring in g.rings:
        if ring.aromatic:
            aromatic_ring_atoms.update(ring.atoms)
    for idx in aromatic_atoms:
        if idx not in aromatic_ring_atoms:
            raise KekulizationError(f"aromatic atom {idx} is not part of an aromatic ring")
    sigma = [0] * len(g.atoms)
    for bond in g.bonds:
        if bond.order == "aromatic" and not bond.in_ring:
            raise KekulizationError(
                f"aromatic bond between atoms {bond.i} and {bond.j} is not in a ring"
            )
        sigma[bond.i] += bond.kekule_order
        sigma[bond.j] += bond.kekule_order

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

    # Adjacency over in-ring aromatic bonds between two needy atoms, by
    # partner index (an atom's partners are distinct, so no bonds compare).
    partner_bonds = {
        idx: sorted([(v, bond) for v, bond in g.neighbors(idx)
                     if bond.order == "aromatic" and v in needy])
        for idx in needy
    }

    # Components of needy atoms are matched independently, so the union of
    # their first matchings is the first matching of the whole.
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
        for bond in matching:
            bond.kekule_order = 2


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
    order_sums = [0] * len(g.atoms)
    for bond in g.bonds:
        order_sums[bond.i] += bond.kekule_order
        order_sums[bond.j] += bond.kekule_order
    for idx, (atom, order_sum, h_count) in enumerate(zip(g.atoms, order_sums, explicit_h)):
        valence = effective_valence(atom.element, atom.formal_charge)
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
    built = _tokenize_and_build(text)
    g = MolGraph(atoms=built.atoms, bonds=built.bonds)
    _normalize_nitro(g)

    # The SSSR edges are exactly the bonds that lie on a cycle (see rings).
    # Ring aromatic flags read only ring bonds, which are never demoted
    # below, and depend on notation, not on kekulization.
    g.rings = sssr_rings(g)
    for ring in g.rings:
        for a, b in zip(ring.atoms, ring.atoms[1:] + ring.atoms[:1]):
            g.bond_between(a, b).in_ring = True
    for idx in built.default_aromatic:
        bond = g.bonds[idx]
        if not bond.in_ring:
            bond.order = "single"

    _kekulize(g, built.explicit_h)
    _assign_hydrogens(g, built.explicit_h)
    return g
