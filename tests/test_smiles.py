import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emprops import cli
from emprops.errors import (
    KekulizationError,
    SmilesSyntaxError,
    ToolkitError,
    UnsupportedElement,
    ValenceError,
)
from emprops.molgraph import molecular_formula, parse_smiles, to_smiles
from emprops.molgraph.elements import effective_valence

from conftest import CORPUS, RDX, TNT


def formula_tuple(g):
    f = molecular_formula(g)
    return (f.n_C, f.n_H, f.n_N, f.n_O, f.n_Cl, f.n_F)


def test_methane():
    g = parse_smiles("C")
    assert len(g.atoms) == 1
    assert g.atoms[0].implicit_h == 4
    assert not g.bonds


def test_carbon_dioxide():
    g = parse_smiles("O=C=O")
    assert len(g.atoms) == 3
    assert [b.order for b in g.bonds] == ["double", "double"]
    assert formula_tuple(g) == (1, 0, 0, 2, 0, 0)


def test_tnt_formula_and_ring():
    g = parse_smiles(TNT)
    assert formula_tuple(g) == (7, 5, 3, 6, 0, 0)
    assert len(g.rings) == 1
    assert g.rings[0].size == 6
    assert g.rings[0].aromatic


def test_benzene_formula():
    g = parse_smiles("c1ccccc1")
    f = molecular_formula(g)
    assert (f.n_C, f.n_H, f.n_atoms) == (6, 6, 12)


def test_rdx_formula():
    g = parse_smiles(RDX)
    f = molecular_formula(g)
    assert formula_tuple(g) == (3, 6, 6, 6, 0, 0)
    assert f.n_atoms == 21


def test_nitro_normalization():
    for spelling in ("C[N+](=O)[O-]", "CN(=O)=O"):
        g = parse_smiles(spelling)
        nitrogen = next(a for a in g.atoms if a.element == "N")
        assert nitrogen.formal_charge == 1
        charges = sorted(a.formal_charge for a in g.atoms if a.element == "O")
        assert charges == [-1, 0]


def test_charged_valences():
    azide = parse_smiles("CN=[N+]=[N-]")
    charges = [a.formal_charge for a in azide.atoms if a.element == "N"]
    assert sorted(charges) == [-1, 0, 1]
    assert all(a.implicit_h == 0 for a in azide.atoms if a.element == "N")


def test_stereo_markers_ignored():
    g = parse_smiles("F/C=C/F")
    assert formula_tuple(g) == (2, 2, 0, 0, 0, 2)
    g2 = parse_smiles("[C@@H](N)(O)C")
    assert formula_tuple(g2) == (2, 7, 1, 1, 0, 0)


def test_multi_fragment_parses():
    g = parse_smiles("C.C")
    assert g.fragment_count == 2
    assert formula_tuple(g) == (2, 8, 0, 0, 0, 0)


@pytest.mark.parametrize("smiles", ["CS", "BrC", "C[Si](C)C", "s1cccc1", "[Se]"])
def test_unsupported_elements(smiles):
    with pytest.raises(UnsupportedElement):
        parse_smiles(smiles)


@pytest.mark.parametrize(
    "smiles",
    [
        "",
        "C(",
        "C)",
        "C1CC",  # dangling ring closure
        "C=",
        "C==C",
        "[C@@H",  # unterminated bracket
        "[13C]",  # isotopes unsupported
        "C:C",  # aromatic bond between non-aromatic atoms
        "(CC)",
        "1CC",
        "C%1C",
    ],
)
def test_syntax_errors(smiles):
    with pytest.raises(SmilesSyntaxError):
        parse_smiles(smiles)


@pytest.mark.parametrize("smiles", ["O(C)(C)C", "[NH4]", "C(C)(C)(C)(C)C", "[OH3]"])
def test_valence_errors(smiles):
    with pytest.raises(ValenceError):
        parse_smiles(smiles)


def test_kekulization_errors():
    with pytest.raises(KekulizationError):
        parse_smiles("cc")  # aromatic atoms outside any ring
    with pytest.raises(KekulizationError):
        parse_smiles("c1cccc1")  # odd all-carbon ring has no perfect matching


def test_odd_ring_after_many_benzene_rings_fails_at_once(tmp_path, capsys):
    """The odd ring is a component of needy atoms of its own, so it fails
    without retrying the Kekule choices of the 30 benzene rings before it
    (about 2**30 of them), and featurize ends in one error line."""
    smiles = "c1ccc(cc1)" * 30 + "c1cccc1"
    start = time.perf_counter()
    with pytest.raises(KekulizationError, match="^no kekule structure exists"):
        parse_smiles(smiles)
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "mols.csv"
    path.write_text(f"material_id,smiles\nM1,{smiles}\n", encoding="utf-8")
    assert cli.main(["featurize", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error ParseFailure: row 1: ")
    assert err[0].endswith(": no kekule structure exists for the aromatic system")


def test_kekulization_of_2400_atoms_does_not_recurse():
    g = parse_smiles("c1ccc(cc1)" * 399 + "c1ccccc1")
    assert len(g.atoms) == 2400
    assert sum(bond.kekule_order == 2 for bond in g.bonds) == 1200


def test_valence_invariant_over_corpus():
    # kekulized bond orders plus implicit hydrogens equal the
    # charge-adjusted valence for every atom
    for smiles in CORPUS.values():
        g = parse_smiles(smiles)
        for atom in g.atoms:
            order_sum = sum(
                b.kekule_order for b in g.bonds if atom.index in (b.i, b.j)
            )
            assert order_sum + atom.implicit_h == effective_valence(
                atom.element, atom.formal_charge
            ), (smiles, atom)


def test_round_trip_over_corpus():
    for smiles in CORPUS.values():
        g = parse_smiles(smiles)
        emitted = to_smiles(g)
        g2 = parse_smiles(emitted)
        assert formula_tuple(g) == formula_tuple(g2), (smiles, emitted)
        kekule = sorted(
            (tuple(sorted((g.atoms[b.i].element, g.atoms[b.j].element))), b.kekule_order)
            for b in g.bonds
        )
        kekule2 = sorted(
            (tuple(sorted((g2.atoms[b.i].element, g2.atoms[b.j].element))), b.kekule_order)
            for b in g2.bonds
        )
        assert kekule == kekule2, (smiles, emitted)
        assert sorted(r.size for r in g.rings) == sorted(r.size for r in g2.rings)


@given(st.text(alphabet="CNOFclnoCl()[]=#+-1234%@/\\.H5 x\u00b2\u0661", min_size=1, max_size=14))
@example("C\u00b2")
@example("C\u0661CC\u0661")
@example("[N+\u0661]")
@settings(max_examples=300, deadline=None)
def test_parsing_is_total(text):
    # arbitrary input either parses or raises a typed error, never anything else
    try:
        g = parse_smiles(text)
    except ToolkitError:
        return
    assert g.atoms
    for atom in g.atoms:
        assert atom.implicit_h >= 0


# Superscript two and Arabic-Indic one and two: str.isdigit and the \\d of a
# str pattern accept them, SMILES does not.
@pytest.mark.parametrize("text, message", [
    ("C\u00b2", "unexpected character '\u00b2' at position 1"),
    ("C\u0661CC\u0661", "unexpected character '\u0661' at position 1"),
    ("C%\u0661\u0662CC%\u0661\u0662", "%% ring closure needs two digits at position 1"),
    ("[N+\u0661]", "malformed bracket atom '[N+\u0661]' at position 0"),
    ("[NH\u0662]", "malformed bracket atom '[NH\u0662]' at position 0"),
])
def test_ring_closure_and_bracket_digits_are_ascii(text, message):
    with pytest.raises(SmilesSyntaxError) as info:
        parse_smiles(text)
    assert str(info.value) == message


@given(st.text(alphabet="CNOc()[]=#+-1%@.H\n\r\x00\x85x", min_size=1, max_size=10))
@example("[,\nM1,[NH4+],")
@settings(max_examples=300, deadline=None)
def test_error_messages_are_one_line(text):
    # the CLI reports an error as one line, so input line breaks must not reach it
    try:
        parse_smiles(text)
    except ToolkitError as exc:
        assert len(str(exc).splitlines()) == 1, str(exc)


def test_aromatic_atoms_sit_in_aromatic_rings():
    for smiles in CORPUS.values():
        g = parse_smiles(smiles)
        aromatic_ring_atoms = set()
        for ring in g.rings:
            if ring.aromatic:
                aromatic_ring_atoms.update(ring.atoms)
        for atom in g.atoms:
            if atom.aromatic:
                assert atom.index in aromatic_ring_atoms, smiles
