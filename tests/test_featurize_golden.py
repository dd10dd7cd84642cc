"""Golden digests of perception: feature bytes, ring tuples and error texts.

The corpus reaches every special path of parsing, ring perception, matching
and the descriptor blocks: acyclic molecules, unicyclic 3- to 8-rings
(aromatic and not), fused rings and cages, pendant-heavy polynitro
molecules and nitrate esters, one- and two-atom molecules, bracket-heavy
spellings, and multi-fragment inputs, whose featurization fails. Bad
inputs pin the parser's error types and messages. The digests were recorded from the implementation before the
perception passes were cut, so any change of a feature bit, a ring tuple,
the order of the rings, an error type or an error message shows here.
"""

from __future__ import annotations

import hashlib

from emprops.descriptors import featurize, fit_schema
from emprops.errors import ToolkitError
from emprops.molgraph import parse_smiles

GOLDEN_SMILES = (
    # one and two heavy atoms
    "C", "N", "O", "F", "Cl", "CC", "CO", "CN", "N#N", "C=O", "NN", "OO", "FF", "CCl",
    # acyclic
    "CCCC", "CC(C)C", "C(C)(C)(C)C", "CC(C)(C)C", "CC(=O)O", "CC#N", "CN=[N+]=[N-]",
    "FC(F)(F)Cl", "OCC(O)CO", "NC(=O)N", "C=CC=C", "C#CC#N",
    "C(N)C(C)C", "C[N+](=O)[O-]", "FC(F)[N+](=O)[O-]",
    "C([N+](=O)[O-])([N+](=O)[O-])([N+](=O)[O-])[N+](=O)[O-]",
    "C([N+](=O)[O-])([N+](=O)[O-])([N+](=O)[O-])C([N+](=O)[O-])([N+](=O)[O-])[N+](=O)[O-]",
    "C([N+](=O)[O-])([N+](=O)[O-])C([N+](=O)[O-])(C#N)",
    "N(=O)(=O)[N-][N+](=O)[O-]", "CN(C)[N+](=O)[O-]",
    "C(C(CO[N+](=O)[O-])O[N+](=O)[O-])O[N+](=O)[O-]",
    "C(CO[N+](=O)[O-])(CO[N+](=O)[O-])(CO[N+](=O)[O-])CO[N+](=O)[O-]",
    "OCCO[N+](=O)[O-]", "CN(=O)=O", "C(N(=O)=O)(N(=O)=O)N(=O)=O",
    # unicyclic, 3- to 8-membered
    "C1CC1", "C1=CC1", "O=C1CC1", "C1CN1", "C1OC1", "C1(O)CC1(N)", "C1CCC1", "C1CNC1",
    "C1C[NH2+]C1", "C1CCCC1", "c1cnon1", "c1ccoc1", "c1cc[nH]c1", "c1nnn[nH]1",
    "C1CCCCC1", "c1ccccc1", "Cc1ccccc1", "Clc1ccccc1", "Oc1ccccc1", "c1ccncc1",
    "[O-][n+]1ccccc1", "c1ccccc1[N+](=O)[O-]",
    "Cc1c(cc(cc1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]",
    "Oc1c(cc(cc1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]",
    "c1(c(c(c(c(c1N)[N+](=O)[O-])N)[N+](=O)[O-])N)[N+](=O)[O-]",
    "C1N(CN(CN1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]",
    "C1N(CN(CN(CN1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]",
    "c1(CO[N+](=O)[O-])ncnc(O)n1",
    "C1([N+](=O)[O-])N([N+](=O)[O-])C(F)N([N+](=O)[O-])CN([N+](=O)[O-])C(C(=O)O)N1[N+](=O)[O-]",
    "C1CCCCCC1", "C1=CC=CC=CC=C1", "C1CCCCCCC1",
    # fused, bridged, spiro and cages
    "c1ccc2ccccc2c1", "c1cc2ccc3cccc4ccc(c1)c2c34", "c1ccc2[nH]nnc2c1",
    "c1cc2nonc2cc1([N+](=O)[O-])", "C1CC2CCC1CC2", "C1CC2(CC1)CCCC2",
    "C1C2CC3CC1CC(C2)C3", "N12CN3CN(C1)CN(C2)C3", "C12C3C4C1C5C2C3C45",
    "C12C3(C=O)C4C1C5(C)C2C3C45(C=O)",
    "C12C3(N[N+](=O)[O-])C4C1C5(F)C2C3(N[N+](=O)[O-])C45",
    "C12(C3(C4(C1(C5(C2(C3(C45[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-])"
    "[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]",
    "O=[N+]([O-])N1C2C3N(C4C(N3[N+](=O)[O-])N(C1C(N2[N+]([O-])=O)N4[N+]([O-])=O)"
    "[N+]([O-])=O)[N+]([O-])=O",
    "C12C3N(C4C(N3[N+](=O)[O-])N(C(N1[N+](=O)[O-])C(N2[N+](=O)[O-])N4[N+](=O)[O-])"
    "[N+](=O)[O-])[N+](=O)[O-]",
    "C1(O[N+](=O)[O-])C2C(C[N+](=O)[O-])C3(C[N+](=O)[O-])C(O[N+](=O)[O-])C1"
    "C(N[N+](=O)[O-])C(C2(C))C3",
    "c1(C=O)cc2c(N[N+](=O)[O-])c(F)ccc2cc1([N+](=O)[O-])",
    "c1ccc(cc1)-c1ccccc1",
    # bracket-heavy spellings
    "[CH4]", "[OH2]", "[NH3]", "[NH4+]", "[NH2][NH2]", "[CH3][N+](=O)[O-]",
    "C[N+](C)(C)C", "[O-][N+](=O)[O-]", "[nH]1ccnc1", "[CH2]=[CH2]", "[N-]=[N+]=[N-]",
    "[OH][CH2][CH3]", "[n-]1cccc1", "c1cc[n+]([O-])cc1", "[C@H](F)(Cl)O",
    # multi-fragment: rings only
    "c1ccccc1.C1CC1CC.C[N+](=O)[O-].C12C3C4C1C5C2C3C45", "C1CC1.C1CCC1", "CC.O",
)

BAD_SMILES = (
    "", "C1", "C(", "C)", "C==C", "Br", "[Si]", "CC.Br", "c1cc1", "c1ccccc1c",
    "[N+5]", "C(C)(C)(C)(C)C", "[CH5]", "C%1", "%12C", "C1CC1(", "(C)", "[13C]", "C@C",
    "[Cl+", "C=1CC-1", "c1ccc1", "C..C", "C-(C)", "[N+1]=O", "xC",
)

GOLDEN_DIGESTS = {
    "features": "23a704e0f9b8ac1afef734106fd1ef2edfb155a325ee667b366f1a1103e94f86",
    "rings": "5b077c3c6e2e39a832357a420dbd3c3f8bfb272b57cd0c044063586b994676a5",
    "errors": "947460113961c3f18ddf45235ac7fe4ff2382c5911da8a7437f03aad4646ac7b",
}


def _outcome(call, *args) -> bytes:
    """The feature bytes, or the error type and message, one per line."""
    try:
        value = call(*args)
    except ToolkitError as exc:
        return f"{type(exc).__name__}: {exc}\n".encode()
    return value.tobytes() + b"\n" if hasattr(value, "tobytes") else b"parsed\n"


def _digests() -> dict[str, str]:
    graphs = [parse_smiles(smiles) for smiles in GOLDEN_SMILES]
    schema = fit_schema(graphs, include_density=False)
    features = hashlib.sha256(b"".join(_outcome(featurize, g, schema) for g in graphs))
    rings = hashlib.sha256(repr([[(r.atoms, r.aromatic, r.hetero) for r in g.rings]
                                 for g in graphs]).encode())
    errors = hashlib.sha256(b"".join(_outcome(parse_smiles, s) for s in BAD_SMILES))
    return {"features": features.hexdigest(), "rings": rings.hexdigest(),
            "errors": errors.hexdigest()}


def test_golden_corpus_digests():
    assert _digests() == GOLDEN_DIGESTS
