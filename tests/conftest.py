"""Shared test molecules.

CORPUS holds one spelling per molecule; SPELLING_PAIRS holds molecules
written two ways (different traversal, ring-closure labels, or the neutral
versus charge-separated nitro form) for representation-invariance checks.
"""

from __future__ import annotations

import os

import pytest

from emprops.molgraph import parse_smiles

TNT = "Cc1c(cc(cc1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]"
RDX = "C1N(CN(CN1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]"
TATB = "c1(c(c(c(c(c1N)[N+](=O)[O-])N)[N+](=O)[O-])N)[N+](=O)[O-]"
PETN = "C(CO[N+](=O)[O-])(CO[N+](=O)[O-])(CO[N+](=O)[O-])CO[N+](=O)[O-]"
NITROGLYCERIN = "C(C(CO[N+](=O)[O-])O[N+](=O)[O-])O[N+](=O)[O-]"
PICRIC_ACID = "Oc1c(cc(cc1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]"

CORPUS = {
    "methane": "C",
    "ethane": "CC",
    "butane": "CCCC",
    "water": "O",
    "nitrogen": "N#N",
    "hydrazine": "NN",
    "methylamine": "CN",
    "acetic_acid": "CC(=O)O",
    "acetonitrile": "CC#N",
    "benzene": "c1ccccc1",
    "toluene": "Cc1ccccc1",
    "naphthalene": "c1ccc2ccccc2c1",
    "furazan": "c1cnon1",
    "pyridine_n_oxide": "[O-][n+]1ccccc1",
    "methyl_azide": "CN=[N+]=[N-]",
    "nitromethane": "C[N+](=O)[O-]",
    "fluoronitromethane": "FC(F)[N+](=O)[O-]",
    "chlorobenzene": "Clc1ccccc1",
    "tnt": TNT,
    "rdx": RDX,
    "tatb": TATB,
    "petn": PETN,
    "nitroglycerin": NITROGLYCERIN,
    "picric_acid": PICRIC_ACID,
}

SPELLING_PAIRS = [
    ("C", "[CH4]"),
    ("O", "[OH2]"),
    ("CCCC", "C(C)CC"),
    ("C[N+](=O)[O-]", "CN(=O)=O"),
    (TNT, "Cc1c(cc(cc1N(=O)=O)N(=O)=O)N(=O)=O"),
    ("Cc1ccccc1", "c1ccccc1C"),
    ("c1ccccc1", "c%10ccccc%10"),
    ("NN", "[NH2][NH2]"),
    ("CC(=O)O", "OC(C)=O"),
    (RDX, "C1N(CN(CN1N(=O)=O)N(=O)=O)N(=O)=O"),
    (PETN, "C(CON(=O)=O)(CON(=O)=O)(CON(=O)=O)CON(=O)=O"),
    (PICRIC_ACID, "Oc1c(cc(cc1N(=O)=O)N(=O)=O)N(=O)=O"),
]


@pytest.fixture(scope="session")
def corpus_graphs():
    return {name: parse_smiles(smiles) for name, smiles in CORPUS.items()}


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running or unreaped (the
    engines fork workers and must reap every one)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else pid} unreaped")
