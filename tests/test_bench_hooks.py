"""Every emprops attribute that the traced benchmark wraps must exist.

perfbench/instrument.py rebinds functions and methods by module attribute
for a traced run and reads (grid, design) from a grid search's first two
positional arguments. A rename or a keyword-only call would otherwise show
only in a traced benchmark run. The file is read, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from emprops import evaluation, mtnn

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def instrument_table(name: str) -> tuple:
    for node in ast.parse(INSTRUMENT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {INSTRUMENT}")


FUNCTIONS = instrument_table("FUNCTIONS")
METHODS = instrument_table("METHODS")


@pytest.mark.parametrize("module,attr,span", FUNCTIONS, ids=[f"{m}.{a}" for m, a, _ in FUNCTIONS])
def test_wrapped_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,attr,span", METHODS,
                         ids=[f"{m}.{c}.{a}" for m, c, a, _ in METHODS])
def test_wrapped_method_exists(module, cls, attr, span):
    assert attr in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("family", evaluation.MODEL_FAMILIES)
def test_grid_searches_get_grid_and_design_positionally(monkeypatch, family):
    grid_searches = [(module, attr) for module, attr, _ in FUNCTIONS
                     if attr in ("grid_search", "forest_grid_search")]
    assert len(grid_searches) == 2
    for module, attr in grid_searches:
        parameters = list(inspect.signature(getattr(importlib.import_module(module), attr))
                          .parameters)
        assert parameters[:2] == ["grid", "design"]

    calls = []

    def record(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(evaluation, "forest_grid_search", record)
    monkeypatch.setattr(mtnn, "grid_search", record)
    grids, design = evaluation.Grids(), object()
    evaluation.select_cell(family, design, grids, 3, 1)
    expected_grid = grids.forest if family == "st-rf" else grids.mtnn
    assert len(calls) == 1 and calls[0][0] is expected_grid and calls[0][1] is design
