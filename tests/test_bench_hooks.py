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

from emprops import evaluation

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


# (module, attribute) of each family's grid search that the traced run wraps
GRID_SEARCHES = {"st-rf": ("emprops.evaluation", "forest_grid_search"),
                 "st-nn": ("emprops.mtnn", "grid_search"),
                 "mt-nn": ("emprops.mtnn", "grid_search")}


@pytest.mark.parametrize("family", evaluation.MODEL_FAMILIES)
def test_grid_searches_get_grid_and_design_positionally(family):
    grid_searches = [(module, attr) for module, attr, _ in FUNCTIONS
                     if attr in ("grid_search", "forest_grid_search")]
    assert sorted(grid_searches) == sorted(set(GRID_SEARCHES.values()))
    module, attr = GRID_SEARCHES[family]
    parameters = list(inspect.signature(getattr(importlib.import_module(module), attr))
                      .parameters)
    assert parameters[:2] == ["grid", "design"]
