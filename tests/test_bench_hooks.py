"""Every emprops module and attribute that the benchmark uses must exist.

perfbench/instrument.py rebinds functions and methods by module attribute
for a traced run and reads (grid, design) from a grid search's first two
positional arguments. perfbench/run.py imports the modules it lists, and
perfbench/workloads.py calls emprops through them in every run, traced or
not. A rename, a move or a keyword-only call would otherwise show only in
a benchmark run. The files are read, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from emprops import evaluation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INSTRUMENT = PERFBENCH / "instrument.py"


def instrument_table(name: str, path: Path = INSTRUMENT) -> tuple:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path}")


FUNCTIONS = instrument_table("FUNCTIONS")
METHODS = instrument_table("METHODS")
EMPROPS_MODULES = instrument_table("EMPROPS_MODULES", PERFBENCH / "run.py")


def module_of(node: ast.expr) -> str | None:
    """The emprops module that ``<anything>.modules["emprops.x"]`` names."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "modules" and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    return None


def workload_calls() -> set[tuple[str, str]]:
    """(module, attribute) of every emprops name perfbench/workloads.py
    reads: through a Context property that returns a module (ctx.cli),
    through ctx.modules["emprops.x"] itself, or through a local name bound
    to it in the same function."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    properties = {}  # Context property -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list):
            returned = node.body[-1]
            if isinstance(returned, ast.Return) and module_of(returned.value):
                properties[node.name] = module_of(returned.value)
    found = set()
    for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        aliases = {target.id: module_of(node.value) for node in ast.walk(function)
                   if isinstance(node, ast.Assign) and module_of(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(function):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            module = (module_of(owner)
                      or (aliases.get(owner.id) if isinstance(owner, ast.Name) else None)
                      or (properties.get(owner.attr) if isinstance(owner, ast.Attribute)
                          else None))
            if module:
                found.add((module, node.attr))
    return found


WORKLOAD_CALLS = sorted(workload_calls())


@pytest.mark.parametrize("module", EMPROPS_MODULES)
def test_benchmark_module_imports(module):
    assert importlib.import_module(module).__name__ == module


def test_workload_calls_are_all_found():
    """The reader above sees every way workloads.py reaches emprops."""
    assert {
        ("emprops.cli", "main"), ("emprops.pipeline", "load_model"),
        ("emprops.pipeline", "predict_matrix"), ("emprops.pipeline", "features_for"),
        ("emprops.modelio", "read_container"), ("emprops.modelio", "split_payload"),
        ("emprops.modelio", "MAGIC_FOREST"), ("emprops.dataset", "load_records"),
        ("emprops.dataset", "default_registry"), ("emprops.molgraph", "parse_smiles"),
        ("emprops.errors", "ToolkitError"),
    } <= set(WORKLOAD_CALLS)


@pytest.mark.parametrize("module,attr", WORKLOAD_CALLS, ids=[f"{m}.{a}" for m, a in WORKLOAD_CALLS])
def test_workload_call_exists(module, attr):
    assert module in EMPROPS_MODULES
    assert hasattr(importlib.import_module(module), attr)


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
