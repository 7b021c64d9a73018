import ast
import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "frustra")


def _imported_roots(path):
    """Top-level names of the absolute imports in one source file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    # scipy and the test tools stay out of src/: the library needs numpy alone
    files = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "cli.py" in files
    allowed = set(sys.stdlib_module_names) | {"numpy", "frustra"}
    for name in files:
        outside = set(_imported_roots(os.path.join(PACKAGE, name))) - allowed
        assert not outside, f"{name} imports {sorted(outside)}"


def test_project_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [d.split(">")[0].split("=")[0].strip() for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def _tracer_assignments():
    """The top-level assignments of ``perfbench/tracer.py``, by name, as
    ``ast`` nodes: the tracer is read, not imported, so this check needs
    nothing that the tracer imports."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    return {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def test_tracer_bindings_exist():
    # the benchmark's traced run wraps these (module, function) pairs by
    # name; a rename in src/ must fail here, not in run.py --trace 1
    assigned = _tracer_assignments()
    pairs = [tuple(ast.literal_eval(e) for e in entry.elts[:2])
             for entry in assigned["_FUNCTIONS"].elts]
    assert ("cooling", "cool") in pairs
    for module, function in pairs:
        assert callable(getattr(importlib.import_module(f"frustra.{module}"), function, None)), \
            f"frustra.{module}.{function}"
    for module in ast.literal_eval(assigned["_AGGREGATED"]):
        importlib.import_module(f"frustra.{module}")


def _perfbench_frustra_imports():
    """(module, name) for each ``from frustra.<mod> import <name>`` in
    ``perfbench/*.py``, and (module, None) for each ``import frustra.<mod>``,
    read with ``ast`` wherever it sits, inside a job function too."""
    directory = os.path.join(ROOT, "perfbench")
    for filename in sorted(f for f in os.listdir(directory) if f.endswith(".py")):
        with open(os.path.join(directory, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "frustra")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "frustra"):
                yield from ((node.module, alias.name) for alias in node.names)


def test_perfbench_imports_from_frustra_resolve():
    # a name that src/ drops must fail here, not in the benchmark run
    imports = list(_perfbench_frustra_imports())
    assert ("frustra.closed_forms", "single_bond_cooled_state") in imports
    assert ("frustra.cli", None) in imports
    for module, name in imports:
        imported = importlib.import_module(module)
        if name is not None:
            assert hasattr(imported, name), f"{module}.{name}"


# Closed forms that encode claims of the paper and serve the tests as
# oracles; nothing in src/ or perfbench/ calls them.
_ORACLES = {"ising_gas_asymptote", "ising_gas_stirling_weights", "heisenberg_gas_schmidt_state",
            "rvb_cut_plaquette_entropy", "shastry_block_entropy"}


def _parsed(directory):
    """(filename, ast tree) of each ``.py`` file of ``directory``."""
    for filename in sorted(f for f in os.listdir(directory) if f.endswith(".py")):
        with open(os.path.join(directory, filename)) as fh:
            yield filename, ast.parse(fh.read(), filename)


def _public_definitions(tree):
    """(qualified name, name) of each public module-level function and
    class of one module, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_definition_has_a_caller():
    # no code that nothing calls: each public function, class and method of
    # src/ is named somewhere in src/ or perfbench/ outside its definition
    # (a re-export in __init__.py does not count), or wrapped by the tracer
    referenced = {ast.literal_eval(entry.elts[1])
                  for entry in _tracer_assignments()["_FUNCTIONS"].elts}
    definitions = []
    for directory in (PACKAGE, os.path.join(ROOT, "perfbench")):
        for filename, tree in _parsed(directory):
            if directory == PACKAGE:
                if filename == "__init__.py":
                    continue
                definitions += [(f"{filename[:-3]}.{q}", name)
                                for q, name in _public_definitions(tree)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    assert definitions
    uncalled = sorted(q for q, name in definitions
                      if name not in referenced and name not in _ORACLES)
    assert not uncalled, f"nothing in src/ or perfbench/ calls {uncalled}"
