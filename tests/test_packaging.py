import ast
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
