"""Public-API consistency: __all__ resolves, and everything is documented."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.stats",
    "repro.clustering",
    "repro.features",
    "repro.datasets",
    "repro.index",
    "repro.retrieval",
    "repro.baselines",
    "repro.extensions",
    "repro.experiments",
    "repro.service",
    "repro.obs",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), f"{package_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package_name}.{name} listed but missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_callables_have_docstrings(package_name):
    module = importlib.import_module(package_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{package_name}: undocumented public API: {undocumented}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_module_docstrings_exist(package_name):
    module = importlib.import_module(package_name)
    assert (module.__doc__ or "").strip(), f"{package_name} lacks a module docstring"


def test_public_classes_have_documented_public_methods():
    """Spot-check the main entry points for documented methods."""
    from repro import ImageRetrievalSystem, QclusterEngine
    from repro.retrieval import FeedbackSession

    for cls in (ImageRetrievalSystem, QclusterEngine, FeedbackSession):
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name} undocumented"


def test_runtime_imports_are_declared_dependencies():
    """Every third-party import under ``src/repro`` is a declared dependency.

    Imports inside functions count too: an undeclared one fails here
    instead of on a user's install.
    """
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.M | re.S).group(1)
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', listed)
    }
    allowed = set(sys.stdlib_module_names) | {"repro", "__future__"} | declared
    undeclared = set()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in allowed:
                    undeclared.add(f"{path.relative_to(root)}: {top}")
    assert not undeclared, f"imports missing from pyproject dependencies: {sorted(undeclared)}"
