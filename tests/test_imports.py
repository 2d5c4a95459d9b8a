"""Every name a bathkit module imports is used in that module, and every
module it imports is numpy, the standard library or bathkit itself.

The checks parse the source with the standard library's ``ast``, so they
need no linter.  For unused names, ``__init__.py`` (whose imports are
re-exports) and ``from __future__`` imports are exempt.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bathkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# README: "Dependencies: numpy"
RUNTIME_DEPENDENCIES = {"numpy"}


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom .errors import A, B as C\n"
        "np.zeros(os.sep)\nA()\n"
    )
    assert unused_imports(source) == ["C"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def third_party_imports(source: str) -> list:
    """Top-level names of absolute imports that are not numpy or the standard library."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - RUNTIME_DEPENDENCIES - set(sys.stdlib_module_names))


def test_dependency_checker_finds_third_party_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy.linalg as la\n"
        "from scipy.linalg import expm\nfrom . import errors\nfrom .units import KB\n"
    )
    assert third_party_imports(source) == ["scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) == []
