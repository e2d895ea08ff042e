"""The runtime is stdlib-only: every absolute import in `src/bicomm` names a
module of the standard library (`sys.stdlib_module_names`)."""

import ast
import sys
from pathlib import Path

import pytest

import bicomm

SOURCES = sorted(Path(bicomm.__file__).resolve().parent.glob("*.py"))


def absolute_imports(source: str) -> list[str]:
    """The top-level package of every absolute import in `source`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def non_stdlib_imports(source: str) -> list[str]:
    return [name for name in absolute_imports(source) if name not in sys.stdlib_module_names]


def test_the_check_flags_third_party_imports_only():
    source = "import numpy.linalg\nfrom os import path\nfrom . import cli\nimport json, sympy\n"
    assert non_stdlib_imports(source) == ["numpy", "sympy"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_package_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_every_package_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "algebra_core.py", "cli.py"}
