"""Every package module parses as Python 3.10, the oldest version that
``pyproject.toml`` allows, so syntax from a later version fails here even
when the suite runs on a newer interpreter."""

import ast
from pathlib import Path

import pytest

import entsum

SOURCES = sorted(Path(entsum.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
