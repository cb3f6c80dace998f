"""Every package module, test and benchmark script parses as Python 3.10,
the oldest version that ``pyproject.toml`` allows, so syntax from a later
version fails here even when the suite runs on a newer interpreter."""

import ast
from pathlib import Path

import pytest

import entsum

PACKAGE = Path(entsum.__file__).parent
ROOT = Path(__file__).parent.parent
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("tests/*.py")),
           *sorted(ROOT.glob("bench/*.py"))]


def source_id(path: Path) -> str:
    """A package module by its name, a test or script by its path in the repo."""
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
