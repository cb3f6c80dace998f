"""Every package module, test and benchmark script parses as Python 3.10,
the oldest version that ``pyproject.toml`` allows, so syntax from a later
version fails here even when the suite runs on a newer interpreter.  And the
package imports no third-party module that ``pyproject.toml`` does not
declare, nor declares one it does not import."""

import ast
import re
import sys
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


def test_third_party_imports_are_the_declared_dependencies():
    # an import inside a function body counts too
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party == declared
