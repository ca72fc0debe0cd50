"""Every third-party module that the tests and tools import is declared
in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def imported_top_levels(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def declared_names() -> set[str]:
    """Names of the runtime and optional requirements, as import names.

    Each requirement here is imported under its distribution name."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    return {
        re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
        for r in requirements
    }


def test_every_third_party_import_of_the_tests_and_tools_is_declared():
    own = {path.stem for path in SCANNED} | {path.name for path in (ROOT / "src").iterdir()}
    declared = declared_names()
    undeclared = {
        f"{name} ({path.relative_to(ROOT)})"
        for path in SCANNED
        for name in imported_top_levels(path)
        if name not in sys.stdlib_module_names and name not in own and name not in declared
    }
    assert not undeclared, sorted(undeclared)
