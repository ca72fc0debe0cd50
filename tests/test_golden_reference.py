"""Every number printed in the mesh goldens against a 40-digit reference
(``tools/golden_error.py``: mpmath permanents of the composed mode matrix)."""

import functools
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_error.py"
_spec = importlib.util.spec_from_file_location("golden_error", TOOL)
golden_error = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_error)

PROGRAMS = golden_error.mesh_programs()

#: Largest absolute distance of a printed number from the reference.
BOUND = 1e-14


@functools.cache
def _reference(name):
    return golden_error.reference(PROGRAMS[name][0])


@pytest.mark.parametrize(
    "name, backend",
    [(name, backend) for name, (_, backends) in PROGRAMS.items() for backend in backends],
)
def test_mesh_golden_numbers_match_the_40_digit_reference(name, backend):
    golden = golden_error.GOLDEN_DIR / f"{name}.{backend}.json"
    found = golden_error.errors(golden, _reference(name))
    worst = max(found, key=lambda key: found[key][0])
    assert found[worst][0] <= BOUND, (worst, float(found[worst][0]))
