"""Every number printed in the goldens, and in runs whose numbers depend on
the sign of the Kerr phase and of the vertex angle, against a 40-digit
reference (``tools/golden_error.py``: a path sum in mpmath built from the
README's conventions, with permanents of the composed mode matrix)."""

import functools
import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from fockbench.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_error.py"
_spec = importlib.util.spec_from_file_location("golden_error", TOOL)
golden_error = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_error)

PROGRAMS = golden_error.golden_programs()

#: Largest absolute distance of a printed number from the reference.
BOUND = 1e-14

#: Runs whose detector statistics change when the sign of the Kerr
#: strength or of the vertex angle flips; the goldens cannot show either
#: flip, since the CNOT's Kerr strength is pi and the vertex golden starts
#: from one pattern.
SIGN_PROBES = {
    # the Baseline circuit of ROADMAP item 10: P(0,1,1) and P(1,0,0) swap
    "vertex_superpose": (
        "system bosons=1 fermions=2 cutoff=6\n"
        "input superpose 1:2,3 ; 1:1\n"
        "vertex 1 2 3 theta=0.6\n"
        "measure all\n"
    ),
    # a Mach-Zehnder on modes 2, 3 whose arm phase is the Kerr phase plus pi/2
    "kerr_interferometer": (
        "system bosons=3 cutoff=3\n"
        "input create 1 2\n"
        "bs 2 3 sym\n"
        "kerr 1 2 strength=0.9\n"
        "phase 2 1.5707963267948966\n"
        "bs 2 3 sym\n"
        "measure all\n"
    ),
}


@functools.cache
def _reference(program):
    return golden_error.reference(program)


def _assert_within_bound(report_text, program):
    found = golden_error.errors(report_text, _reference(program))
    worst = max(found, key=lambda key: found[key][0])
    assert found[worst][0] <= BOUND, (worst, float(found[worst][0]))


def _goldens(names):
    return [(name, backend) for name in names for backend in PROGRAMS[name][1]]


def _check_golden(name, backend):
    golden = golden_error.GOLDEN_DIR / f"{name}.{backend}.json"
    _assert_within_bound(golden.read_text(), PROGRAMS[name][0])


EXAMPLES = sorted(path.stem for path in golden_error.CIRCUIT_DIR.glob("*.fck"))


@pytest.mark.parametrize("name, backend", _goldens(EXAMPLES))
def test_example_golden_numbers_match_the_40_digit_reference(name, backend):
    _check_golden(name, backend)


@pytest.mark.parametrize("name, backend", _goldens(n for n in PROGRAMS if n not in EXAMPLES))
def test_mesh_golden_numbers_match_the_40_digit_reference(name, backend):
    _check_golden(name, backend)


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
@pytest.mark.parametrize("name", list(SIGN_PROBES))
def test_sign_probe_runs_match_the_40_digit_reference(tmp_path, name, backend):
    path = tmp_path / f"{name}.fck"
    path.write_text(SIGN_PROBES[name])
    result = CliRunner().invoke(main, ["run", str(path), "--backend", backend, "--format", "json"])
    assert result.exit_code == 0, result.output
    _assert_within_bound(result.stdout, SIGN_PROBES[name])
