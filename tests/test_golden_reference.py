"""Every number printed in the goldens, and in runs whose numbers depend on
the sign of the Kerr phase and of the vertex angle, against the one
physics reference of the tests (``tools/golden_error.py``: a path sum in
mpmath at 40 digits built from the README's conventions, with permanents
of the composed mode matrix for bosons and its determinants for fermions,
importing nothing from ``fockbench`` or ``perfbench``).
``tests/test_witness.py`` judges its circuits with :func:`judge_run`."""

import functools
import subprocess
import sys

import golden_error
import pytest
from click.testing import CliRunner

from fockbench.cli import main

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
    return [(name, backend) for name in names for backend in golden_error.BACKENDS]


def _check_golden(name, backend):
    golden = golden_error.GOLDEN_DIR / f"{name}.{backend}.json"
    _assert_within_bound(golden.read_text(), PROGRAMS[name])


EXAMPLES = sorted(path.stem for path in golden_error.CIRCUIT_DIR.glob("*.fck"))


@pytest.mark.parametrize("name, backend", _goldens(EXAMPLES))
def test_example_golden_numbers_match_the_40_digit_reference(name, backend):
    _check_golden(name, backend)


@pytest.mark.parametrize("name, backend", _goldens(n for n in PROGRAMS if n not in EXAMPLES))
def test_mesh_golden_numbers_match_the_40_digit_reference(name, backend):
    _check_golden(name, backend)


def judge_run(tmp_path, program, backend):
    """Run ``program`` on ``backend`` and judge every number it prints; on
    ``both``, exit 0 also means that the routes agree."""
    path = tmp_path / "run.fck"
    path.write_text(program)
    result = CliRunner().invoke(main, ["run", str(path), "--backend", backend, "--format", "json"])
    assert result.exit_code == 0, result.output
    _assert_within_bound(result.stdout, program)


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
@pytest.mark.parametrize("name", list(SIGN_PROBES))
def test_sign_probe_runs_match_the_40_digit_reference(tmp_path, name, backend):
    judge_run(tmp_path, SIGN_PROBES[name], backend)


def test_reference_imports_nothing_from_the_package():
    # a reference that loaded fockbench could share the mistake it judges
    probe = (
        "import sys; sys.path.insert(0, 'tools'); import golden_error; "
        "golden_error.golden_programs(); print(*sys.modules)"
    )
    root = golden_error.ROOT  # so that a relative ``PYTHONPATH=src`` still finds fockbench
    done = subprocess.run([sys.executable, "-c", probe], cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    ours = [m for m in done.stdout.split() if m.partition(".")[0] in ("fockbench", "perfbench")]
    assert ours == []
