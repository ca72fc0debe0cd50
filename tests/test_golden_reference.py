"""Every judged circuit against the one physics reference of the tests,
``tools/golden_error.py``: a path sum in mpmath at 40 digits built from the
README's conventions, with permanents of the composed mode matrix for
bosons and its determinants for fermions, importing nothing from
``fockbench`` or ``perfbench``.  The benchmark keeps its own oracle: a
judge shared with the tests could hide one mistake from both.

The circuits are one table, :data:`golden_error.JUDGED`: the goldens
(every file in ``circuits/`` and two meshes), runs whose numbers depend on
a sign the goldens cannot show, and seeded witnesses.  Cross-route
agreement cannot see a mistake the routes share; the reference can.
Each (row, backend) runs once per session, through :func:`run`; the
tests here, in ``test_cli.py`` and in ``test_witness.py`` select their
rows from the table and judge that run.  Adding a judged circuit is one
row there (or one file in ``circuits/``); a golden row also needs its
three files in ``tests/golden/``, written by the CLI::

    fockbench run <file> --backend <backend> --format json > tests/golden/<name>.<backend>.json
"""

import functools
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import golden_error
import pytest
from click.testing import CliRunner
from golden_error import BACKENDS, CIRCUIT_DIR, GOLDEN_DIR, GOLDENS, JUDGED, ROUTES

from fockbench.cli import main

#: Largest absolute distance of a printed number from the reference.
BOUND = 1e-14

#: The golden rows that are files of ``circuits/``, and the other goldens.
EXAMPLES = [name for name in GOLDENS if (CIRCUIT_DIR / f"{name}.fck").exists()]
MESHES = [name for name in GOLDENS if name not in EXAMPLES]
#: Runs whose numbers depend on a sign the goldens cannot show.
SIGN_PROBES = [name for name, row in JUDGED.items() if row.backends == ROUTES]


def pairs(names):
    """(name, backend) for each backend of each named row."""
    return [(name, backend) for name in names for backend in JUDGED[name].backends]


@functools.cache
def run(name, backend):
    """The CLI's JSON run of one row on one backend, made once per session.
    It must exit 0 (on ``both``, the routes agree) and write nothing to
    stderr (a warning raised while evaluating would print as a "warning:"
    line)."""
    with tempfile.TemporaryDirectory() as folder, warnings.catch_warnings():
        warnings.simplefilter("always")
        path = Path(folder) / f"{name}.fck"
        path.write_text(JUDGED[name].program)
        result = CliRunner().invoke(
            main,
            ["run", str(path), "--backend", backend, "--format", "json"],
            env={"FOCKBENCH_CUTOFF": None},
            catch_exceptions=False,
        )
    assert (result.exit_code, result.stderr) == (0, ""), result.output
    return result


@functools.cache
def _reference(program):
    return golden_error.reference(program)


def judge(name, report_text):
    """Every number of one JSON report of a row within :data:`BOUND` of the reference."""
    found = golden_error.errors(report_text, _reference(JUDGED[name].program))
    worst = max(found, key=lambda key: found[key][0])
    assert found[worst][0] <= BOUND, (worst, float(found[worst][0]))


def golden_text(name, backend):
    return (GOLDEN_DIR / f"{name}.{backend}.json").read_text()


@pytest.mark.parametrize("name, backend", pairs(EXAMPLES))
def test_example_golden_numbers_match_the_40_digit_reference(name, backend):
    judge(name, golden_text(name, backend))


@pytest.mark.parametrize("name, backend", pairs(MESHES))
def test_mesh_golden_numbers_match_the_40_digit_reference(name, backend):
    judge(name, golden_text(name, backend))


@pytest.mark.parametrize("name, backend", pairs(SIGN_PROBES))
def test_sign_probe_runs_match_the_40_digit_reference(name, backend):
    judge(name, run(name, backend).stdout)


def test_every_golden_file_belongs_to_a_golden_row():
    assert all(JUDGED[name].backends == BACKENDS for name in GOLDENS)
    expected = {f"{name}.{backend}.json" for name in GOLDENS for backend in BACKENDS}
    assert {path.name for path in GOLDEN_DIR.iterdir()} == expected


def test_reference_imports_nothing_from_the_package():
    # a reference that loaded fockbench could share the mistake it judges
    probe = "import sys; sys.path.insert(0, 'tools'); import golden_error; print(*sys.modules)"
    root = golden_error.ROOT  # so that a relative ``PYTHONPATH=src`` still finds fockbench
    done = subprocess.run([sys.executable, "-c", probe], cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    ours = [m for m in done.stdout.split() if m.partition(".")[0] in ("fockbench", "perfbench")]
    assert ours == []
