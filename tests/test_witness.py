"""A witness that neither route shares: bosonic linear optics by permanents.

For single photons in modes ``inputs`` through a mode matrix U, the output
pattern t has probability |Perm(U[rows(t), inputs])|^2 / prod t_j!
(Scheel, quant-ph/0406127; Aaronson & Arkhipov, Theory of Computing 9,
143 (2013)).  U is composed from the same angles that write the circuit
text, with the README's frozen ``angle=`` matrix [[cos, -sin], [sin, cos]],
never from ``element.mode_matrix()``.  ``perfbench/oracle.py`` (Ryser's
formula) and ``perfbench/workloads.py`` (the brick mesh and its text) use
the standard library and numpy only, and are loaded by path.

Cross-route agreement cannot see a mistake the routes share, such as a
consistent sign error in the splitter.  On a nearest-neighbour brick mesh
that error is a conjugation by diag((-1)^m), which no detector statistic
shows; the odd cycle below shows it.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from fockbench.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
workloads = _load("workloads")


def _seeded_mesh(modes: int, seed: int):
    elements = workloads.mesh_elements(random.Random(f"witness:{seed}"), modes)
    return modes, modes // 2, modes // 2, elements


def _golden_mesh(modes: int):
    # the program of the mesh goldens in tests/test_cli.py
    elements = []
    for layer in range(modes):
        for m in range(layer % 2, modes - 1, 2):
            elements.append(["bs", m, m + 1, 0.3 + 0.11 * m + 0.07 * layer])
            elements.append(["phase", m, 0.5 - 0.13 * m + 0.05 * layer])
    return modes, modes // 2, modes // 2, elements


def _odd_cycle():
    # splitters on 1-2, 2-3 and 1-3 close a cycle of odd length
    elements = [
        ["bs", 0, 1, 0.4],
        ["bs", 1, 2, 1.1],
        ["phase", 1, 0.7],
        ["bs", 0, 2, -0.8],
    ]
    return 3, 2, 2, elements


CASES = {
    "mesh_m6_seed1": _seeded_mesh(6, 1),
    "mesh_m6_seed2": _seeded_mesh(6, 2),
    "mesh_m8_seed1": _seeded_mesh(8, 1),
    "mesh_m6_golden": _golden_mesh(6),
    "mesh_m8_golden": _golden_mesh(8),
    "odd_cycle": _odd_cycle(),
}


def _expected(modes: int, photons: int, elements) -> dict:
    u = oracle.mesh_unitary(modes, elements)
    return oracle.linear_optics_distribution(u, range(photons))


@pytest.mark.parametrize("name", CASES)
def test_both_routes_match_the_permanent(tmp_path, name):
    modes, photons, cutoff, elements = CASES[name]
    path = tmp_path / f"{name}.fck"
    path.write_text(workloads.mesh_text(modes, photons, cutoff, elements))
    result = CliRunner().invoke(
        main, ["run", str(path), "--backend", "both", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    expected = _expected(modes, photons, elements)
    assert oracle.report_deviation(report, expected) <= oracle.TOLERANCE


@pytest.mark.parametrize("name", ["mesh_m6", "mesh_m8"])
@pytest.mark.parametrize("backend", ["numeric", "symbolic", "both"])
def test_mesh_goldens_match_the_permanent(name, backend):
    # the goldens were written by the code they check; this ties them to physics
    modes, photons, _, elements = CASES[f"{name}_golden"]
    golden = ROOT / "tests" / "golden" / f"{name}.{backend}.json"
    report = json.loads(golden.read_text())
    expected = _expected(modes, photons, elements)
    assert oracle.report_deviation(report, expected) <= oracle.TOLERANCE

