"""A witness that neither route shares: linear optics by permanents and
determinants.

For bosons in modes ``inputs`` (with repeats, s_j in mode j) through a
mode matrix U, the output pattern t has probability
|Perm(U[rows(t), inputs])|^2 / (prod t_j! prod s_j!) (Scheel,
quant-ph/0406127; Aaronson & Arkhipov, Theory of Computing 9, 143 (2013)).
For fermions the output modes T have probability |det U[T, inputs]|^2
(Terhal & DiVincenzo, Phys. Rev. A 65, 032325 (2002)).  U is composed from
the same angles that write the circuit text, with the README's frozen
``angle=`` matrix [[cos, -sin], [sin, cos]], never from
``element.mode_matrix()``.  ``perfbench/oracle.py`` (Ryser's formula) and
``perfbench/workloads.py`` (the brick mesh and its text) use the standard
library and numpy only, and are loaded by path.

Cross-route agreement cannot see a mistake the routes share, such as a
consistent sign error in the splitter.  On a nearest-neighbour brick mesh
that error is a conjugation by diag((-1)^m), which no detector statistic
shows; the odd cycle below shows it.
"""

import importlib.util
import itertools
import json
import random
from pathlib import Path

import numpy as np
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


def _run_both(tmp_path, name: str, text: str) -> dict:
    path = tmp_path / f"{name}.fck"
    path.write_text(text)
    result = CliRunner().invoke(
        main, ["run", str(path), "--backend", "both", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


def _with_header(text: str, system_line: str, inputs) -> str:
    # the element lines of a workloads.mesh_text under another system and input
    lines = text.splitlines()
    lines[0] = system_line
    lines[1] = "input create " + " ".join(str(m + 1) for m in inputs)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", CASES)
def test_both_routes_match_the_permanent(tmp_path, name):
    modes, photons, cutoff, elements = CASES[name]
    text = workloads.mesh_text(modes, photons, cutoff, elements)
    report = _run_both(tmp_path, name, text)
    expected = _expected(modes, photons, elements)
    assert oracle.report_deviation(report, expected) <= oracle.TOLERANCE


def test_bunched_input_matches_the_permanent(tmp_path):
    # two photons in mode 1 and one in mode 2; the long hop breaks the brick
    elements = workloads.mesh_elements(random.Random("witness:bunched"), 6)
    elements.append(["bs", 0, 3, 0.9])
    inputs = [0, 0, 1]
    text = _with_header(
        workloads.mesh_text(6, 3, 3, elements), "system bosons=6 cutoff=3", inputs
    )
    report = _run_both(tmp_path, "bunched", text)
    u = oracle.mesh_unitary(6, elements)
    permanents = oracle.linear_optics_distribution(u, inputs)
    expected = {occ: p / 2 for occ, p in permanents.items()}  # prod s_j! = 2!
    assert oracle.report_deviation(report, expected) <= oracle.TOLERANCE


def _slater_distribution(u: np.ndarray, inputs) -> dict:
    """Fermions in modes ``inputs``: P(T) = |det U[T, inputs]|^2."""
    modes = u.shape[0]
    out = {}
    for occupied in itertools.combinations(range(modes), len(inputs)):
        pattern = tuple(int(m in occupied) for m in range(modes))
        det = np.linalg.det(u[np.ix_(occupied, inputs)])
        out[pattern] = float(abs(det) ** 2)
    return out


def _fermion_mesh(modes: int, seed: int, hops=()):
    elements = workloads.mesh_elements(random.Random(f"witness:fermion:{seed}"), modes)
    return modes, modes // 2, elements + list(hops)


FERMION_CASES = {
    "fermion_m4_seed1": _fermion_mesh(4, 1),
    "fermion_m6_seed1": _fermion_mesh(6, 1),
    # hops past occupied modes: without them a missing Jordan-Wigner sign
    # is invisible to the statistics of up to 2 fermions in up to 4 modes
    "fermion_m6_hops": _fermion_mesh(
        6, 2, [["bs", 0, 3, 0.7], ["bs", 1, 5, 1.3], ["bs", 0, 2, -0.9]]
    ),
    "fermion_odd_cycle": (3, 2, _odd_cycle()[3]),
}


@pytest.mark.parametrize("name", FERMION_CASES)
def test_fermions_match_the_determinant(tmp_path, name):
    modes, fermions, elements = FERMION_CASES[name]
    inputs = list(range(fermions))
    text = _with_header(
        workloads.mesh_text(modes, fermions, 1, elements),
        f"system bosons=0 fermions={modes} cutoff=1",
        inputs,
    )
    report = _run_both(tmp_path, name, text)
    expected = _slater_distribution(oracle.mesh_unitary(modes, elements), inputs)
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

