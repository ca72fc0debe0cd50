"""The two routes stay independent: the rule of the ROADMAP, as tests.

The symbolic route never reads the truncation (``cutoff`` and the box
built from it), the numeric route reads the algebra only to build
generators, and neither route module imports the other or the shared
reports.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from golden_error import mesh_program

import fockbench.algebra
from fockbench.algebra import (
    LadderPolynomial,
    LadderSymbol,
    evolve_symbolic,
    quadratic_generator,
)
from fockbench.backends import measure
from fockbench.checks import builtin_equivalence_cases, random_circuit
from fockbench.dsl import parse_circuit
from fockbench.fock import evolve_numeric
from fockbench.modes import ModeSystem

PACKAGE = Path(fockbench.algebra.__file__).resolve().parent

#: ``ModeSystem`` attributes that describe the truncated box.
BOX_ATTRIBUTES = frozenset({"cutoff", "shape", "basis_size", "occupations"})

FERMION_VERTEX_PROGRAM = """system bosons=2 fermions=2 cutoff=4
input superpose 0.6:1,3,4 ; 0.8j:2
bs 1 2 angle=0.4
vertex 1 3 4 theta=0.7
bs 3 4 sym
measure all
"""


@pytest.fixture(scope="module")
def circuits():
    circuits = [circuit for _, circuit in builtin_equivalence_cases()]
    rng = np.random.default_rng(2024)
    circuits += [random_circuit(rng) for _ in range(30)]
    circuits.append(parse_circuit(mesh_program(6, 3, 3)))
    circuits.append(parse_circuit(FERMION_VERTEX_PROGRAM))
    return circuits


def test_symbolic_route_never_reads_the_box(circuits, monkeypatch):
    def guarded(self, name):
        if name in BOX_ATTRIBUTES:
            raise AssertionError(f"the symbolic route read ModeSystem.{name}")
        return object.__getattribute__(self, name)

    # the circuits are built first: parsing validates against the cutoff
    monkeypatch.setattr(ModeSystem, "__getattribute__", guarded)
    for circuit in circuits:
        report = measure(evolve_symbolic(circuit), circuit.measured_modes)
        assert report.norm == pytest.approx(1.0, abs=1e-8)


def _code_objects(functions):
    # each function's code and the code of the comprehensions inside it
    pending = [f.__code__ for f in functions]
    found = set()
    while pending:
        code = pending.pop()
        found.add(code)
        pending += [c for c in code.co_consts if hasattr(c, "co_code")]
    return found


#: What building a generator or reading an input ket runs in ``algebra``.
GENERATOR_CODE = _code_objects(
    [
        LadderSymbol.__new__,
        LadderSymbol.adjoint,
        LadderPolynomial.__init__,
        LadderPolynomial.terms.fget,
        quadratic_generator,
    ]
)


def test_numeric_route_calls_algebra_only_to_build_generators(circuits):
    algebra_file = fockbench.algebra.__file__
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == algebra_file:
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for circuit in circuits:
            measure(evolve_numeric(circuit), circuit.measured_modes)
    finally:
        sys.setprofile(None)
    assert called, "the profile saw no generator being built"
    assert sorted(code.co_name for code in called - GENERATOR_CODE) == []


def _fockbench_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, anywhere in its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "fockbench" if node.level else ""
            target = ".".join(filter(None, (base, node.module)))
            imported.add(target)
            imported |= {f"{target}.{alias.name}" for alias in node.names}
    return {name.split(".")[1] for name in imported if name.startswith("fockbench.")}


@pytest.mark.parametrize(
    "module, forbidden",
    [("algebra", {"fock", "backends"}), ("fock", {"backends"})],
)
def test_route_modules_do_not_import_each_other(module, forbidden):
    assert _fockbench_imports(module) & forbidden == set()


def test_the_ladder_kernel_runs_in_two_loops():
    # the search (numeric route and box matrices) and the input-ket reader
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                callers += [
                    (path.stem, function.name)
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_monomial_image"
                ]
    assert sorted(callers) == [
        ("fock", "_ket_amplitudes"),
        ("fock", "_reachable_generators"),
    ]
