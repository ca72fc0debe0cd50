"""The benchmark tracer's hook names resolve in the package.

``perfbench/tracer.py`` patches functions by ``(module, attribute)`` name;
a rename inside fockbench would otherwise only show up as a failing
``--trace 1`` benchmark run.  The tracer is loaded by path (it uses the
standard library only) and never modified here.
"""

import importlib.util
import sys
from pathlib import Path

from click.testing import CliRunner

import fockbench.cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists():
    tracer = _load_tracer()
    for name, (module, attr) in tracer.TARGETS.items():
        assert callable(getattr(sys.modules[module], attr, None)), name
    assert "run" in fockbench.cli.main.commands


def test_installed_tracer_records_element_generator():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(
            fockbench.cli.main,
            ["run", "--experiment", "single_photon_bs_sym", "--backend", "numeric"],
        )
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    names = {span[2] for span in tracer.spans}
    assert {"cli.cmd_run", "circuit.element_generator", "backends.expm_multiply"} <= names


def test_installed_tracer_records_symbolic_route():
    # the tracer also reads the symbolic ket: ``ket.poly.terms`` after each evolve
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(
            fockbench.cli.main,
            ["run", "--experiment", "single_photon_bs_sym", "--backend", "both"],
        )
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    names = {span[2] for span in tracer.spans}
    assert {"algebra.substitute_modes", "backends.evolve_symbolic"} <= names
    assert tracer.metrics(1)["algebra.ket_monomials"] > 0


def test_installed_tracer_records_symbolic_measurement_and_phases():
    # substitution no longer normal orders and measurement makes one
    # expectation pass, but the tracer still sees these two layers
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(
            fockbench.cli.main,
            ["run", "--experiment", "cnot_dualrail", "--backend", "symbolic"],
        )
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    names = {span[2] for span in tracer.spans}
    assert {"algebra.joint_number_distribution", "algebra.apply_number_diagonal"} <= names
    assert "algebra.normal_order" not in names


def test_installed_tracer_records_both_routes_outside_backends():
    # the evolutions and per-route measurements live in ``fock`` and
    # ``algebra``; the tracer finds them through ``backends`` by identity
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(
            fockbench.cli.main,
            ["run", "--experiment", "hardy_vertex:0.3", "--backend", "both"],
        )
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    names = {span[2] for span in tracer.spans}
    assert {
        "backends.evolve_numeric",
        "backends.measure_fock",
        "backends.measure_ket",
    } <= names
