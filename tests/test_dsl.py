"""Text format: parsing, rendering, round trips, rejection diagnostics."""

import math
from pathlib import Path

import numpy as np
import pytest

import fockbench.dsl
from fockbench.algebra import basis_ket
from fockbench.checks import builtin_equivalence_cases, random_circuit
from fockbench.circuit import (
    ANGLE,
    ANTISYMMETRIC,
    AnnihilationVertex,
    BeamSplitter,
    Circuit,
    KerrMedium,
    PhaseShifter,
    QuadraticCustom,
    SYMMETRIC,
    build_experiment,
)
from fockbench.dsl import ELEMENT_SYNTAX, CircuitParseError, parse_circuit, render_circuit
from fockbench.fock import ket_to_fock
from fockbench.modes import ModeSystem

ROOT = Path(__file__).resolve().parent.parent
CIRCUITS_DIR = ROOT / "circuits"


def circuits_equivalent(a, b, atol=1e-12):
    if a.system != b.system or a.measured_modes != b.measured_modes:
        return False
    if a.elements != b.elements:
        return False
    return ket_to_fock(a.input_state).allclose(ket_to_fock(b.input_state), atol)


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


def test_smallest_valid_program():
    circuit = parse_circuit(
        "system bosons=2 cutoff=4\ninput create 1\nbs 1 2 sym\nmeasure all\n"
    )
    assert circuit.system == ModeSystem(2, 0, 4)
    assert circuit.elements == (BeamSplitter(0, 1, SYMMETRIC),)
    assert circuit.measured_modes == (0, 1)
    assert circuit.input_state.occupation_amplitudes()[(1, 0)] == pytest.approx(1.0)


def test_comments_and_blank_lines():
    circuit = parse_circuit(
        "# a comment\n\nsystem bosons=1 cutoff=2  # trailing comment\n\nmeasure 1\n"
    )
    assert circuit.system == ModeSystem(1, 0, 2)
    assert circuit.elements == ()


def test_default_input_is_vacuum_and_measure_all():
    circuit = parse_circuit("system bosons=2 cutoff=3\nbs 1 2 asym\n")
    assert circuit.input_state.occupation_amplitudes() == {
        (0, 0): pytest.approx(1.0)
    }
    assert circuit.measured_modes == (0, 1)


def test_create_repeated_mode_normalizes():
    circuit = parse_circuit("system bosons=1 cutoff=4\ninput create 1 1\n")
    amps = circuit.input_state.occupation_amplitudes()
    assert amps[(2,)] == pytest.approx(1.0)


def test_superpose_parses_complex_amplitudes():
    text = (
        "system bosons=2 cutoff=3\n"
        "input superpose 0.5:1 ; 0.5j:2 ; -0.5+0.5j:1,2\n"
        "measure all\n"
    )
    circuit = parse_circuit(text)
    amps = circuit.input_state.occupation_amplitudes()
    norm = math.sqrt(0.25 + 0.25 + 0.5)
    assert amps[(1, 0)] == pytest.approx(0.5 / norm)
    assert amps[(0, 1)] == pytest.approx(0.5j / norm)
    assert amps[(1, 1)] == pytest.approx((-0.5 + 0.5j) / norm)


@pytest.mark.parametrize("amplitude", ["1e308", "1e-200"])
def test_superpose_extreme_amplitudes_normalize(amplitude):
    # squaring 1e308 overflows and squaring 1e-200 underflows the norm
    reference = parse_circuit("system bosons=2 cutoff=3\ninput superpose 1:1 ; 1:2\n")
    circuit = parse_circuit(
        f"system bosons=2 cutoff=3\ninput superpose {amplitude}:1 ; {amplitude}:2\n"
    )
    assert circuit == reference


def test_kerr_defaults_to_pi():
    circuit = parse_circuit("system bosons=2 cutoff=3\nkerr 1 2\n")
    assert circuit.elements == (KerrMedium(0, 1, math.pi),)


def test_all_element_forms():
    text = (
        "system bosons=2 fermions=2 cutoff=5\n"
        "input create 3 4\n"
        "bs 1 2 angle=0.5\n"
        "phase 2 -1.25\n"
        "kerr 1 2 strength=0.75\n"
        "vertex 1 3 4 theta=0.6\n"
        "bs 3 4 asym\n"
        "measure 1 3 4\n"
    )
    circuit = parse_circuit(text)
    assert len(circuit.elements) == 5
    assert circuit.elements[0] == BeamSplitter(0, 1, ANGLE, 0.5)
    assert circuit.elements[1] == PhaseShifter(1, -1.25)
    assert circuit.elements[4] == BeamSplitter(2, 3, ANTISYMMETRIC)
    assert circuit.measured_modes == (0, 2, 3)


def test_shipped_cnot_file_matches_builder():
    text = (CIRCUITS_DIR / "cnot_dualrail.fck").read_text()
    circuit = parse_circuit(text)
    built = build_experiment("cnot_dualrail", control=1, target=0)
    assert circuits_equivalent(circuit, built)


@pytest.mark.parametrize(
    "fname",
    [
        "single_photon_bs_sym.fck",
        "single_photon_bs_asym.fck",
        "cnot_dualrail.fck",
        "hardy_vertex.fck",
    ],
)
def test_shipped_files_parse(fname):
    circuit = parse_circuit((CIRCUITS_DIR / fname).read_text())
    assert circuit.elements


@pytest.mark.parametrize(
    "label,circuit", builtin_equivalence_cases(), ids=lambda v: str(v)[:28]
)
def test_round_trip_builtins(label, circuit):
    if not isinstance(label, str):
        pytest.skip("id row")
    again = parse_circuit(render_circuit(circuit))
    assert circuits_equivalent(circuit, again)


def test_round_trip_superposition_input():
    text = (
        "system bosons=2 cutoff=3\n"
        "input superpose 1:1 ; 0.5j:2\n"
        "bs 1 2 sym\n"
        "measure all\n"
    )
    circuit = parse_circuit(text)
    again = parse_circuit(render_circuit(circuit))
    assert circuits_equivalent(circuit, again)


def test_random_circuits_round_trip_or_name_the_vacuum_branch():
    # random inputs include vacuum branches and phased vacua, which have no text
    rng = np.random.default_rng(0)
    refused = 0
    for _ in range(200):
        circuit = random_circuit(rng)
        try:
            text = render_circuit(circuit)
        except ValueError as exc:
            assert "vacuum branch" in str(exc)
            refused += 1
            continue
        assert circuits_equivalent(circuit, parse_circuit(text))
    assert 0 < refused < 200


# ---------------------------------------------------------------------------
# Element syntax table
# ---------------------------------------------------------------------------

#: bosons 1, 2 and fermions 3, 4, 5 in the text's 1-based numbering
TABLE_SYSTEM = ModeSystem(2, 3, 3)

#: Elements written through each row of the syntax table.
TABLE_ELEMENTS = {
    "bs": [
        BeamSplitter(0, 1, SYMMETRIC),
        BeamSplitter(1, 0, ANTISYMMETRIC),
        BeamSplitter(2, 4, ANGLE, -0.3),
    ],
    "phase": [PhaseShifter(3, -1.25)],
    "kerr": [KerrMedium(0, 3, 0.75)],
    "vertex": [AnnihilationVertex(1, 2, 4, 0.6)],
}


def test_table_elements_cover_every_row():
    assert set(TABLE_ELEMENTS) == {syntax.keyword for syntax in ELEMENT_SYNTAX}


@pytest.mark.parametrize("syntax", ELEMENT_SYNTAX, ids=lambda s: s.keyword)
def test_table_rows_round_trip(syntax):
    for element in TABLE_ELEMENTS[syntax.keyword]:
        circuit = Circuit(
            TABLE_SYSTEM, (element,), basis_ket(TABLE_SYSTEM, (0,) * 5), (0,)
        )
        text = render_circuit(circuit)
        assert f"\n{syntax.keyword} " in text
        assert parse_circuit(text).elements == (element,)


def test_kerr_without_strength_round_trips_to_default():
    circuit = parse_circuit("system bosons=2 fermions=3 cutoff=3\nkerr 1 4\n")
    assert circuit.elements == (KerrMedium(0, 3),)
    assert circuit.elements[0].strength == math.pi
    assert parse_circuit(render_circuit(circuit)).elements == circuit.elements


@pytest.mark.parametrize("syntax", ELEMENT_SYNTAX, ids=lambda s: s.keyword)
def test_usage_strings_are_the_documented_grammar(syntax):
    assert syntax.usage in fockbench.dsl.__doc__
    assert syntax.usage in (ROOT / "README.md").read_text()


# ---------------------------------------------------------------------------
# Rejection suite: every malformed program carries a line diagnostic
# ---------------------------------------------------------------------------

MALFORMED = [
    ("bs 1 2 sym\n", 1, "system"),
    ("system bosons=2 cutoff=3\nsystem bosons=1 cutoff=2\n", 2, "duplicate system"),
    ("system bosons=2\n", 1, "cutoff"),
    ("system bosons=two cutoff=3\n", 1, "integer"),
    ("system bosons=2 cutoff=0\n", 1, "cutoff"),
    ("system bosons=2 cutoff=3 flux=9\n", 1, "unknown system key"),
    ("system bosons=2 cutoff=3 bosons=2\n", 1, "duplicate system key"),
    ("system bosons=2 cutoff=3\nwobble 1 2\n", 2, "unknown element"),
    ("system bosons=2 cutoff=3\nbs 1 1 sym\n", 2, "duplicate mode"),
    ("system bosons=2 cutoff=3\nbs 1 3 sym\n", 2, "out of range"),
    ("system bosons=2 cutoff=3\nbs 0 2 sym\n", 2, "out of range"),
    ("system bosons=2 cutoff=3\nbs 1 2 diag\n", 2, "sym, asym or angle"),
    ("system bosons=2 cutoff=3\nbs 1 2\n", 2, "too few"),
    ("system bosons=2 cutoff=3\nbs 1 2 sym extra\n", 2, "unexpected token"),
    ("system bosons=2 cutoff=3\nphase 1\n", 2, "too few"),
    ("system bosons=2 cutoff=3\nphase 1 fast\n", 2, "number"),
    ("system bosons=2 cutoff=3\nkerr 1 2 strength=big\n", 2, "number"),
    ("system bosons=2 cutoff=3\nkerr 1 1\n", 2, "duplicate mode"),
    ("system bosons=1 fermions=2 cutoff=3\nvertex 2 1 3 theta=1.0\n", 2, "species"),
    ("system bosons=1 fermions=2 cutoff=3\nvertex 1 2 3\n", 2, "too few"),
    ("system bosons=1 fermions=2 cutoff=3\nvertex 1 2 3 theta\n", 2, "theta"),
    ("system bosons=1 fermions=2 cutoff=3\nvertex 1 1 3 theta=1\n", 2, "duplicate mode"),
    ("system bosons=1 fermions=2 cutoff=3\nvertex 1 1 3 theta=x\n", 2, "duplicate mode"),
    ("system bosons=2 cutoff=3\ninput create\n", 2, "at least one mode"),
    ("system bosons=2 cutoff=3\ninput make 1\n", 2, "create"),
    ("system bosons=2 cutoff=3\ninput superpose\n", 2, "empty"),
    ("system bosons=2 cutoff=3\ninput superpose 1+:1\n", 2, "complex"),
    ("system bosons=2 cutoff=3\ninput superpose 0.5\n", 2, "mode-list"),
    ("system bosons=2 cutoff=3\ninput superpose 1:\n", 2, "mode"),
    ("system bosons=2 cutoff=3\nmeasure\n", 2, "measure"),
    ("system bosons=2 cutoff=3\nmeasure 5\n", 2, "out of range"),
    ("system bosons=2 cutoff=3\ninput create 1\ninput create 2\n", 3, "duplicate input"),
    ("system bosons=0 fermions=1 cutoff=3\ninput create 1 1\n", 2, "vanishes"),
    ("system bosons=1 fermions=1 cutoff=3\nbs 1 2 sym\n", 2, "species"),
    ("system bosons=2 cutoff=3\nbs 1 2 angle=inf\n", 2, "finite"),
    ("system bosons=2 cutoff=3\nphase 1 nan\n", 2, "finite"),
    ("system bosons=2 cutoff=3\nkerr 1 2 strength=-inf\n", 2, "finite"),
    ("system bosons=1 fermions=2 cutoff=3\nvertex 1 2 3 theta=nan\n", 2, "finite"),
    ("system bosons=2 cutoff=3\ninput superpose 1:1 ; infj:2\n", 2, "finite"),
    ("system bosons\n", 1, "expected key=value, got 'bosons'"),
    ("system bosons=2 cutoff=3\ninput\n", 2, "input requires 'create' or 'superpose'"),
    ("system bosons=2 cutoff=3\ninput superpose 1:1 ;\n", 2, "empty superposition term"),
    ("system bosons=2 cutoff=3\ninput superpose 1:1,,2\n", 2, "empty mode in mode list"),
    ("system bosons=2 cutoff=3\nmeasure 1\nmeasure 2\n", 3, "duplicate measure"),
    ("# no statement\n", 1, "missing system declaration"),
]


@pytest.mark.parametrize("text,line,fragment", MALFORMED)
def test_malformed_programs_are_diagnosed(text, line, fragment):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == line
    assert fragment.lower() in err.value.message.lower()
    assert err.value.column >= 1


def test_render_refuses_a_custom_quadratic():
    system = ModeSystem(2, 0, 3)
    element = QuadraticCustom((0, 1), ((0, 1j), (1j, 0)))
    circuit = Circuit(system, (element,), basis_ket(system, (1, 0)), (0, 1))
    with pytest.raises(ValueError) as err:
        render_circuit(circuit)
    assert str(err.value) == "custom quadratic elements have no text form"


def test_rejection_suite_has_at_least_twenty_cases():
    assert len(MALFORMED) >= 20


def test_error_column_points_at_token():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("system bosons=2 cutoff=3\nbs 1 9 sym\n")
    # column of the "9" token
    assert (err.value.line, err.value.column) == (2, 6)


@pytest.mark.parametrize(
    "element, noun, column",
    [
        ("bs 1 1 sym", "beam splitter", 6),
        ("vertex 1 1 3 theta=1", "vertex", 10),
        ("vertex 1 1 3 theta=x", "vertex", 10),
    ],
)
def test_repeated_mode_reported_at_the_repeat(element, noun, column):
    # every element names itself and points at the repeated mode, before
    # any argument after the modes is read
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(f"system bosons=1 fermions=2 cutoff=3\n{element}\n")
    assert (err.value.line, err.value.column) == (2, column)
    assert err.value.message == f"duplicate mode in {noun}"
