"""Circuit elements, generators, unitary logarithms, experiment wiring."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

from fockbench.algebra import (
    LadderPolynomial,
    LadderSymbol,
    annihilation,
    basis_ket,
    creation,
    multiply,
    normal_order,
)
from fockbench.circuit import (
    ANGLE,
    ANTISYMMETRIC,
    AnnihilationVertex,
    BeamSplitter,
    Circuit,
    CircuitElement,
    EXPERIMENTS,
    KerrMedium,
    PhaseShifter,
    QuadraticCustom,
    SYMMETRIC,
    build_experiment,
    cnot_expected_output,
    cnot_input_occupation,
    element_generator,
    generator_from_unitary,
    with_cutoff,
)
from fockbench.modes import BOSON, FERMION, ModeSystem


# ---------------------------------------------------------------------------
# Mode matrices
# ---------------------------------------------------------------------------


def test_symmetric_entries():
    b = BeamSplitter(0, 1, SYMMETRIC).mode_matrix()
    s = 1 / math.sqrt(2)
    assert np.allclose(b, [[s, 1j * s], [1j * s, s]], atol=0)


def test_antisymmetric_entries():
    b = BeamSplitter(0, 1, ANTISYMMETRIC).mode_matrix()
    s = 1 / math.sqrt(2)
    assert np.allclose(b, [[s, -s], [s, s]], atol=0)


def test_angle_zero_is_identity():
    b = BeamSplitter(0, 1, ANGLE, 0.0).mode_matrix()
    assert np.abs(b - np.eye(2)).max() == 0.0


@pytest.mark.parametrize(
    "element",
    [
        BeamSplitter(0, 1, SYMMETRIC),
        BeamSplitter(0, 1, ANTISYMMETRIC),
        BeamSplitter(0, 1, ANGLE, 0.37),
        PhaseShifter(0, 1.1),
    ],
)
def test_mode_matrices_unitary(element):
    b = element.mode_matrix()
    assert np.abs(b.conj().T @ b - np.eye(b.shape[0])).max() < 1e-15


def test_mode_matrix_rejects_nonlinear():
    with pytest.raises(ValueError):
        KerrMedium(0, 1).mode_matrix()
    with pytest.raises(ValueError):
        AnnihilationVertex(0, 1, 2, 1.0).mode_matrix()


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_symmetric_generator_coefficients():
    system = ModeSystem(2, 0, 4)
    k = element_generator(BeamSplitter(0, 1, SYMMETRIC), system)
    coeffs = dict(k.terms)
    hop_01 = (LadderSymbol(0, BOSON, True), LadderSymbol(1, BOSON, False))
    hop_10 = (LadderSymbol(1, BOSON, True), LadderSymbol(0, BOSON, False))
    assert set(coeffs) == {hop_01, hop_10}
    assert coeffs[hop_01] == pytest.approx(0.25j * math.pi)
    assert coeffs[hop_10] == pytest.approx(0.25j * math.pi)


def test_kerr_generator_form():
    system = ModeSystem(3, 0, 4)
    k = element_generator(KerrMedium(0, 2, math.pi), system)
    ((factors, coeff),) = k.terms.items()
    assert coeff == pytest.approx(1j * math.pi)
    assert factors == (
        LadderSymbol(0, BOSON, True),
        LadderSymbol(0, BOSON, False),
        LadderSymbol(2, BOSON, True),
        LadderSymbol(2, BOSON, False),
    )


def test_phase_generator_form():
    system = ModeSystem(1, 0, 4)
    k = element_generator(PhaseShifter(0, 0.8), system)
    ((factors, coeff),) = k.terms.items()
    assert coeff == pytest.approx(0.8j)
    assert factors == (LadderSymbol(0, BOSON, True), LadderSymbol(0, BOSON, False))


def test_vertex_generator_form():
    system = ModeSystem(1, 2, 4)
    k = element_generator(AnnihilationVertex(0, 1, 2, math.pi / 2), system)
    coeffs = dict(k.terms)
    forward = (
        LadderSymbol(0, BOSON, True),
        LadderSymbol(1, FERMION, False),
        LadderSymbol(2, FERMION, False),
    )
    backward = (
        LadderSymbol(0, BOSON, False),
        LadderSymbol(1, FERMION, True),
        LadderSymbol(2, FERMION, True),
    )
    assert set(coeffs) == {forward, backward}
    assert coeffs[forward] == pytest.approx(math.pi / 2)
    assert coeffs[backward] == pytest.approx(math.pi / 2)


@pytest.mark.parametrize(
    "element",
    [
        BeamSplitter(0, 1, SYMMETRIC),
        BeamSplitter(0, 1, ANTISYMMETRIC),
        BeamSplitter(0, 1, ANGLE, -1.2),
        PhaseShifter(1, 2.2),
        KerrMedium(0, 1, 0.7),
    ],
)
def test_generators_anti_hermitian(element):
    system = ModeSystem(2, 0, 4)
    k = element_generator(element, system)
    assert normal_order(k + k.adjoint()).is_zero


def test_vertex_generator_anti_hermitian():
    system = ModeSystem(1, 2, 4)
    k = element_generator(AnnihilationVertex(0, 1, 2, 0.9), system)
    assert normal_order(k + k.adjoint()).is_zero


@pytest.mark.parametrize(
    "element",
    [
        BeamSplitter(0, 1, SYMMETRIC),
        BeamSplitter(0, 1, ANTISYMMETRIC),
        BeamSplitter(0, 1, ANGLE, 0.9),
        PhaseShifter(0, -2.5),
    ],
)
def test_generator_exponentiates_to_mode_matrix(element):
    # exp of the quadratic coefficient matrix reproduces the mode map
    system = ModeSystem(2, 0, 4)
    k = element_generator(element, system)
    modes = element.modes
    c = np.zeros((len(modes), len(modes)), dtype=complex)
    pos = {m: p for p, m in enumerate(modes)}
    for factors, coeff in k.terms.items():
        c[pos[factors[0].mode], pos[factors[1].mode]] = coeff
    assert np.abs(expm(c) - element.mode_matrix()).max() < 1e-10


# ---------------------------------------------------------------------------
# Shared element description
# ---------------------------------------------------------------------------

#: bosons 0, 1 and fermions 2, 3, 4
MIXED = ModeSystem(2, 3, 3)

_FERMION_MIXER = generator_from_unitary(unitary_group.rvs(3, random_state=3))

#: One instance of every element class on MIXED, the same element with the
#: species of its modes swapped, and whether the swapped one is still valid
#: (phase shifters and Kerr media act on either species).
DESCRIBED = [
    (BeamSplitter(0, 1, SYMMETRIC), BeamSplitter(0, 2, SYMMETRIC), False),
    (PhaseShifter(3, 0.7), PhaseShifter(0, 0.7), True),
    (KerrMedium(1, 4, 0.9), KerrMedium(4, 1, 0.9), True),
    (AnnihilationVertex(0, 2, 4, 0.8), AnnihilationVertex(2, 0, 4, 0.8), False),
    (
        QuadraticCustom.from_matrix((2, 3, 4), _FERMION_MIXER),
        QuadraticCustom.from_matrix((2, 0, 4), _FERMION_MIXER),
        False,
    ),
]

_IDS = [type(element).__name__ for element, _, _ in DESCRIBED]


def test_described_covers_every_element_class():
    assert {type(e) for e, _, _ in DESCRIBED} == set(CircuitElement.__subclasses__())


@pytest.mark.parametrize("element,swapped,swapped_valid", DESCRIBED, ids=_IDS)
def test_validate_applies_species_rules(element, swapped, swapped_valid):
    element.validate(MIXED)
    if swapped_valid:
        swapped.validate(MIXED)
    else:
        with pytest.raises(ValueError, match="species mismatch"):
            swapped.validate(MIXED)


def _is_number_diagonal(poly) -> bool:
    return all(
        Counter(s.mode for s in factors if s.dagger)
        == Counter(s.mode for s in factors if not s.dagger)
        for factors in poly.terms
    )


@pytest.mark.parametrize("element", [e for e, _, _ in DESCRIBED], ids=_IDS)
def test_number_phases_are_the_generator_over_i(element):
    k = element_generator(element, MIXED)
    if element.number_phases is None:
        assert not _is_number_diagonal(k)
        return
    numbers = LadderPolynomial.zero()
    for key, value in element.number_phases.items():
        assert type(key) is tuple and len(key) in (1, 2)
        assert all(type(m) is int for m in key)
        term = LadderPolynomial.constant(value)
        for m in key:
            species = MIXED.species(m)
            term = multiply(term, multiply(creation(m, species), annihilation(m, species)))
        numbers = numbers + term
    assert normal_order(k * -1j) == normal_order(numbers)


@pytest.mark.parametrize("element", [e for e, _, _ in DESCRIBED], ids=_IDS)
def test_mode_matrix_exactly_for_linear_elements(element):
    if not element.linear:
        with pytest.raises(ValueError, match="no mode matrix"):
            element.mode_matrix()
        return
    k = element_generator(element, MIXED)
    pos = {m: p for p, m in enumerate(element.modes)}
    c = np.zeros((len(pos), len(pos)), dtype=complex)
    for factors, coeff in k.terms.items():
        c[pos[factors[0].mode], pos[factors[1].mode]] = coeff
    assert np.abs(expm(c) - element.mode_matrix()).max() < 1e-12


# ---------------------------------------------------------------------------
# generator_from_unitary
# ---------------------------------------------------------------------------


def test_log_of_identity():
    c = generator_from_unitary(np.eye(3))
    assert np.abs(c).max() < 1e-12


def test_log_of_b1_reexponentiates():
    b1 = BeamSplitter(0, 1, SYMMETRIC).mode_matrix()
    c = generator_from_unitary(b1)
    assert np.abs(expm(c) - b1).max() < 1e-10
    # principal log of B1 is (i pi/4) off-diagonal
    assert np.allclose(c, 0.25j * math.pi * np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_log_of_b2_is_quarter_turn():
    b2 = BeamSplitter(0, 1, ANTISYMMETRIC).mode_matrix()
    c = generator_from_unitary(b2)
    want = 0.25 * math.pi * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.abs(c - want).max() < 1e-12


def test_log_branch_at_minus_one():
    c = generator_from_unitary(np.diag([-1.0, 1.0]))
    assert c[0, 0] == pytest.approx(1j * math.pi, abs=1e-12)
    assert np.abs(expm(c) - np.diag([-1.0, 1.0])).max() < 1e-10


def test_log_rejects_nonunitary():
    with pytest.raises(ValueError):
        generator_from_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("seed", range(6))
def test_log_random_unitaries(seed):
    u = unitary_group.rvs(2, random_state=seed)
    c = generator_from_unitary(u)
    assert np.abs(c + c.conj().T).max() < 1e-12
    assert np.abs(expm(c) - u).max() < 1e-10


# ---------------------------------------------------------------------------
# Element and circuit validation
# ---------------------------------------------------------------------------


def test_duplicate_modes_rejected():
    with pytest.raises(ValueError):
        BeamSplitter(1, 1, SYMMETRIC)
    with pytest.raises(ValueError):
        KerrMedium(0, 0)
    with pytest.raises(ValueError):
        AnnihilationVertex(0, 1, 1, 1.0)


def test_quadratic_custom_requires_anti_hermitian():
    with pytest.raises(ValueError):
        QuadraticCustom.from_matrix((0, 1), np.eye(2))
    element = QuadraticCustom.from_matrix((0, 1), [[0, 1j], [1j, 0]])
    assert np.abs(element.matrix - np.array([[0, 1j], [1j, 0]])).max() == 0.0


def test_circuit_rejects_species_mismatch():
    system = ModeSystem(1, 2, 4)
    with pytest.raises(ValueError, match="species"):
        Circuit(
            system,
            (BeamSplitter(0, 1, SYMMETRIC),),
            basis_ket(system, (1, 0, 0)),
            (0,),
        )
    with pytest.raises(ValueError, match="species"):
        Circuit(
            system,
            (AnnihilationVertex(1, 0, 2, 1.0),),
            basis_ket(system, (1, 0, 0)),
            (0,),
        )


def test_circuit_rejects_unnormalized_input():
    system = ModeSystem(1, 0, 4)
    ket = basis_ket(system, (1,))
    bad = type(ket)(system, ket.poly * 0.5)
    with pytest.raises(ValueError, match="normalized"):
        Circuit(system, (), bad, (0,))


def test_circuit_rejects_nan_input():
    # a nan input norm must not slip past the normalisation check
    system = ModeSystem(1, 0, 4)
    ket = basis_ket(system, (1,))
    with pytest.raises(ValueError, match="normalized"):
        Circuit(system, (), type(ket)(system, ket.poly * math.nan), (0,))


def test_circuit_rejects_foreign_modes():
    system = ModeSystem(2, 0, 4)
    with pytest.raises(IndexError):
        Circuit(system, (PhaseShifter(5, 1.0),), basis_ket(system, (1, 0)), (0,))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: BeamSplitter(0, 1, "diag"),
            "unknown beam splitter variant 'diag'",
            id="bs-unknown-variant",
        ),
        pytest.param(
            lambda: BeamSplitter(0, 1, ANGLE),
            "angle variant requires theta",
            id="bs-angle-without-theta",
        ),
        pytest.param(
            lambda: BeamSplitter(0, 1, SYMMETRIC, 0.3),
            "theta is only meaningful for the angle variant",
            id="bs-theta-on-sym",
        ),
        pytest.param(
            lambda: AnnihilationVertex(0, 1, 2, 1.0).validate(ModeSystem(2, 1, 3)),
            "species mismatch: vertex electron/positron modes must be fermionic",
            id="vertex-bosonic-electron",
        ),
        pytest.param(
            lambda: QuadraticCustom((0, 1), ((0, 1j),)),
            "coefficient matrix must be square, one row per mode",
            id="custom-not-square",
        ),
        pytest.param(
            lambda: QuadraticCustom((0, 0), ((0, 1j), (1j, 0))),
            "custom element modes must be distinct",
            id="custom-repeated-mode",
        ),
        pytest.param(
            lambda: generator_from_unitary(np.ones((2, 3))),
            "input must be a square matrix",
            id="unitary-not-square",
        ),
        pytest.param(
            lambda: Circuit(
                ModeSystem(2, 0, 3), (), basis_ket(ModeSystem(2, 0, 4), (1, 0)), (0,)
            ),
            "input state belongs to a different mode system",
            id="circuit-foreign-input",
        ),
    ],
)
def test_element_and_circuit_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_circuit_requires_measured_modes():
    system = ModeSystem(1, 0, 4)
    with pytest.raises(ValueError):
        Circuit(system, (), basis_ket(system, (1,)), ())


# ---------------------------------------------------------------------------
# Built-in experiments
# ---------------------------------------------------------------------------


def test_single_photon_wiring():
    circuit = build_experiment("single_photon_bs_sym")
    assert circuit.system == ModeSystem(2, 0, 6)
    assert circuit.elements == (BeamSplitter(0, 1, SYMMETRIC),)
    assert circuit.measured_modes == (0, 1)
    assert circuit.input_state.occupation_amplitudes()[(1, 0)] == pytest.approx(1.0)


def test_cnot_encoding():
    assert cnot_input_occupation(0, 0) == (1, 0, 1, 0)
    assert cnot_input_occupation(1, 0) == (0, 1, 1, 0)
    circuit = build_experiment("cnot_dualrail", control=1, target=0)
    amps = circuit.input_state.occupation_amplitudes()
    assert amps[(0, 1, 1, 0)] == pytest.approx(1.0)


def test_cnot_truth_table_map():
    assert cnot_expected_output(0, 0) == cnot_input_occupation(0, 0)
    assert cnot_expected_output(0, 1) == cnot_input_occupation(0, 1)
    assert cnot_expected_output(1, 0) == cnot_input_occupation(1, 1)
    assert cnot_expected_output(1, 1) == cnot_input_occupation(1, 0)


def test_hardy_wiring():
    circuit = build_experiment("hardy_vertex", theta=math.pi / 2)
    assert circuit.system == ModeSystem(1, 2, 6)
    assert circuit.elements == (AnnihilationVertex(0, 1, 2, math.pi / 2),)
    assert circuit.measured_modes == (0, 1, 2)
    assert circuit.input_state.occupation_amplitudes()[(0, 1, 1)] == pytest.approx(1.0)


def test_unknown_experiment():
    with pytest.raises(ValueError):
        build_experiment("teleporter")


def test_experiment_registry_covers_builders():
    assert list(EXPERIMENTS) == [
        "single_photon_bs_sym",
        "single_photon_bs_asym",
        "cnot_dualrail",
        "hardy_vertex",
    ]


def test_with_cutoff_rebuilds_system():
    circuit = build_experiment("cnot_dualrail")
    wide = with_cutoff(circuit, 12)
    assert wide.system.cutoff == 12
    assert wide.elements == circuit.elements
    assert wide.input_state.occupation_amplitudes() == pytest.approx(
        circuit.input_state.occupation_amplitudes()
    )
