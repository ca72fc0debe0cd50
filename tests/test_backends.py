"""Backends: numeric and symbolic evolution, measurement, comparison."""

import cmath
import math
import random
import time
import warnings
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

import fockbench.fock
from fockbench.algebra import (
    KetExpression,
    annihilation,
    basis_ket,
    creation,
    evolve_symbolic,
    joint_number_distribution,
    ket_inner,
    reduce_to_ket,
)
from fockbench.backends import (
    ComparisonReport,
    compare_backends,
    compare_reports,
    measure,
)
from fockbench.checks import random_circuit
from fockbench.cli import main
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
    cnot_expected_output,
    element_generator,
    generator_from_unitary,
    with_cutoff,
)
from fockbench.dsl import parse_circuit
from fockbench.fock import (
    FockVector,
    TruncationWarning,
    evolve_numeric,
    heisenberg_residual,
    inner_product,
    ket_to_fock,
    polynomial_matrix,
    vacuum_state,
)
from fockbench.modes import FERMION, ModeSystem
from test_fock import box_index_oracle, dense_creation_oracle


# ---------------------------------------------------------------------------
# Bridges
# ---------------------------------------------------------------------------


def test_polynomial_matrix_single_ladder():
    # against the per-state oracle: creation_op is built by the same kernel
    system = ModeSystem(2, 1, 4)
    for mode in range(system.total_modes):
        species = system.species(mode)
        want = dense_creation_oracle(system, mode)
        got = polynomial_matrix(creation(mode, species), system).toarray()
        assert np.abs(got - want).max() == 0.0
        got = polynomial_matrix(annihilation(mode, species), system).toarray()
        assert np.abs(got - want.conj().T).max() == 0.0


def test_polynomial_matrix_rejects_wrong_species():
    system = ModeSystem(1, 1, 4)
    with pytest.raises(ValueError, match="species"):
        polynomial_matrix(creation(1), system)  # mode 1 is fermionic


def test_polynomial_matrix_composes_left_to_right():
    system = ModeSystem(1, 0, 4)
    poly = creation(0) * annihilation(0)
    up = dense_creation_oracle(system, 0)
    got = polynomial_matrix(poly, system).toarray()
    assert np.abs(got - up @ up.conj().T).max() == 0.0


def test_polynomial_matrix_mixed_species_terms():
    # b2dag passes fermion 1 when it is occupied, adag meets the cutoff at 2,
    # and the first two terms fill the same cells
    system = ModeSystem(1, 2, 2)
    a0, b1, b2 = (dense_creation_oracle(system, m) for m in range(3))
    poly = (
        creation(0) * creation(2, FERMION) * 0.5
        + creation(2, FERMION) * creation(0) * (0.3 - 0.2j)
        + creation(0) * creation(0) * annihilation(1, FERMION) * 1j
    )
    want = 0.5 * a0 @ b2 + (0.3 - 0.2j) * b2 @ a0 + 1j * a0 @ a0 @ b1.conj().T
    got = polynomial_matrix(poly, system).toarray()
    assert np.abs(got - want).max() < 1e-15

    def at(occ):
        return box_index_oracle(system, occ)

    assert got[at((1, 1, 1)), at((0, 1, 0))] == pytest.approx(-(0.8 - 0.2j))
    assert got[at((1, 0, 1)), at((0, 0, 0))] == pytest.approx(0.8 - 0.2j)
    assert not got[:, at((2, 1, 0))].any()


def test_ket_to_fock_sqrt_weights():
    system = ModeSystem(1, 0, 4)
    ket = basis_ket(system, (3,))
    state = ket_to_fock(ket)
    assert state.amplitudes[(3,)] == pytest.approx(1.0)


def test_ket_to_fock_jordan_wigner_sign():
    system = ModeSystem(0, 2, 1)
    # canonical order b1dag b2dag gives +|1,1>; the reversed product is -|1,1>
    plus = reduce_to_ket(creation(0, FERMION) * creation(1, FERMION), system)
    minus = reduce_to_ket(creation(1, FERMION) * creation(0, FERMION), system)
    assert ket_to_fock(plus).amplitudes[(1, 1)] == pytest.approx(1.0)
    assert ket_to_fock(minus).amplitudes[(1, 1)] == pytest.approx(-1.0)


def test_ket_to_fock_matches_matrix_route():
    system = ModeSystem(2, 2, 4)
    poly = (
        creation(0) * creation(0) * creation(2, FERMION) * creation(3, FERMION) * 0.5
        + creation(1) * (0.1 - 0.4j)
    )
    ket = reduce_to_ket(poly, system)
    direct = ket_to_fock(ket)
    via_matrix = FockVector.from_dense(
        system,
        polynomial_matrix(ket.poly, system) @ vacuum_state(system).to_dense(),
    )
    assert direct.allclose(via_matrix, 1e-13)
    assert inner_product(direct, direct) == pytest.approx(
        ket_inner(ket, ket), abs=1e-12
    )


def test_ket_to_fock_drops_beyond_cutoff():
    system = ModeSystem(1, 0, 2)
    ket = KetExpression(system, basis_ket(ModeSystem(1, 0, 4), (3,)).poly)
    assert ket_to_fock(ket).amplitudes == {}


# ---------------------------------------------------------------------------
# Numeric evolution
# ---------------------------------------------------------------------------


def test_numeric_empty_circuit():
    system = ModeSystem(2, 0, 4)
    circuit = Circuit(system, (), basis_ket(system, (1, 1)), (0, 1))
    out = evolve_numeric(circuit)
    assert out.allclose(ket_to_fock(circuit.input_state), 1e-14)


def test_numeric_single_photon_amplitudes():
    circuit = build_experiment("single_photon_bs_sym")
    out = evolve_numeric(circuit)
    s = 1 / math.sqrt(2)
    assert out.amplitudes[(1, 0)] == pytest.approx(s, abs=1e-12)
    assert out.amplitudes[(0, 1)] == pytest.approx(1j * s, abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_numeric_memory_cap():
    circuit = build_experiment("cnot_dualrail")
    with pytest.raises(ValueError, match="cap"):
        evolve_numeric(circuit, max_basis_size=100)


def test_numeric_truncation_warning():
    system = ModeSystem(2, 0, 1)
    circuit = Circuit(
        system,
        (BeamSplitter(0, 1, SYMMETRIC),),
        basis_ket(system, (1, 1)),
        (0, 1),
    )
    with pytest.warns(TruncationWarning):
        evolve_numeric(circuit)


def test_numeric_truncation_warning_for_input_above_cutoff():
    system = ModeSystem(1, 0, 2)
    ket = KetExpression(system, basis_ket(ModeSystem(1, 0, 4), (3,)).poly)
    circuit = Circuit(system, (PhaseShifter(0, 0.3),), ket, (0,))
    with pytest.warns(TruncationWarning):
        assert evolve_numeric(circuit).amplitudes == {}


def test_numeric_truncation_warning_from_vertex():
    # the vertex would lift the photon above cutoff 1: the exact route moves
    # weight sin^2(theta sqrt 2) into |2,0,0>, the truncated one keeps |1,1,1>
    circuit = parse_circuit(
        "system bosons=1 fermions=2 cutoff=1\n"
        "input create 1 2 3\n"
        "vertex 1 2 3 theta=0.7\n"
    )
    with pytest.warns(TruncationWarning, match="cutoff"):
        report = compare_backends(circuit, 1e-9)
    assert not report.passed
    want = math.sin(0.7 * math.sqrt(2)) ** 2
    assert report.max_deviation == pytest.approx(want, abs=1e-9)


def test_numeric_no_truncation_warning_when_cutoff_suffices():
    # three photons at cutoff 3 through a mesh, and two photons at cutoff 1
    # with nothing to bunch them: the truncated evolution is exact
    system = ModeSystem(4, 0, 3)
    mesh = Circuit(
        system,
        (
            BeamSplitter(0, 1, SYMMETRIC),
            BeamSplitter(1, 2, ANGLE, 0.4),
            KerrMedium(0, 2, 0.7),
            BeamSplitter(2, 3, ANTISYMMETRIC),
        ),
        basis_ket(system, (1, 1, 1, 0)),
        (0, 1, 2, 3),
    )
    narrow = ModeSystem(2, 0, 1)
    idle = Circuit(narrow, (PhaseShifter(0, 0.2),), basis_ket(narrow, (1, 1)), (0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        evolve_numeric(mesh)
        evolve_numeric(idle)


def _full_box_reference(circuit: Circuit) -> FockVector:
    """Dense evolution on the whole cutoff box, one expm per element."""
    system = circuit.system
    vec = (
        polynomial_matrix(circuit.input_state.poly, system)
        @ vacuum_state(system).to_dense()
    )
    for element in circuit.elements:
        gen = polynomial_matrix(element_generator(element, system), system)
        vec = expm(gen.toarray()) @ vec
    return FockVector.from_dense(system, vec)


def _mixed_species_circuit() -> Circuit:
    # the fermionic hops 3<->5 pass over fermion 4, so Jordan-Wigner signs matter
    system = ModeSystem(2, 3, 3)
    c_boson = generator_from_unitary(unitary_group.rvs(2, random_state=5))
    c_fermion = generator_from_unitary(unitary_group.rvs(2, random_state=6))
    poly = (
        basis_ket(system, (2, 0, 1, 1, 0)).poly * (0.6 - 0.2j)
        + basis_ket(system, (1, 1, 0, 1, 1)).poly * 0.5
        + basis_ket(system, (0, 1, 1, 0, 1)).poly * 0.4j
    )
    return Circuit(
        system,
        (
            BeamSplitter(0, 1, ANGLE, 0.37),
            BeamSplitter(2, 4, SYMMETRIC),
            KerrMedium(0, 2, 1.1),
            PhaseShifter(3, -0.8),
            QuadraticCustom.from_matrix((2, 4), c_fermion),
            BeamSplitter(3, 4, ANGLE, 1.2),
            QuadraticCustom.from_matrix((0, 1), c_boson),
            KerrMedium(2, 3, 0.5),
        ),
        KetExpression(system, poly).normalized(),
        (0, 1, 2, 3, 4),
    )


def _vertex_circuit() -> Circuit:
    system = ModeSystem(2, 2, 3)
    poly = (
        basis_ket(system, (0, 1, 1, 1)).poly
        + basis_ket(system, (2, 0, 0, 0)).poly * (0.3 + 0.5j)
    )
    return Circuit(
        system,
        (
            AnnihilationVertex(0, 2, 3, 0.9),
            BeamSplitter(0, 1, ANTISYMMETRIC),
            PhaseShifter(1, 0.4),
            AnnihilationVertex(1, 2, 3, -1.3),
            KerrMedium(0, 1, 2.0),
        ),
        KetExpression(system, poly).normalized(),
        (0, 1, 2, 3),
    )


def _two_photon_splitter_at_cutoff_1() -> Circuit:
    system = ModeSystem(2, 0, 1)
    return Circuit(
        system, (BeamSplitter(0, 1, SYMMETRIC),), basis_ket(system, (1, 1)), (0, 1)
    )


def _three_mode_custom_two_photons() -> Circuit:
    # the custom element's blocks, keyed by mode 3, hold two photons
    # (6 states), one (3) or none (1); its diagonal terms are non-zero
    system = ModeSystem(4, 0, 2)
    c = generator_from_unitary(unitary_group.rvs(3, random_state=9))
    assert np.abs(np.diag(c)).min() > 1e-3
    poly = (
        basis_ket(system, (1, 1, 0, 0)).poly * (0.5 + 0.1j)
        + basis_ket(system, (0, 1, 0, 1)).poly * 0.7
        + basis_ket(system, (0, 0, 2, 0)).poly * -0.3j
    )
    return Circuit(
        system,
        (
            QuadraticCustom.from_matrix((0, 1, 2), c),
            BeamSplitter(2, 3, ANGLE, 0.7),
            QuadraticCustom.from_matrix((0, 1, 2), c.conj()),
        ),
        KetExpression(system, poly).normalized(),
        (0, 1, 2, 3),
    )


def _identical_blocks() -> Circuit:
    # one photon on modes 0 and 1 next to each occupation of modes 2 and 3:
    # the splitters' blocks are all the same 2x2 matrix
    system = ModeSystem(4, 0, 2)
    poly = (
        basis_ket(system, (1, 0, 0, 0)).poly * 0.6
        + basis_ket(system, (0, 1, 1, 0)).poly * 0.4j
        + basis_ket(system, (1, 0, 2, 0)).poly * (0.3 - 0.3j)
        + basis_ket(system, (0, 1, 1, 1)).poly * -0.5
    )
    return Circuit(
        system,
        (
            BeamSplitter(0, 1, ANGLE, 0.3),
            PhaseShifter(0, 0.8),
            BeamSplitter(0, 1, SYMMETRIC),
        ),
        KetExpression(system, poly).normalized(),
        (0, 1, 2, 3),
    )


def _random_bosonic(seed: int, cutoff: int):
    def build():
        rng = np.random.default_rng(seed)
        return random_circuit(rng, max_elements=8, cutoff=cutoff)

    return build


@pytest.mark.parametrize(
    "build",
    [
        *(
            pytest.param(_random_bosonic(seed, cutoff), id=f"random{seed}-cutoff{cutoff}")
            for seed, cutoff in ((1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 2), (7, 2))
        ),
        _mixed_species_circuit,
        _vertex_circuit,
        _two_photon_splitter_at_cutoff_1,
        _three_mode_custom_two_photons,
        _identical_blocks,
    ],
)
@pytest.mark.filterwarnings("ignore::fockbench.fock.TruncationWarning")
def test_numeric_matches_full_box_reference(build):
    circuit = build()
    reference = _full_box_reference(circuit)
    assert evolve_numeric(circuit).allclose(reference, 1e-12)


def test_identical_blocks_exponentiated_once(monkeypatch):
    exponentiated = []
    original = fockbench.fock.expm_blocks

    def recording(mats):
        exponentiated.append(mats.shape)
        return original(mats)

    # one representative per splitter, both in the circuit's one 2x2 stack
    monkeypatch.setattr(fockbench.fock, "expm_blocks", recording)
    evolve_numeric(_identical_blocks())
    assert exponentiated == [(2, 2, 2)]


def _recording_expm_blocks(monkeypatch) -> list:
    stacks = []
    original = fockbench.fock.expm_blocks

    def recording(mats):
        stacks.append(mats.copy())
        return original(mats)

    monkeypatch.setattr(fockbench.fock, "expm_blocks", recording)
    return stacks


def test_blocks_without_entries_are_left_out(monkeypatch):
    # each splitter of the mesh holds the states with no photon on its two
    # modes in 1x1 blocks without entries; none reaches the kernel
    fockbench.fock._compile_layout.cache_clear()
    stacks = _recording_expm_blocks(monkeypatch)
    state = evolve_numeric(_linear_circuits()["bs_phase_mesh"])
    assert len(state.amplitudes) == 56
    assert sorted(mats.shape[1] for mats in stacks) == [2, 3, 4]


def test_one_by_one_blocks_with_entries_evolve_to_their_phases(monkeypatch):
    # c n_0 on mode 0 of two modes: (1, 0) and (2, 1) are 1x1 blocks with the
    # entries c and 2c; (0, 2) is one without, and keeps its amplitude's bits
    system = ModeSystem(2, 0, 3)
    amplitudes = {(1, 0): 0.6, (2, 1): -0.48j, (0, 2): 0.64}
    poly = None
    for occ, amp in amplitudes.items():
        term = basis_ket(system, occ).poly * amp
        poly = term if poly is None else poly + term
    ket = KetExpression(system, poly)
    element = QuadraticCustom.from_matrix((0,), [[0.7j]])
    stacks = _recording_expm_blocks(monkeypatch)
    state = evolve_numeric(Circuit(system, (element,), ket, (0, 1)))
    assert [mats.shape for mats in stacks] == [(2, 1, 1)]
    assert stacks[0].ravel() == pytest.approx([0.7j, 1.4j], abs=1e-15)
    start = ket_to_fock(ket).amplitudes
    for occ, phase in [((1, 0), 0.7j), ((2, 1), 1.4j)]:
        assert state.amplitudes[occ] == pytest.approx(start[occ] * cmath.exp(phase), abs=1e-15)
    assert state.amplitudes[(0, 2)] == start[(0, 2)]


@pytest.mark.parametrize(
    "theta", [0.0, 5.0, 17.2, 20.0, 30.0, 40.0, 100.0, 1e3, 1e4, 1e5, 1e6]
)
def test_numeric_vertex_exact_at_any_angle(theta):
    # the 2x2 vertex block takes the closed form, whose cost does not grow
    # with theta, and its N1 is sin(theta)**2 at every angle below the refusal
    circuit = build_experiment("hardy_vertex", theta=theta)
    start = time.perf_counter()
    report = measure(evolve_numeric(circuit), circuit.measured_modes)
    assert time.perf_counter() - start < 1.0
    assert report.expectations[0] == pytest.approx(math.sin(theta) ** 2, abs=1e-9)
    assert compare_backends(circuit, 1e-9).passed


@pytest.mark.parametrize("theta", [1e4, 1e5, 1e6, 1.9e6])
def test_numeric_vertex_matches_the_40_digit_sine_at_large_angles(theta):
    # the 2x2 vertex block is exponentiated in closed form: its rotation is
    # as exact as the sine and cosine of the angle
    circuit = build_experiment("hardy_vertex", theta=theta)
    report = measure(evolve_numeric(circuit), circuit.measured_modes)
    with mpmath.workdps(40):
        exact = mpmath.sin(mpmath.mpf(theta)) ** 2
        assert abs(report.expectations[0] - exact) <= 1e-15


def test_numeric_vertex_rejects_nan_angle():
    # a nan angle used to come back as an empty state
    circuit = build_experiment("hardy_vertex", theta=math.nan)
    with pytest.raises(ValueError, match=r"element 1 \(AnnihilationVertex\)"):
        evolve_numeric(circuit)


@pytest.mark.parametrize("theta", [2.0000001e6, 3e6, 1e16])
def test_numeric_vertex_refuses_imprecise_angle(theta):
    # beyond 2e6 the dense exponential drifts towards the 1e-9 tolerance;
    # at 1e16 it is not even unitary
    circuit = build_experiment("hardy_vertex", theta=theta)
    message = r"element 1 \(AnnihilationVertex\) has a generator entry"
    with pytest.raises(ValueError, match=message):
        evolve_numeric(circuit)
    assert measure(evolve_symbolic(circuit), circuit.measured_modes).norm == 1.0


def test_numeric_refuses_imprecise_splitter():
    # the check reads the generator's entries, so it covers every element
    circuit = Circuit(
        ModeSystem(2, 0, 4),
        (BeamSplitter(0, 1, ANGLE, 3e6),),
        basis_ket(ModeSystem(2, 0, 4), (1, 0)),
        (0, 1),
    )
    message = r"element 1 \(BeamSplitter\) has a generator entry"
    with pytest.raises(ValueError, match=message):
        evolve_numeric(circuit)


@pytest.mark.parametrize(
    "elements, fault",
    [
        (
            ["bs 1 2 sym", "bs 1 2 angle=3e6", "kerr 1 2 strength=1e308"],
            "element 2 (BeamSplitter) has a generator entry",
        ),
        (
            ["bs 1 2 sym", "kerr 1 2 strength=1e308", "bs 1 2 angle=3e6"],
            "element 2 (KerrMedium) makes an amplitude non-finite",
        ),
    ],
)
def test_numeric_refusal_names_the_first_element_at_fault(elements, fault):
    # the elements are checked one by one only after a pass without checks
    # has failed; the checked pass stops at the first fault, in element order
    text = "system bosons=2 cutoff=4\ninput create 1 1 2 2\n" + "\n".join(elements)
    with pytest.raises(ValueError) as err:
        evolve_numeric(parse_circuit(text + "\nmeasure all\n"))
    assert str(err.value).startswith(fault)


def test_numeric_norm_preserved_through_elements():
    rng = np.random.default_rng(8)
    for _ in range(5):
        circuit = random_circuit(rng)
        assert evolve_numeric(circuit).norm() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Symbolic evolution
# ---------------------------------------------------------------------------


def test_symbolic_empty_circuit():
    system = ModeSystem(2, 0, 4)
    circuit = Circuit(system, (), basis_ket(system, (1, 1)), (0, 1))
    assert evolve_symbolic(circuit).allclose(circuit.input_state)


def test_symbolic_matches_numeric_exactly_single_photon():
    for name in ("single_photon_bs_sym", "single_photon_bs_asym"):
        circuit = build_experiment(name)
        sym = evolve_symbolic(circuit)
        num = evolve_numeric(circuit)
        assert ket_to_fock(sym).allclose(num, 1e-12)


def test_symbolic_cnot_truth_table():
    for control in (0, 1):
        for target in (0, 1):
            circuit = build_experiment("cnot_dualrail", control=control, target=target)
            out = evolve_symbolic(circuit)
            amps = out.occupation_amplitudes()
            want = cnot_expected_output(control, target)
            assert abs(amps[want]) == pytest.approx(1.0, abs=1e-12)


def test_symbolic_hardy_certain():
    circuit = build_experiment("hardy_vertex", theta=math.pi / 2)
    out = evolve_symbolic(circuit)
    amps = out.occupation_amplitudes()
    assert set(amps) == {(1, 0, 0)}


@pytest.mark.parametrize(
    "theta", [0.0, 0.5, math.pi / 2, 12.0, 17.2, 20.0, 30.0, 40.0, 100.0, 1e3, 1e6]
)
def test_symbolic_vertex_exact_at_any_angle(theta):
    circuit = build_experiment("hardy_vertex", theta=theta)
    report = measure(evolve_symbolic(circuit), circuit.measured_modes)
    assert report.distribution.get((1, 0, 0), 0.0) == pytest.approx(
        math.sin(theta) ** 2, abs=1e-12
    )


def _two_vertex_pairs(theta: float) -> Circuit:
    # pairs with m = 1 and m = 2, the second with both members present
    system = ModeSystem(1, 2, 6)
    poly = (
        basis_ket(system, (0, 1, 1)).poly
        + basis_ket(system, (1, 1, 1)).poly * 0.5j
        + basis_ket(system, (2, 0, 0)).poly * (0.3 - 0.2j)
    )
    return Circuit(
        system,
        (AnnihilationVertex(0, 1, 2, theta),),
        KetExpression(system, poly).normalized(),
        (0, 1, 2),
    )


@pytest.mark.parametrize("theta", [*np.linspace(0.0, 100.0, 21).tolist(), 17.2])
@pytest.mark.parametrize(
    "build",
    [lambda theta: build_experiment("hardy_vertex", theta=theta), _two_vertex_pairs],
    ids=["hardy", "two_pairs"],
)
def test_vertex_backends_agree_over_angle_range(build, theta):
    assert compare_backends(build(theta), tol=1e-9).passed


def test_symbolic_custom_quadratic_matches_numeric():
    u = unitary_group.rvs(2, random_state=11)
    element = QuadraticCustom.from_matrix((0, 1), generator_from_unitary(u))
    system = ModeSystem(2, 0, 6)
    circuit = Circuit(system, (element,), basis_ket(system, (2, 1)), (0, 1))
    assert ket_to_fock(evolve_symbolic(circuit)).allclose(evolve_numeric(circuit), 1e-10)


def test_symbolic_amplitudes_match_numeric_on_random_circuits():
    rng = np.random.default_rng(21)
    for _ in range(5):
        circuit = random_circuit(rng)
        sym = ket_to_fock(evolve_symbolic(circuit))
        num = evolve_numeric(circuit)
        assert sym.allclose(num, 1e-10)


def _count_calls(monkeypatch, names):
    # wrap each fockbench.algebra function so calls through the module count
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(fockbench.algebra, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fockbench.algebra, name, counted)
    return calls


def _linear_circuits():
    mesh = ["system bosons=6 cutoff=3", "input create 1 2 3"]
    for layer in range(6):
        for m in range(layer % 2, 5, 2):
            mesh.append(f"bs {m + 1} {m + 2} angle={0.3 + 0.11 * m + 0.07 * layer}")
            mesh.append(f"phase {m + 1} {0.5 - 0.13 * m}")
    mesh.append("measure all")
    u = unitary_group.rvs(3, random_state=5)
    fermionic = QuadraticCustom.from_matrix((1, 2, 3), generator_from_unitary(u))
    system = ModeSystem(1, 3, 2)
    custom = Circuit(
        system,
        (fermionic, PhaseShifter(2, 0.4), fermionic),
        basis_ket(system, (1, 1, 0, 1)),
        range(4),
    )
    return {"bs_phase_mesh": parse_circuit("\n".join(mesh) + "\n"), "fermionic_custom": custom}


@pytest.mark.parametrize("name", ["bs_phase_mesh", "fermionic_custom"])
def test_linear_elements_never_normal_order(monkeypatch, name):
    # substitution sorts each product straight into canonical order
    circuit = _linear_circuits()[name]
    calls = _count_calls(monkeypatch, ["normal_order", "reduce_to_ket", "substitute_modes"])
    ket = evolve_symbolic(circuit)
    assert calls == {
        "normal_order": 0,
        "reduce_to_ket": 0,
        "substitute_modes": sum(e.number_phases is None for e in circuit.elements),
    }
    assert ket_to_fock(ket).allclose(evolve_numeric(circuit), 1e-10)


def test_symbolic_measurement_is_one_expectation_pass(monkeypatch):
    circuit = _linear_circuits()["bs_phase_mesh"]
    ket = evolve_symbolic(circuit)
    calls = _count_calls(
        monkeypatch,
        ["number_expectations", "number_expectation", "joint_number_distribution"],
    )
    report = measure(ket, circuit.measured_modes)
    assert calls == {
        "number_expectations": 1,
        "number_expectation": 0,
        "joint_number_distribution": 1,
    }
    assert report.expectations == {
        m: fockbench.algebra.number_expectation(ket, m) for m in circuit.measured_modes
    }


# ---------------------------------------------------------------------------
# Numeric evolution against the per-element reference
# ---------------------------------------------------------------------------


def _reference_expm_multiply(entries, occupations, modes, vec):
    # every block filled and compared by its bytes, for one element
    rows, cols, values = entries
    n = len(occupations)
    outside = occupations[:, [m for m in range(occupations.shape[1]) if m not in modes]]
    order = np.lexsort((np.arange(n), *outside.T))
    first = np.ones(n, dtype=bool)
    first[1:] = (outside[order[1:]] != outside[order[:-1]]).any(axis=1)
    bounds = np.flatnonzero(np.append(first, True))
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    grouped = np.cumsum(first) - 1
    block = np.empty(n, dtype=np.int64)
    block[order] = grouped
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n) - starts[grouped]
    slot = np.empty(len(starts), dtype=np.int64)
    entry_sizes = sizes[block[rows]]
    out = np.empty_like(vec)
    for size in sorted(set(sizes.tolist())):
        (members,) = np.nonzero(sizes == size)
        slot[members] = np.arange(len(members))
        mats = np.zeros((len(members), size, size), dtype=complex)
        mine = entry_sizes == size
        np.add.at(
            mats,
            (slot[block[rows[mine]]], position[rows[mine]], position[cols[mine]]),
            values[mine],
        )
        firsts: dict[bytes, int] = {}
        same = [firsts.setdefault(mat.tobytes(), i) for i, mat in enumerate(mats)]
        distinct = list(firsts.values())
        mats[distinct] = fockbench.fock.expm_blocks(mats[distinct])
        states = order[starts[members][:, np.newaxis] + np.arange(size)]
        out[states] = np.matmul(mats[same], vec[states][..., np.newaxis])[..., 0]
    return out


def _reference_evolve_numeric(circuit: Circuit) -> FockVector:
    # one search entry per element term, one block partition per element
    system = circuit.system
    image_of = fockbench.fock._monomial_image
    amps, cut = fockbench.fock._ket_amplitudes(circuit.input_state)
    start = FockVector.from_amplitudes(system, amps).amplitudes
    generators = {
        k: list(element_generator(element, system).terms.items())
        for k, element in enumerate(circuit.elements)
        if element.number_phases is None
    }
    entries = {k: ([], [], []) for k in generators}
    states = list(start)
    index = {occ: i for i, occ in enumerate(states)}
    for col, occ in enumerate(states):
        for k, terms in generators.items():
            rows, cols, values = entries[k]
            for factors, coeff in terms:
                image = image_of(system, factors, occ)
                if image is fockbench.fock._CUT_AT_CUTOFF:
                    cut = True
                elif image is not None:
                    target, weight = image
                    row = index.setdefault(target, len(states))
                    if row == len(states):
                        states.append(target)
                    rows.append(row)
                    cols.append(col)
                    values.append(coeff * weight)
    if cut:
        warnings.warn("truncated", TruncationWarning)
    if not states:
        return FockVector(system, {})
    order = sorted(range(len(states)), key=states.__getitem__)
    rank = np.empty(len(states), dtype=np.int64)
    rank[order] = np.arange(len(states))
    occupations = [states[i] for i in order]
    occ_array = np.array(occupations, dtype=np.int64)
    vec = np.array([start.get(occ, 0.0) for occ in occupations], dtype=complex)
    for k, element in enumerate(circuit.elements):
        if element.number_phases is not None:
            for key, value in element.number_phases.items():
                angle = value
                for m in key:
                    angle = angle * occ_array[:, m]
                vec = vec * np.exp(1j * angle)
        else:
            rows, cols, values = entries[k]
            values = np.array(values, dtype=complex)
            vec = _reference_expm_multiply(
                (rank[rows], rank[cols], values), occ_array, element.modes, vec
            )
    (hits,) = np.nonzero(np.abs(vec) >= fockbench.fock.PRUNE_THRESHOLD)
    return FockVector(system, {occupations[i]: complex(vec[i]) for i in hits})


def _bits_and_truncation(evolve, circuit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = evolve(circuit)
    truncated = [w for w in caught if issubclass(w.category, TruncationWarning)]
    bits = {
        occ: (amp.real.hex(), amp.imag.hex()) for occ, amp in state.amplitudes.items()
    }
    return bits, len(truncated)


def _jordan_wigner_blocks() -> Circuit:
    # the hop 1<->3 passes over fermion 2: its two blocks differ only in sign
    system = ModeSystem(0, 3, 1)
    poly = basis_ket(system, (1, 0, 0)).poly * 0.6 + basis_ket(system, (1, 1, 0)).poly * 0.8j
    return Circuit(
        system,
        (
            BeamSplitter(0, 2, ANGLE, 0.4),
            PhaseShifter(1, 0.3),
            BeamSplitter(0, 2, SYMMETRIC),
        ),
        KetExpression(system, poly).normalized(),
        (0, 1, 2),
    )


def _three_term_diagonal() -> Circuit:
    # three diagonal terms meet in one cell, where their summation order shows
    system = ModeSystem(3, 0, 2)
    c = generator_from_unitary(unitary_group.rvs(3, random_state=3))
    element = QuadraticCustom.from_matrix((0, 1, 2), c)
    return Circuit(system, (element, element), basis_ket(system, (1, 1, 1)), (0, 1, 2))


_ANGLES = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))


@st.composite
def _numeric_circuits(draw):
    bosons = draw(st.integers(0, 3))
    fermions = draw(st.integers(0 if bosons else 1, 3))
    system = ModeSystem(bosons, fermions, draw(st.integers(1, 3)))
    modes = range(system.total_modes)
    groups = [g for g in (range(bosons), range(bosons, bosons + fermions)) if len(g) >= 2]
    kinds = ["phase"] + ["kerr"] * (len(modes) >= 2) + ["bs", "custom"] * bool(groups)
    kinds += ["vertex"] * (bosons >= 1 and fermions >= 2)
    elements = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "phase":
            elements.append(PhaseShifter(draw(st.sampled_from(modes)), draw(_ANGLES)))
        elif kind == "kerr":
            a, b = draw(st.permutations(modes))[:2]
            elements.append(KerrMedium(a, b, draw(_ANGLES)))
        elif kind == "vertex":
            e, p = draw(st.permutations(range(bosons, bosons + fermions)))[:2]
            photon = draw(st.integers(0, bosons - 1))
            elements.append(AnnihilationVertex(photon, e, p, draw(_ANGLES)))
        else:
            group = draw(st.sampled_from(groups))
            width = 2 if kind == "bs" else draw(st.integers(2, min(3, len(group))))
            chosen = draw(st.permutations(group))[:width]
            if kind == "bs":
                variant = draw(st.sampled_from([SYMMETRIC, ANTISYMMETRIC, ANGLE]))
                theta = draw(_ANGLES) if variant == ANGLE else None
                elements.append(BeamSplitter(*chosen, variant, theta))
            else:
                # anti-Hermitian with non-zero diagonal terms
                x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * width**2,
                                           max_size=2 * width**2)))
                x = (x[: width**2] + 1j * x[width**2 :]).reshape(width, width)
                elements.append(QuadraticCustom.from_matrix(chosen, x - x.conj().T))
    # occupations up to one above the cutoff, so some inputs are truncated
    wide = ModeSystem(bosons, fermions, system.cutoff + 1)
    occupation = st.tuples(
        *(st.integers(0, system.cutoff + 1) for _ in range(bosons)),
        *(st.integers(0, 1) for _ in range(fermions)),
    )
    poly = None
    for k, occ in enumerate(draw(st.lists(occupation, min_size=1, max_size=3, unique=True))):
        term = basis_ket(wide, occ).poly * complex(1.0 + 0.5 * k, 0.3 * k)
        poly = term if poly is None else poly + term
    ket = KetExpression(system, poly).normalized()
    return Circuit(system, tuple(elements), ket, tuple(modes))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_numeric_circuits())
@example(_mixed_species_circuit())
@example(_vertex_circuit())
@example(_identical_blocks())
@example(_three_mode_custom_two_photons())
@example(_two_photon_splitter_at_cutoff_1())
@example(_jordan_wigner_blocks())
@example(_three_term_diagonal())
@example(_two_vertex_pairs(0.0))
def test_numeric_matches_per_element_reference_bit_for_bit(circuit):
    # shared monomial images and block plans change no operand and no order
    assert _bits_and_truncation(evolve_numeric, circuit) == _bits_and_truncation(
        _reference_evolve_numeric, circuit
    )


@pytest.mark.filterwarnings("ignore::fockbench.fock.TruncationWarning")
def test_numeric_search_and_plans_are_shared_across_a_mesh(monkeypatch):
    # 15 splitters on 5 mode pairs: 10 distinct monomials on 56 states
    fockbench.fock._compile_layout.cache_clear()
    circuit = _linear_circuits()["bs_phase_mesh"]
    calls = {
        "_monomial_image": 0,
        "_reachable_generators": 0,
        "_block_plan": 0,
        "element_generator": 0,
    }
    for name in calls:
        original = getattr(fockbench.fock, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fockbench.fock, name, counted)
    state = evolve_numeric(circuit)
    assert len(state.amplitudes) == 56
    assert calls == {
        "_monomial_image": 56 * 10 + 1,
        "_reachable_generators": 1,
        "_block_plan": 5,
        "element_generator": 15,
    }
    # the same mesh with new angles reuses the search and the plans; the
    # one kernel call left reads the input ket, whose coefficients are not
    # part of the shape
    reangled = tuple(
        replace(e, theta=e.theta + 0.25) if isinstance(e, BeamSplitter) else e
        for e in circuit.elements
    )
    calls.update(dict.fromkeys(calls, 0))
    evolve_numeric(replace(circuit, elements=reangled))
    assert calls == {
        "_monomial_image": 1,
        "_reachable_generators": 0,
        "_block_plan": 0,
        "element_generator": 15,
    }
    # another cutoff or another input support is another shape
    system = circuit.system
    for other in (
        with_cutoff(circuit, 2),
        replace(circuit, input_state=basis_ket(system, (1, 1, 0, 1, 0, 0))),
    ):
        misses = fockbench.fock._compile_layout.cache_info().misses
        calls.update(dict.fromkeys(calls, 0))
        evolve_numeric(other)
        assert fockbench.fock._compile_layout.cache_info().misses == misses + 1
        assert calls["_block_plan"] == 5


def _random_mesh_text(rng: random.Random) -> str:
    lines = ["system bosons=6 cutoff=3", "input create 1 2 3"]
    for layer in range(6):
        for m in range(layer % 2, 5, 2):
            lines.append(f"bs {m + 1} {m + 2} angle={rng.uniform(0.0, 2 * math.pi)!r}")
            lines.append(f"phase {m + 1} {rng.uniform(0.0, 2 * math.pi)!r}")
    lines.append("measure all")
    return "\n".join(lines) + "\n"


def _layout_sweep(tmp_path) -> list:
    """(circuit, CLI arguments) pairs: 20 meshes of one shape, 20 vertex
    angles with one refused as too large and one non-finite, and a
    truncated splitter."""
    rng = random.Random("layout sweep")
    sweep = []
    for i in range(20):
        path = tmp_path / f"mesh{i}.fck"
        path.write_text(_random_mesh_text(rng))
        sweep.append((parse_circuit(path.read_text()), [str(path)]))
    for theta in [rng.uniform(-10.0, 10.0) for _ in range(18)] + [3e6, 1e308]:
        circuit = build_experiment("hardy_vertex", theta=theta)
        sweep.append((circuit, ["--experiment", f"hardy_vertex:{theta!r}"]))
    path = tmp_path / "cut.fck"
    path.write_text("system bosons=2 cutoff=1\ninput create 1 2\nbs 1 2 sym\nmeasure all\n")
    sweep.append((_two_photon_splitter_at_cutoff_1(), [str(path)]))
    return sweep


def _numeric_outcome(circuit):
    """Amplitude bits or the refusal, and the number of TruncationWarnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            state = evolve_numeric(circuit)
        except ValueError as exc:
            result = str(exc)
        else:
            result = {
                occ: (amp.real.hex(), amp.imag.hex()) for occ, amp in state.amplitudes.items()
            }
    return result, sum(issubclass(w.category, TruncationWarning) for w in caught)


def test_warm_layout_cache_matches_cold_bit_for_bit(tmp_path):
    layouts = fockbench.fock._compile_layout
    sweep = _layout_sweep(tmp_path)
    runner = CliRunner()

    def outcomes(cold: bool):
        for circuit, args in sweep:
            if cold:
                layouts.cache_clear()
            library = _numeric_outcome(circuit)
            if cold:
                layouts.cache_clear()
            result = runner.invoke(
                main, ["run", *args, "--backend", "numeric", "--format", "json"]
            )
            yield library, (result.exit_code, result.stdout, result.stderr)

    expected = list(outcomes(cold=True))
    list(outcomes(cold=False))  # warms the cache
    misses = layouts.cache_info().misses
    assert list(outcomes(cold=False)) == expected
    assert layouts.cache_info().misses == misses
    # the sweep meets both refusals and the truncation
    assert "above 2e+06" in expected[38][0][0]
    assert "non-finite" in expected[39][0][0]
    assert expected[40][0][1] == 1
    assert [cli[0] for _, cli in expected] == [0] * 38 + [1, 1, 0]
    assert expected[39][1][2].startswith("error: element 1 (AnnihilationVertex)")
    assert expected[40][1][2].startswith("warning: ")


def test_cached_layout_is_read_only_and_bounded(monkeypatch):
    layouts = fockbench.fock._compile_layout
    layouts.cache_clear()
    seen = []

    def recorded(*key):
        seen.append(layouts(*key))
        return seen[-1]

    monkeypatch.setattr(fockbench.fock, "_compile_layout", recorded)
    circuit = _linear_circuits()["bs_phase_mesh"]
    evolve_numeric(circuit)
    evolve_numeric(circuit)
    layout = seen[0]
    assert seen[1] is layout
    arrays = [layout.occ_array, layout.support_rows, layout.term, layout.weights]
    arrays += [a for _, take, cells, _ in layout.fills for a in (take, cells)]
    arrays += [a for _, groups in layout.steps for _, index, rows in groups for a in (index, rows)]
    assert len(arrays) > 4 + 2 * 15
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(FrozenInstanceError):
        layout.cut = True
    # one more distinct shape than the cache holds: the oldest goes
    photon = build_experiment("single_photon_bs_sym")
    for cutoff in range(1, fockbench.fock.LAYOUT_CACHE_SIZE + 2):
        evolve_numeric(with_cutoff(photon, cutoff))
    assert layouts.cache_info().currsize == fockbench.fock.LAYOUT_CACHE_SIZE


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def test_measure_vacuum():
    system = ModeSystem(2, 0, 3)
    report = measure(vacuum_state(system), (0, 1))
    assert report.expectations == {0: 0.0, 1: 0.0}
    assert report.distribution == {(0, 0): 1.0}
    assert report.norm == pytest.approx(1.0)


def test_measure_single_particle_superposition_both_routes():
    system = ModeSystem(2, 0, 3)
    s = 1 / math.sqrt(2)
    fock = FockVector.from_amplitudes(system, {(1, 0): s, (0, 1): s})
    ket = KetExpression(
        system, (basis_ket(system, (1, 0)).poly + basis_ket(system, (0, 1)).poly) * s
    )
    for report in (measure(fock, (0, 1)), measure(ket, (0, 1))):
        assert report.expectations[0] == pytest.approx(0.5, abs=1e-12)
        assert report.expectations[1] == pytest.approx(0.5, abs=1e-12)
        assert report.distribution[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert report.distribution[(0, 1)] == pytest.approx(0.5, abs=1e-12)


def test_measure_product_number_state():
    system = ModeSystem(2, 0, 3)
    ket = basis_ket(system, (1, 1))
    report = measure(ket, (0, 1))
    assert report.distribution == {(1, 1): pytest.approx(1.0)}


def test_measure_marginalizes_unmeasured_modes():
    system = ModeSystem(2, 0, 3)
    s = 1 / math.sqrt(2)
    fock = FockVector.from_amplitudes(system, {(1, 0): s, (1, 1): s})
    report = measure(fock, (0,))
    assert report.distribution == {(1,): pytest.approx(1.0)}
    ket = KetExpression(
        system, (basis_ket(system, (1, 0)).poly + basis_ket(system, (1, 1)).poly) * s
    )
    report = measure(ket, (0,))
    assert report.distribution[(1,)] == pytest.approx(1.0, abs=1e-12)


def test_measure_rejects_unnormalized():
    system = ModeSystem(1, 0, 3)
    with pytest.raises(ValueError, match="normalized"):
        measure(FockVector.from_amplitudes(system, {(1,): 0.5}), (0,))
    with pytest.raises(ValueError, match="normalized"):
        measure(KetExpression(system, basis_ket(system, (1,)).poly * 0.5), (0,))


def test_measure_rejects_nan_norm():
    system = ModeSystem(1, 0, 3)
    with pytest.raises(ValueError, match="norm nan"):
        measure(FockVector(system, {(1,): complex(math.nan)}), (0,))
    with pytest.raises(ValueError, match="norm nan"):
        measure(KetExpression(system, basis_ket(system, (1,)).poly * math.nan), (0,))


_DETECTOR_SYSTEM = ModeSystem(2, 0, 3)
_DETECTOR_KET = basis_ket(_DETECTOR_SYSTEM, (1, 0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: measure(object(), (0,)),
            TypeError,
            "measure expects a FockVector or a KetExpression",
            id="measure-not-a-state",
        ),
        pytest.param(
            lambda: measure(_DETECTOR_KET, ()),
            ValueError,
            "at least one mode must be measured",
            id="measure-empty",
        ),
        pytest.param(
            lambda: measure(ket_to_fock(_DETECTOR_KET), (0, 2)),
            IndexError,
            "mode 2 out of range for a system of 2 modes",
            id="measure-out-of-range",
        ),
        pytest.param(
            lambda: joint_number_distribution(_DETECTOR_KET, ()),
            ValueError,
            "at least one mode must be measured",
            id="joint-empty",
        ),
        pytest.param(
            lambda: joint_number_distribution(_DETECTOR_KET, (2, 0)),
            IndexError,
            "mode 2 out of range for a system of 2 modes",
            id="joint-out-of-range",
        ),
        pytest.param(
            lambda: Circuit(_DETECTOR_SYSTEM, (), _DETECTOR_KET, ()),
            ValueError,
            "at least one mode must be measured",
            id="circuit-empty",
        ),
        pytest.param(
            lambda: Circuit(_DETECTOR_SYSTEM, (), _DETECTOR_KET, (1, 2, 2)),
            IndexError,
            "mode 2 out of range for a system of 2 modes",
            id="circuit-out-of-range",
        ),
    ],
)
def test_detector_list_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_measure_prints_norm_to_twelve_digits():
    # 1 - 2.2e-8 is outside the 1e-8 tolerance and must not print as 1
    system = ModeSystem(1, 0, 3)
    state = FockVector(system, {(1,): complex(1 - 2.2e-8)})
    with pytest.raises(ValueError, match=r"\(norm 0\.999999978\)"):
        measure(state, (0,))


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    circuit = random_circuit(rng)
    for state in (evolve_numeric(circuit), evolve_symbolic(circuit)):
        report = measure(state, circuit.measured_modes)
        assert sum(report.distribution.values()) == pytest.approx(1.0, abs=1e-10)
        for mode in circuit.measured_modes:
            via_dist = sum(
                p * occ[circuit.measured_modes.index(mode)]
                for occ, p in report.distribution.items()
            )
            assert report.expectations[mode] == pytest.approx(via_dist, abs=1e-10)


# ---------------------------------------------------------------------------
# Backend comparison
# ---------------------------------------------------------------------------


def test_compare_single_photon():
    report = compare_backends(build_experiment("single_photon_bs_sym"), 1e-10)
    assert report.passed
    assert report.max_deviation < 1e-12


def test_compare_all_cnot_inputs():
    for control in (0, 1):
        for target in (0, 1):
            circuit = build_experiment("cnot_dualrail", control=control, target=target)
            report = compare_backends(circuit, 1e-10)
            assert report.passed, report.deviations


def test_compare_reports_all_quantities():
    circuit = build_experiment("single_photon_bs_sym")
    report = compare_backends(circuit, 1e-9)
    assert set(report.deviations) >= {"N1", "N2", "P(1,0)", "P(0,1)"}
    assert report.max_deviation == max(report.deviations.values())


def test_compare_detects_truncation_mismatch():
    # cutoff 1 cannot hold the bunched two-photon component after the beam
    # splitter, so the numeric route diverges from the exact algebraic one
    system = ModeSystem(2, 0, 1)
    circuit = Circuit(
        system,
        (BeamSplitter(0, 1, SYMMETRIC),),
        basis_ket(system, (1, 1)),
        (0, 1),
    )
    with pytest.warns(TruncationWarning):
        report = compare_backends(circuit, 1e-9)
    assert not report.passed
    assert report.max_deviation > 0.1


def test_compare_ten_bunched_photons_through_a_three_mode_custom_element():
    # the symbolic route collects after each creator: C(12, 2) = 66 words
    # instead of the 3**10 products of the expanded power
    system = ModeSystem(3, 0, 10)
    c = generator_from_unitary(unitary_group.rvs(3, random_state=5))
    element = QuadraticCustom.from_matrix((0, 1, 2), c)
    circuit = Circuit(system, (element,), basis_ket(system, (5, 3, 2)), (0, 1, 2))
    report = compare_backends(circuit, 1e-9)
    assert report.max_deviation <= 1e-12
    assert len(report.deviations) == 3 + 66


def test_compare_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        compare_backends(build_experiment("single_photon_bs_sym"), 0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_compare_reports_rejects_tolerance_that_is_not_finite_and_positive(tol):
    circuit = build_experiment("single_photon_bs_sym")
    report = measure(evolve_symbolic(circuit), circuit.measured_modes)
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        compare_reports(report, report, tol)
    with pytest.raises(ValueError, match="tolerance"):
        compare_backends(circuit, tol)


def test_compare_reports_takes_measured_reports():
    circuit = build_experiment("single_photon_bs_asym")
    numeric = measure(evolve_numeric(circuit), circuit.measured_modes)
    symbolic = measure(evolve_symbolic(circuit), circuit.measured_modes)
    report = compare_reports(numeric, symbolic, 1e-10)
    assert report == compare_backends(circuit, 1e-10)
    assert report.passed
    with pytest.raises(ValueError, match="tolerance"):
        compare_reports(numeric, symbolic, 0.0)


# ---------------------------------------------------------------------------
# Heisenberg residual and unitarity
# ---------------------------------------------------------------------------


def test_heisenberg_identity_element():
    system = ModeSystem(2, 0, 6)
    element = QuadraticCustom.from_matrix((0, 1), np.zeros((2, 2)))
    assert heisenberg_residual(element, system) < 1e-13


@pytest.mark.parametrize("variant", [SYMMETRIC, ANTISYMMETRIC])
def test_heisenberg_beam_splitters(variant):
    system = ModeSystem(2, 0, 6)
    assert heisenberg_residual(BeamSplitter(0, 1, variant), system) < 1e-10


def test_heisenberg_phase_shifter():
    system = ModeSystem(1, 0, 6)
    assert heisenberg_residual(PhaseShifter(0, 0.83), system) < 1e-10


def test_heisenberg_fermionic_splitter_exact_everywhere():
    system = ModeSystem(0, 2, 1)
    assert heisenberg_residual(BeamSplitter(0, 1, ANTISYMMETRIC), system) < 1e-12


def test_heisenberg_rejects_nonlinear():
    system = ModeSystem(2, 0, 4)
    with pytest.raises(ValueError):
        heisenberg_residual(KerrMedium(0, 1), system)


def test_numeric_evolution_unitary_on_safe_subspace():
    from scipy.linalg import expm

    from fockbench.circuit import element_generator

    system = ModeSystem(2, 0, 6)
    gen = polynomial_matrix(
        element_generator(BeamSplitter(0, 1, SYMMETRIC), system), system
    )
    s = expm(gen.toarray())
    assert np.abs(s.conj().T @ s - np.eye(system.basis_size)).max() < 1e-10


# ---------------------------------------------------------------------------
# Conservation and truncation properties
# ---------------------------------------------------------------------------


def test_total_photon_number_conserved_element_by_element():
    rng = np.random.default_rng(2)
    circuit = random_circuit(rng, max_elements=6)
    modes = tuple(range(circuit.system.total_modes))
    expected = sum(measure(circuit.input_state, modes).expectations.values())
    partial = circuit.input_state
    running = []
    for element in circuit.elements:
        sub = Circuit(circuit.system, (element,), partial.normalized(), modes)
        partial = evolve_symbolic(sub)
        running.append(sum(measure(partial, modes).expectations.values()))
    for total in running:
        assert total == pytest.approx(expected, abs=1e-10)


def test_hardy_sector_bookkeeping():
    # the vertex maps the (0,1,1) sector into span{(0,1,1),(1,0,0)} with
    # weights cos^2, sin^2
    theta = 0.53
    circuit = build_experiment("hardy_vertex", theta=theta)
    for state in (evolve_numeric(circuit), evolve_symbolic(circuit)):
        report = measure(state, (0, 1, 2))
        assert set(report.distribution) <= {(0, 1, 1), (1, 0, 0)}
        assert report.distribution[(0, 1, 1)] == pytest.approx(
            math.cos(theta) ** 2, abs=1e-10
        )
        assert report.distribution[(1, 0, 0)] == pytest.approx(
            math.sin(theta) ** 2, abs=1e-10
        )


def test_doubling_cutoff_changes_nothing_when_conserving():
    rng = np.random.default_rng(4)
    circuit = random_circuit(rng)
    base = measure(evolve_numeric(circuit), circuit.measured_modes)
    wide = with_cutoff(circuit, 2 * circuit.system.cutoff)
    again = measure(evolve_numeric(wide), wide.measured_modes)
    keys = set(base.distribution) | set(again.distribution)
    for key in keys:
        assert base.distribution.get(key, 0.0) == pytest.approx(
            again.distribution.get(key, 0.0), abs=1e-12
        )


def test_comparison_report_verdict_logic():
    report = ComparisonReport({"N1": 1e-3}, 1e-3, 1e-9, "fail")
    assert not report.passed
