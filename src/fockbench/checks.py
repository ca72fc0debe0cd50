"""Runtime invariant suite and the randomized circuit generator.

Shared between the ``fockbench check`` subcommand and the test suite so
both exercise identical machinery.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from . import algebra
from .algebra import (
    LadderPolynomial,
    LadderSymbol,
    basis_ket,
    creation,
    ket_from_creations,
)
from .backends import DEFAULT_TOLERANCE, compare_backends, measure
from .circuit import (
    ANGLE,
    ANTISYMMETRIC,
    BeamSplitter,
    Circuit,
    KerrMedium,
    PhaseShifter,
    SYMMETRIC,
    build_experiment,
    with_cutoff,
)
from .fock import (
    annihilation_op,
    creation_op,
    evolve_numeric,
    heisenberg_residual,
    ket_to_fock,
    mode_bipartition_entropy,
    number_op,
    polynomial_matrix,
)
from .modes import BOSON, FERMION, ModeSystem


#: Most modes and most photons per input branch of :func:`random_circuit`.
RANDOM_MAX_MODES = 4
RANDOM_MAX_PHOTONS = 3
#: Most ladder factors per monomial of :func:`random_polynomial`.
RANDOM_MAX_FACTORS = 6


def random_occupation(rng, n_modes: int, max_photons: int) -> tuple[int, ...]:
    total = int(rng.integers(0, max_photons + 1))
    occ = [0] * n_modes
    for _ in range(total):
        occ[int(rng.integers(0, n_modes))] += 1
    return tuple(occ)


def random_circuit(rng, *, max_elements: int = 6, cutoff: int = 6) -> Circuit:
    """Random bosonic circuit built from beam splitters, phases, and Kerr
    media on 2 to :data:`RANDOM_MAX_MODES` modes."""
    n_modes = int(rng.integers(2, RANDOM_MAX_MODES + 1))
    system = ModeSystem(n_modes, 0, cutoff)

    branches = int(rng.integers(1, 3))
    poly = LadderPolynomial.zero()
    for _ in range(branches):
        occ = random_occupation(rng, n_modes, RANDOM_MAX_PHOTONS)
        amp = complex(rng.normal(), rng.normal())
        modes = [mode for mode, count in enumerate(occ) for _ in range(count)]
        poly = poly + algebra.creation_product(system, modes, amp)
    ket = algebra.reduce_to_ket(poly, system)
    if ket.norm() == 0.0:
        ket = algebra.vacuum_ket(system)
    ket = ket.normalized()

    elements = []
    for _ in range(int(rng.integers(1, max_elements + 1))):
        kind = rng.choice(["bs", "phase", "kerr"])
        if kind == "phase":
            elements.append(
                PhaseShifter(int(rng.integers(0, n_modes)), float(rng.uniform(-math.pi, math.pi)))
            )
            continue
        m1, m2 = rng.choice(n_modes, size=2, replace=False)
        if kind == "kerr":
            elements.append(
                KerrMedium(int(m1), int(m2), float(rng.uniform(-math.pi, math.pi)))
            )
        else:
            variant = rng.choice([SYMMETRIC, ANTISYMMETRIC, ANGLE])
            if variant == ANGLE:
                elements.append(
                    BeamSplitter(int(m1), int(m2), ANGLE, float(rng.uniform(-math.pi, math.pi)))
                )
            else:
                elements.append(BeamSplitter(int(m1), int(m2), str(variant)))
    return Circuit(system, tuple(elements), ket, tuple(range(n_modes)))


def random_fermion_circuit(rng) -> Circuit:
    """Random fermionic circuit: angle beam splitters and phases.

    4 to 6 fermionic modes hold 2 to M-1 fermions, and each splitter acts
    on a random pair of modes, adjacent or not, so that hops pass occupied
    modes and the Jordan-Wigner signs decide the interference.
    """
    n_modes = int(rng.integers(4, 7))
    system = ModeSystem(0, n_modes)
    occupied = rng.choice(n_modes, size=int(rng.integers(2, n_modes)), replace=False)
    ket = ket_from_creations(system, sorted(int(m) for m in occupied))
    elements = []
    for _ in range(int(rng.integers(2, 3 * n_modes))):
        angle = float(rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.3:
            elements.append(PhaseShifter(int(rng.integers(0, n_modes)), angle))
        else:
            m1, m2 = rng.choice(n_modes, size=2, replace=False)
            elements.append(BeamSplitter(int(m1), int(m2), ANGLE, angle))
    return Circuit(system, tuple(elements), ket, tuple(range(n_modes)))


def random_polynomial(rng, system: ModeSystem) -> LadderPolynomial:
    """Random ladder polynomial over a system's modes (both species)."""
    poly = LadderPolynomial.zero()
    for _ in range(int(rng.integers(1, 4))):
        n_factors = int(rng.integers(0, RANDOM_MAX_FACTORS + 1))
        factors = tuple(
            LadderSymbol(
                (mode := int(rng.integers(0, system.total_modes))),
                system.species(mode),
                bool(rng.integers(0, 2)),
            )
            for _ in range(n_factors)
        )
        coeff = complex(rng.normal(), rng.normal())
        poly = poly + LadderPolynomial.monomial(coeff, factors)
    return poly


def builtin_equivalence_cases() -> list[tuple[str, Circuit]]:
    """Every built-in experiment, each parameter choice spelled out."""
    cases = [
        ("single_photon_bs_sym", build_experiment("single_photon_bs_sym")),
        ("single_photon_bs_asym", build_experiment("single_photon_bs_asym")),
    ]
    for control in (0, 1):
        for target in (0, 1):
            cases.append(
                (
                    f"cnot_dualrail({control},{target})",
                    build_experiment("cnot_dualrail", control=control, target=target),
                )
            )
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        cases.append(
            (f"hardy_vertex({theta:.4f})", build_experiment("hardy_vertex", theta=theta))
        )
    return cases


# ---------------------------------------------------------------------------
# Individual checks; each returns (worst deviation, bound)
# ---------------------------------------------------------------------------


def check_ccr_below_cutoff() -> tuple[float, float]:
    system = ModeSystem(2, 0, 4)
    safe = (np.array(list(system.occupations())) <= system.cutoff - 1).all(axis=1)
    worst = 0.0
    for i in range(2):
        for j in range(2):
            comm = (
                annihilation_op(system, i) @ creation_op(system, j)
                - creation_op(system, j) @ annihilation_op(system, i)
            ).toarray()
            expected = np.eye(system.basis_size) if i == j else 0.0
            diff = np.abs(comm - expected)[:, safe].max()
            worst = max(worst, float(diff))
    return worst, 1e-12


def check_car_exact() -> tuple[float, float]:
    system = ModeSystem(1, 2, 3)
    worst = 0.0
    ferm = range(system.boson_modes, system.total_modes)
    for i in ferm:
        for j in ferm:
            anti = (
                annihilation_op(system, i) @ creation_op(system, j)
                + creation_op(system, j) @ annihilation_op(system, i)
            )
            if i == j:
                anti = anti - sparse.identity(system.basis_size, format="csr")
            worst = max(worst, abs(anti).max())
            anti2 = (
                annihilation_op(system, i) @ annihilation_op(system, j)
                + annihilation_op(system, j) @ annihilation_op(system, i)
            )
            worst = max(worst, abs(anti2).max())
    return worst, 0.0


def check_number_identity() -> tuple[float, float]:
    # sqrt(n)*sqrt(n) rounds to n only within a couple of ulp, so the
    # product route matches the diagonal route entrywise, not bitwise.
    system = ModeSystem(2, 1, 4)
    worst = 0.0
    for m in range(system.total_modes):
        diff = number_op(system, m) - creation_op(system, m) @ annihilation_op(system, m)
        worst = max(worst, abs(diff).max())
    return worst, 1e-12


def check_heisenberg() -> tuple[float, float]:
    system = ModeSystem(2, 0, 6)
    worst = 0.0
    for variant in (SYMMETRIC, ANTISYMMETRIC):
        worst = max(worst, heisenberg_residual(BeamSplitter(0, 1, variant), system))
    return worst, 1e-10


def check_commutator_identity() -> tuple[float, float]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for species in (BOSON, FERMION):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            k = algebra.quadratic_generator(c, range(n), lambda m: species)
            j_mode = int(rng.integers(0, n))
            got = algebra.commutator(k, creation(j_mode, species))
            expected = LadderPolynomial.zero()
            for i in range(n):
                expected = expected + complex(c[i, j_mode]) * creation(i, species)
            diff = got - algebra.normal_order(expected)
            worst = max(worst, diff.max_abs_coefficient())
    return worst, 1e-12


def check_normal_order_oracle() -> tuple[float, float]:
    rng = np.random.default_rng(11)
    systems = [ModeSystem(3, 0, 8), ModeSystem(2, 1, 8), ModeSystem(1, 2, 8)]
    worst = 0.0
    for trial in range(25):
        system = systems[trial % len(systems)]
        poly = random_polynomial(rng, system)
        ordered = algebra.normal_order(poly)
        m_raw = polynomial_matrix(poly, system).toarray()
        m_ord = polynomial_matrix(ordered, system).toarray()
        bosons = np.array(list(system.occupations()))[:, : system.boson_modes]
        safe = (bosons <= system.cutoff - 6).all(axis=1)
        worst = max(worst, float(np.abs((m_raw - m_ord)[:, safe]).max()))
        vac = abs(algebra.vacuum_expectation(poly) - m_raw[0, 0])
        worst = max(worst, float(vac))
    return worst, 1e-12


def check_backend_equivalence() -> tuple[float, float]:
    worst = 0.0
    for _, circuit in builtin_equivalence_cases():
        report = compare_backends(circuit)
        worst = max(worst, report.max_deviation)
    return worst, DEFAULT_TOLERANCE


def check_random_equivalence() -> tuple[float, float]:
    rng = np.random.default_rng(5)
    # 18 of the 60 fermionic draws disagree between the routes when the
    # kernel lacks the Jordan-Wigner sign.
    circuits = [random_circuit(rng) for _ in range(10)]
    circuits += [random_fermion_circuit(rng) for _ in range(60)]
    worst = 0.0
    for circuit in circuits:
        report = compare_backends(circuit)
        worst = max(worst, report.max_deviation)
    return worst, DEFAULT_TOLERANCE


def check_number_conservation() -> tuple[float, float]:
    rng = np.random.default_rng(3)
    # fermionic draws follow the bosonic ones, so those stay as they were
    circuits = [random_circuit(rng) for _ in range(5)]
    circuits += [random_fermion_circuit(rng) for _ in range(20)]
    worst = 0.0
    for circuit in circuits:
        modes = tuple(range(circuit.system.total_modes))
        start = sum(measure(circuit.input_state, modes).expectations.values())
        for state in (evolve_numeric(circuit), algebra.evolve_symbolic(circuit)):
            end = sum(measure(state, modes).expectations.values())
            worst = max(worst, abs(end - start))
    return worst, 1e-10


def check_entropy() -> tuple[float, float]:
    system = ModeSystem(2, 0, 3)
    bell_poly = (
        basis_ket(system, (1, 0)).poly + basis_ket(system, (0, 1)).poly
    ) * (1 / math.sqrt(2))
    bell = ket_to_fock(algebra.KetExpression(system, bell_poly))
    product = ket_to_fock(basis_ket(system, (1, 0)))
    worst = abs(mode_bipartition_entropy(bell, [0]) - math.log(2))
    worst = max(worst, mode_bipartition_entropy(product, [0]))
    return worst, 1e-12


def check_cutoff_robustness() -> tuple[float, float]:
    worst = 0.0
    for control in (0, 1):
        circuit = build_experiment("cnot_dualrail", control=control, target=control)
        base = measure(evolve_numeric(circuit), circuit.measured_modes)
        wide = with_cutoff(circuit, 2 * circuit.system.cutoff)
        again = measure(evolve_numeric(wide), wide.measured_modes)
        patterns = set(base.distribution) | set(again.distribution)
        for p in patterns:
            worst = max(
                worst,
                abs(base.distribution.get(p, 0.0) - again.distribution.get(p, 0.0)),
            )
    return worst, 1e-12


ALL_CHECKS = [
    ("ccr below cutoff", check_ccr_below_cutoff),
    ("car exact", check_car_exact),
    ("number = creation o annihilation", check_number_identity),
    ("heisenberg residual", check_heisenberg),
    ("commutator identity", check_commutator_identity),
    ("normal-order matrix oracle", check_normal_order_oracle),
    ("built-in backend equivalence", check_backend_equivalence),
    ("randomized backend equivalence", check_random_equivalence),
    ("number conservation", check_number_conservation),
    ("mode entanglement entropy", check_entropy),
    ("cutoff robustness", check_cutoff_robustness),
]


def run_all_checks() -> list[tuple[str, bool, str]]:
    """Run every invariant check; returns (name, passed, detail) rows.

    The detail is ``worst <deviation> (bound <bound>)``.  A check that
    raises fails with detail ``error: <message>``, and the remaining checks
    still run.
    """
    results = []
    for name, fn in ALL_CHECKS:
        try:
            worst, bound = fn()
        except Exception as exc:
            results.append((name, False, f"error: {exc}"))
        else:
            detail = f"worst {worst:.3e} (bound {bound:.0e})"
            results.append((name, worst <= bound, detail))
    return results
