"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them
all); the randomized suites share one seeded stream so the cutoff-doubling
criterion reruns exactly the same circuits.
"""

import math
import time

import numpy as np
from click.testing import CliRunner
from scipy.stats import unitary_group

from fockbench.algebra import (
    LadderPolynomial,
    annihilation,
    creation,
    normal_order,
    vacuum_expectation,
    commutator,
    evolve_symbolic,
)
from fockbench.backends import compare_backends, measure
from fockbench.checks import builtin_equivalence_cases, random_circuit, random_polynomial
from fockbench.circuit import (
    BeamSplitter,
    QuadraticCustom,
    build_experiment,
    cnot_expected_output,
    generator_from_unitary,
    with_cutoff,
)
from fockbench.cli import main as cli_main
from fockbench.dsl import parse_circuit, render_circuit
from fockbench.fock import (
    FockVector,
    evolve_numeric,
    heisenberg_residual,
    mode_bipartition_entropy,
    polynomial_matrix,
)
from fockbench.modes import BOSON, FERMION, ModeSystem

from test_dsl import MALFORMED, circuits_equivalent


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# Shared randomized suite (criteria 6 and 8 must see identical circuits)
# ---------------------------------------------------------------------------

RANDOM_SEED = 20240901
N_RANDOM_CIRCUITS = 100

_random_cache = {}


def random_suite():
    if "circuits" not in _random_cache:
        rng = np.random.default_rng(RANDOM_SEED)
        _random_cache["circuits"] = [
            random_circuit(rng, max_elements=6, cutoff=6)
            for _ in range(N_RANDOM_CIRCUITS)
        ]
    return _random_cache["circuits"]


# ---------------------------------------------------------------------------
# 1. single-photon beam splitter
# ---------------------------------------------------------------------------


def test_criterion_1_single_photon_beam_splitter():
    start = time.perf_counter()
    worst = 0.0
    for name in ("single_photon_bs_sym", "single_photon_bs_asym"):
        circuit = build_experiment(name, cutoff=6)
        for state in (evolve_numeric(circuit), evolve_symbolic(circuit)):
            rep = measure(state, circuit.measured_modes)
            for pattern in ((1, 0), (0, 1)):
                worst = max(worst, abs(rep.distribution.get(pattern, 0.0) - 0.5))
            for mode in (0, 1):
                worst = max(worst, abs(rep.expectations[mode] - 0.5))
    elapsed = time.perf_counter() - start
    report(
        1,
        "single-photon 50/50 at both detectors, both variants, both backends",
        worst < 1e-12 and elapsed < 0.1,
        f"deviation {worst:.2e}, runtime {elapsed * 1000:.1f} ms",
    )


# ---------------------------------------------------------------------------
# 2. Heisenberg relation
# ---------------------------------------------------------------------------


def test_criterion_2_heisenberg_relation():
    system = ModeSystem(2, 0, 6)
    worst = 0.0
    for variant in ("sym", "asym"):
        worst = max(worst, heisenberg_residual(BeamSplitter(0, 1, variant), system))
    rng_seed = 1234
    for k in range(20):
        u = unitary_group.rvs(2, random_state=rng_seed + k)
        element = QuadraticCustom.from_matrix((0, 1), generator_from_unitary(u))
        worst = max(worst, heisenberg_residual(element, system))
    report(
        2,
        "Sdag a S = B a residual for B1, B2, and 20 random 2-mode unitaries",
        worst < 1e-10,
        f"worst residual {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. commutator identity
# ---------------------------------------------------------------------------


def test_criterion_3_commutator_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for species in (BOSON, FERMION):
            k = LadderPolynomial.zero()
            for i in range(n):
                for j in range(n):
                    k = k + complex(c[i, j]) * (
                        creation(i, species) * annihilation(j, species)
                    )
            for j in range(n):
                got = commutator(k, creation(j, species))
                want = LadderPolynomial.zero()
                for i in range(n):
                    want = want + complex(c[i, j]) * creation(i, species)
                diff = got - normal_order(want)
                worst = max(worst, diff.max_abs_coefficient())
    report(
        3,
        "[K, adag_j] = sum_i c_ij adag_i for 50 random matrices, both species",
        worst < 1e-12,
        f"worst coefficient error {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. Hardy vertex
# ---------------------------------------------------------------------------


def test_criterion_4_hardy_vertex():
    worst = 0.0
    circuit = build_experiment("hardy_vertex", theta=math.pi / 2)
    for state in (evolve_numeric(circuit), evolve_symbolic(circuit)):
        rep = measure(state, circuit.measured_modes)
        worst = max(worst, abs(rep.distribution.get((1, 0, 0), 0.0) - 1.0))
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        circuit = build_experiment("hardy_vertex", theta=theta)
        for state in (evolve_numeric(circuit), evolve_symbolic(circuit)):
            rep = measure(state, circuit.measured_modes)
            worst = max(
                worst,
                abs(rep.distribution.get((1, 0, 0), 0.0) - math.sin(theta) ** 2),
            )
    report(
        4,
        "annihilation certain at pi/2 and probability sin^2(theta) otherwise",
        worst < 1e-10,
        f"worst probability error {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. CNOT truth table
# ---------------------------------------------------------------------------


def test_criterion_5_cnot_truth_table():
    worst = 0.0
    for control in (0, 1):
        for target in (0, 1):
            circuit = build_experiment("cnot_dualrail", control=control, target=target)
            want = cnot_expected_output(control, target)
            for state in (evolve_numeric(circuit), evolve_symbolic(circuit)):
                rep = measure(state, circuit.measured_modes)
                fidelity = rep.distribution.get(want, 0.0)
                worst = max(worst, 1.0 - fidelity)
    report(
        5,
        "all four dual-rail CNOT inputs map to the right outputs, both backends",
        worst < 1e-10,
        f"worst infidelity {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. representation equivalence on the randomized suite
# ---------------------------------------------------------------------------


def test_criterion_6_randomized_equivalence():
    start = time.perf_counter()
    worst = 0.0
    all_passed = True
    numeric_reports = []
    for circuit in random_suite():
        rep = compare_backends(circuit, tol=1e-9)
        worst = max(worst, rep.max_deviation)
        all_passed = all_passed and rep.passed
        numeric_reports.append(
            measure(evolve_numeric(circuit), circuit.measured_modes)
        )
    _random_cache["numeric_reports"] = numeric_reports
    elapsed = time.perf_counter() - start
    report(
        6,
        f"{N_RANDOM_CIRCUITS} random circuits agree across backends at 1e-9",
        all_passed and elapsed < 60.0,
        f"worst deviation {worst:.2e}, runtime {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 7. algebra oracle at scale
# ---------------------------------------------------------------------------


def test_criterion_7_algebra_oracle():
    rng = np.random.default_rng(4242)
    systems = [ModeSystem(3, 0, 8), ModeSystem(2, 1, 8), ModeSystem(1, 2, 8)]
    worst_matrix = 0.0
    worst_vacuum = 0.0
    for trial in range(1000):
        system = systems[trial % len(systems)]
        poly = random_polynomial(rng, system, max_factors=6)
        ordered = normal_order(poly)
        m_raw = polynomial_matrix(poly, system)
        m_ord = polynomial_matrix(ordered, system)
        bosons = np.array(list(system.occupations()))[:, : system.boson_modes]
        safe = (bosons <= system.cutoff - 6).all(axis=1)
        diff = np.abs((m_raw - m_ord).toarray()[:, safe])
        worst_matrix = max(worst_matrix, float(diff.max()) if diff.size else 0.0)
        worst_vacuum = max(
            worst_vacuum,
            abs(vacuum_expectation(poly) - m_raw.toarray()[0, 0]),
        )
    report(
        7,
        "1000 random polynomials: normal ordering preserves the matrix and "
        "the vacuum expectation",
        worst_matrix < 1e-12 and worst_vacuum < 1e-12,
        f"matrix {worst_matrix:.2e}, vacuum {worst_vacuum:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. truncation exactness
# ---------------------------------------------------------------------------


def _distribution_gap(a, b):
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def test_criterion_8_truncation_exactness():
    worst = 0.0
    # criterion 1 circuits
    for name in ("single_photon_bs_sym", "single_photon_bs_asym"):
        narrow = build_experiment(name, cutoff=6)
        wide = build_experiment(name, cutoff=12)
        worst = max(
            worst,
            _distribution_gap(
                measure(evolve_numeric(narrow), narrow.measured_modes).distribution,
                measure(evolve_numeric(wide), wide.measured_modes).distribution,
            ),
        )
    # criterion 5 circuits
    for control in (0, 1):
        for target in (0, 1):
            narrow = build_experiment("cnot_dualrail", control=control, target=target)
            wide = with_cutoff(narrow, 12)
            worst = max(
                worst,
                _distribution_gap(
                    measure(evolve_numeric(narrow), narrow.measured_modes).distribution,
                    measure(evolve_numeric(wide), wide.measured_modes).distribution,
                ),
            )
    # criterion 6 circuits, rerun at doubled cutoff against the cached reports
    if "numeric_reports" not in _random_cache:
        test_criterion_6_randomized_equivalence()
    for circuit, base in zip(random_suite(), _random_cache["numeric_reports"]):
        wide = with_cutoff(circuit, 12)
        again = measure(evolve_numeric(wide), wide.measured_modes)
        worst = max(worst, _distribution_gap(base.distribution, again.distribution))
    report(
        8,
        "doubling the cutoff from 6 to 12 changes no reported probability",
        worst < 1e-12,
        f"largest probability shift {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 9. entanglement quantifier
# ---------------------------------------------------------------------------


def test_criterion_9_entanglement_quantifier():
    system = ModeSystem(2, 0, 3)
    s = 1 / math.sqrt(2)
    superposed = FockVector.from_amplitudes(system, {(1, 0): s, (0, 1): s})
    product = FockVector.from_amplitudes(system, {(1, 0): 1.0})
    gap_bell = abs(mode_bipartition_entropy(superposed, [0]) - math.log(2))
    gap_product = mode_bipartition_entropy(product, [0])
    report(
        9,
        "mode-bipartition entropy: ln 2 for the single-particle superposition, "
        "0 for the product state",
        gap_bell < 1e-12 and gap_product < 1e-12,
        f"gaps {gap_bell:.2e} / {gap_product:.2e}",
    )


# ---------------------------------------------------------------------------
# 10. parser round trips and rejections
# ---------------------------------------------------------------------------


def test_criterion_10_parser_suite(tmp_path):
    round_trips_ok = True
    for _, circuit in builtin_equivalence_cases():
        again = parse_circuit(render_circuit(circuit))
        round_trips_ok = round_trips_ok and circuits_equivalent(circuit, again)

    runner = CliRunner()
    rejections_ok = len(MALFORMED) >= 20
    for i, (text, line, _) in enumerate(MALFORMED):
        path = tmp_path / f"bad_{i}.fck"
        path.write_text(text)
        result = runner.invoke(cli_main, ["run", str(path)])
        case_ok = result.exit_code == 2 and f"line {line}," in result.output
        rejections_ok = rejections_ok and case_ok
    report(
        10,
        "built-ins round-trip through the text format; 20+ malformed programs "
        "exit 2 with the right line",
        round_trips_ok and rejections_ok,
    )
