"""Ladder-operator calculus: ordering, commutators, kets, series."""

import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fockbench.algebra import (
    KetExpression,
    _gram_weight,
    LadderPolynomial,
    LadderSymbol,
    SeriesConvergenceError,
    annihilation,
    _projector_weight,
    apply_exponential_series,
    apply_number_diagonal,
    apply_vertex_exponential,
    basis_ket,
    creation,
    joint_number_distribution,
    ket_from_creations,
    ket_inner,
    commutator,
    monomial_occupations,
    multiply,
    normal_order,
    number_expectation,
    number_expectations,
    quadratic_generator,
    reduce_to_ket,
    substitute_modes,
    vacuum_expectation,
    vacuum_ket,
)
from fockbench.circuit import AnnihilationVertex, element_generator
from fockbench.fock import inner_product, ket_to_fock, polynomial_matrix
from fockbench.modes import BOSON, FERMION, ModeSystem


def sym(mode, species=BOSON, dagger=False):
    return LadderSymbol(mode, species, dagger)


def matrix_of(poly, system):
    return polynomial_matrix(poly, system).toarray()


def safe_columns(system, margin):
    bosons = np.array(list(system.occupations()))[:, : system.boson_modes]
    return (bosons <= system.cutoff - margin).all(axis=1)


# ---------------------------------------------------------------------------
# Interned symbols
# ---------------------------------------------------------------------------


def test_symbols_are_interned():
    s = LadderSymbol(0, BOSON, True)
    assert s is LadderSymbol(0, BOSON, True)
    assert s.adjoint() is LadderSymbol(0, BOSON, False)
    assert s.adjoint().adjoint() is s
    assert s != s.adjoint()
    assert s != LadderSymbol(0, FERMION, True)


def test_copies_and_pickles_return_the_interned_symbol():
    s = LadderSymbol(3, FERMION, False)
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s


def test_pickled_polynomial_compares_equal():
    poly = normal_order(
        creation(0) * annihilation(1) * 0.5j + creation(2, FERMION) * annihilation(2, FERMION)
    )
    again = pickle.loads(pickle.dumps(poly))
    assert again == poly
    assert hash(again) == hash(poly)
    assert copy.deepcopy(poly) == poly


@pytest.mark.parametrize(
    "mode, species, message",
    [(0, "photon", "unknown species"), (-1, BOSON, "non-negative")],
)
def test_invalid_symbol_raises_every_time(mode, species, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            LadderSymbol(mode, species, True)


_REFUSAL_SYSTEM = ModeSystem(2, 1, 3)
_REFUSAL_KET = basis_ket(_REFUSAL_SYSTEM, (1, 0, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: KetExpression(_REFUSAL_SYSTEM, annihilation(0)),
            "ket expressions may only contain creation symbols; "
            "use reduce_to_ket to build one",
            id="ket-with-annihilator",
        ),
        pytest.param(
            lambda: substitute_modes(_REFUSAL_KET, np.ones((2, 3)), (0, 1)),
            "matrix must be square with one row per listed mode",
            id="substitute-not-square",
        ),
        pytest.param(
            lambda: substitute_modes(_REFUSAL_KET, np.eye(2), (0, 0)),
            "substitution modes must be distinct",
            id="substitute-repeated-mode",
        ),
        pytest.param(
            lambda: substitute_modes(_REFUSAL_KET, np.eye(2), (1, 2)),
            "substitution cannot mix bosonic and fermionic modes",
            id="substitute-mixed-species",
        ),
        pytest.param(
            lambda: quadratic_generator(np.zeros((2, 2)), (0,), _REFUSAL_SYSTEM.species),
            "coefficient matrix shape does not match the mode list",
            id="quadratic-shape",
        ),
    ],
)
def test_algebra_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_symbols_are_immutable():
    s = LadderSymbol(1, BOSON, True)
    with pytest.raises(AttributeError):
        s.mode = 2
    with pytest.raises(AttributeError):
        del s.dagger
    assert (s.mode, s.species, s.dagger) == (1, BOSON, True)


# ---------------------------------------------------------------------------
# Polynomial plumbing
# ---------------------------------------------------------------------------


def test_multiply_concatenates():
    p = creation(0) * annihilation(0)
    assert list(p.terms) == [(sym(0, dagger=True), sym(0))]


def test_multiply_by_zero():
    p = creation(0) + creation(1)
    assert multiply(p, LadderPolynomial.zero()).is_zero


def test_multiply_four_factors():
    p = multiply(creation(0) * annihilation(1), creation(1) * annihilation(0))
    ((factors, coeff),) = p.terms.items()
    assert coeff == 1.0
    assert factors == (
        sym(0, dagger=True),
        sym(1),
        sym(1, dagger=True),
        sym(0),
    )


def test_zero_coefficients_never_stored():
    p = creation(0) - creation(0)
    assert p.is_zero
    assert not p.terms


def test_adjoint_reverses_and_conjugates():
    p = LadderPolynomial.monomial(2.0j, [sym(0, dagger=True), sym(1)])
    ((factors, coeff),) = p.adjoint().terms.items()
    assert coeff == -2.0j
    assert factors == (sym(1, dagger=True), sym(0))


def test_adjoint_involution():
    p = creation(0) * annihilation(1) * (0.3 + 0.4j) + annihilation(2) * 1.5
    assert p.adjoint().adjoint() == p


# ---------------------------------------------------------------------------
# Normal ordering
# ---------------------------------------------------------------------------


def test_ccr_swap():
    got = normal_order(annihilation(0) * creation(0))
    want = creation(0) * annihilation(0) + LadderPolynomial.constant(1.0)
    assert got.allclose(want, 0.0)


def test_car_swap():
    got = normal_order(annihilation(0, FERMION) * creation(0, FERMION))
    want = LadderPolynomial.constant(1.0) - creation(0, FERMION) * annihilation(
        0, FERMION
    )
    assert got.allclose(want, 0.0)


def test_a_adag_a_adag():
    # a adag a adag = adag adag a a + 3 adag a + 1, frozen from the matrix
    # oracle at cutoff >= 4
    p = annihilation(0) * creation(0) * annihilation(0) * creation(0)
    got = normal_order(p)
    want = (
        creation(0) * creation(0) * annihilation(0) * annihilation(0)
        + 3.0 * (creation(0) * annihilation(0))
        + LadderPolynomial.constant(1.0)
    )
    assert got.allclose(want, 1e-12)
    system = ModeSystem(1, 0, 6)
    safe = safe_columns(system, 4)
    diff = matrix_of(p, system) - matrix_of(got, system)
    assert np.abs(diff[:, safe]).max() < 1e-12


def test_fermion_double_creation_vanishes():
    assert normal_order(
        creation(0, FERMION) * creation(0, FERMION)
    ).is_zero
    p = creation(1, FERMION) * creation(0, FERMION) * creation(1, FERMION)
    assert normal_order(p).is_zero


def test_fermion_sign_on_reorder():
    got = normal_order(creation(1, FERMION) * creation(0, FERMION))
    ((factors, coeff),) = got.terms.items()
    assert factors == (sym(0, FERMION, True), sym(1, FERMION, True))
    assert coeff == -1.0


def test_boson_symbols_precede_fermion_symbols():
    got = normal_order(creation(1, FERMION) * creation(0, BOSON))
    ((factors, _),) = got.terms.items()
    assert factors == (sym(0, BOSON, True), sym(1, FERMION, True))


def test_normal_order_idempotent():
    p = annihilation(0) * creation(0) * annihilation(1, FERMION) * creation(1, FERMION)
    once = normal_order(p)
    assert normal_order(once).allclose(once, 0.0)


# ---------------------------------------------------------------------------
# Vacuum expectations
# ---------------------------------------------------------------------------


def test_vacuum_expectation_a_adag():
    assert vacuum_expectation(annihilation(0) * creation(0)) == 1.0


def test_vacuum_expectation_adag_a():
    assert vacuum_expectation(creation(0) * annihilation(0)) == 0.0


def test_vacuum_expectation_two_mode():
    p = annihilation(0) * annihilation(1) * creation(1) * creation(0)
    assert vacuum_expectation(p) == pytest.approx(1.0)
    system = ModeSystem(2, 0, 4)
    assert vacuum_expectation(p) == pytest.approx(matrix_of(p, system)[0, 0])


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------


def test_ccr_commutator():
    got = commutator(annihilation(0), creation(0))
    assert got.allclose(LadderPolynomial.constant(1.0), 0.0)


@pytest.mark.parametrize("species", [BOSON, FERMION])
def test_quadratic_commutator_single_entry(species):
    # K = adag_0 a_1: [K, adag_1] = adag_0 and [K, adag_0] = 0
    k = creation(0, species) * annihilation(1, species)
    got = commutator(k, creation(1, species))
    assert got.allclose(creation(0, species), 1e-15)
    assert commutator(k, creation(0, species)).is_zero


@pytest.mark.parametrize("species", [BOSON, FERMION])
@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_quadratic_commutator_random_matrices(species, n_modes):
    entries = [0.0, 1.0, -1.0, 0.5, 1.0j, -0.25j, 0.75 - 0.5j]
    rng = np.random.default_rng(n_modes)
    for _ in range(8):
        c = rng.choice(entries, size=(n_modes, n_modes))
        k = LadderPolynomial.zero()
        for i in range(n_modes):
            for j in range(n_modes):
                k = k + complex(c[i, j]) * (
                    creation(i, species) * annihilation(j, species)
                )
        for j in range(n_modes):
            got = commutator(k, creation(j, species))
            want = LadderPolynomial.zero()
            for i in range(n_modes):
                want = want + complex(c[i, j]) * creation(i, species)
            assert got.allclose(normal_order(want), 1e-12)


# ---------------------------------------------------------------------------
# Matrix-oracle equivalence (the representation bridge)
# ---------------------------------------------------------------------------

_SYSTEMS = [ModeSystem(3, 0, 8), ModeSystem(2, 1, 8), ModeSystem(1, 2, 8)]


@st.composite
def polynomials(draw):
    system = draw(st.sampled_from(_SYSTEMS))
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        n_factors = draw(st.integers(0, 6))
        factors = []
        for _ in range(n_factors):
            mode = draw(st.integers(0, system.total_modes - 1))
            factors.append(
                LadderSymbol(mode, system.species(mode), draw(st.booleans()))
            )
        coeff = complex(
            draw(st.sampled_from([1.0, -1.0, 0.5, 2.0])),
            draw(st.sampled_from([0.0, 1.0, -0.5])),
        )
        key = tuple(factors)
        terms[key] = terms.get(key, 0.0) + coeff
    return system, LadderPolynomial(terms)


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_normal_order_preserves_matrix(data):
    system, poly = data
    ordered = normal_order(poly)
    safe = safe_columns(system, 6)
    diff = matrix_of(poly, system) - matrix_of(ordered, system)
    assert np.abs(diff[:, safe]).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_vacuum_expectation_matches_matrix(data):
    system, poly = data
    assert vacuum_expectation(poly) == pytest.approx(
        matrix_of(poly, system)[0, 0], abs=1e-12
    )


# ---------------------------------------------------------------------------
# Kets
# ---------------------------------------------------------------------------


def test_reduce_drops_annihilators():
    poly = creation(0) * annihilation(1) + creation(1)
    ket = reduce_to_ket(poly, ModeSystem(2, 0, 4))
    assert ket.poly.allclose(creation(1), 0.0)


def test_reduce_applies_ccr_first():
    # a adag |0> = |0>
    poly = annihilation(0) * creation(0)
    ket = reduce_to_ket(poly, ModeSystem(1, 0, 4))
    assert ket.poly.allclose(LadderPolynomial.constant(1.0), 0.0)


def test_basis_ket_normalized():
    system = ModeSystem(2, 1, 4)
    ket = basis_ket(system, (2, 1, 1))
    assert ket.norm() == pytest.approx(1.0)
    amps = ket.occupation_amplitudes()
    assert amps[(2, 1, 1)] == pytest.approx(1.0)


def test_ket_from_creations_pauli_exclusion():
    system = ModeSystem(0, 1, 1)
    with pytest.raises(ValueError):
        ket_from_creations(system, [0, 0])


def test_ket_inner_matches_general_reduction():
    # the factorial contraction shortcut equals the full rewrite route
    system = ModeSystem(2, 1, 6)
    k1 = reduce_to_ket(
        creation(0) * creation(0) * creation(2, FERMION) * 0.3
        + creation(1) * (0.5 - 0.2j),
        system,
    )
    k2 = reduce_to_ket(
        creation(0) * creation(0) * creation(2, FERMION) * 1.1j + creation(1) * 0.7,
        system,
    )
    via_gram = ket_inner(k1, k2)
    via_rewrite = vacuum_expectation(multiply(k1.poly.adjoint(), k2.poly))
    assert via_gram == pytest.approx(via_rewrite, abs=1e-12)
    via_matrix = inner_product(ket_to_fock(k1), ket_to_fock(k2))
    assert via_gram == pytest.approx(via_matrix, abs=1e-12)


def test_ket_inner_ignores_the_cutoff_but_not_the_modes():
    # a ket has no cutoff: only the mode counts must agree
    poly = (creation(0) * creation(0) + creation(1) * 1j) * (1 / math.sqrt(3))
    low, high = ModeSystem(2, 0, 3), ModeSystem(2, 0, 6)
    assert ket_inner(reduce_to_ket(poly, low), reduce_to_ket(poly, high)) == pytest.approx(
        1.0, abs=1e-12
    )
    mixed = reduce_to_ket(creation(1), ModeSystem(2, 1, 3))
    bosonic = reduce_to_ket(creation(1), ModeSystem(3, 0, 3))
    with pytest.raises(ValueError, match="kets live on different mode systems"):
        ket_inner(mixed, bosonic)


def test_vacuum_ket_norm():
    assert vacuum_ket(ModeSystem(1, 0, 2)).norm() == 1.0


def test_ket_rejects_fermions_out_of_mode_order():
    # 0.6 f2^ f1^ + 0.8 f1^ f2^ is the state 0.2 |.,1,1>; read as two
    # canonical monomials it had norm 1
    system = ModeSystem(1, 2, 2)
    f1, f2 = creation(1, FERMION), creation(2, FERMION)
    poly = f2 * f1 * 0.6 + f1 * f2 * 0.8
    with pytest.raises(ValueError, match="reduce_to_ket"):
        KetExpression(system, poly)
    assert reduce_to_ket(poly, system).norm() == pytest.approx(0.2, abs=1e-15)


def test_ket_rejects_bosons_out_of_mode_order():
    # a1^ a0^ would be orthogonal to a0^ a1^, the same state
    with pytest.raises(ValueError, match="reduce_to_ket"):
        KetExpression(ModeSystem(2, 0, 2), creation(1) * creation(0))


def test_ket_rejects_symbols_outside_the_system_or_of_the_wrong_species():
    system = ModeSystem(1, 1, 2)
    with pytest.raises(IndexError, match="mode 2 out of range for a system of 2 modes"):
        KetExpression(system, creation(2))
    with pytest.raises(ValueError, match="wrong species"):
        KetExpression(system, creation(1))
    with pytest.raises(ValueError, match="wrong species"):
        KetExpression(system, creation(0, FERMION))


def test_ket_rejects_repeated_fermionic_mode():
    # f0^ f0^ is zero, not a ket of norm 1
    pair = creation(0, FERMION) * creation(0, FERMION)
    with pytest.raises(ValueError, match="reduce_to_ket"):
        KetExpression(ModeSystem(0, 1, 1), pair)
    assert reduce_to_ket(pair, ModeSystem(0, 1, 1)).poly.is_zero


@pytest.mark.parametrize(
    "bad, error",
    [
        pytest.param(lambda: annihilation(0), ValueError, id="non-creation"),
        pytest.param(lambda: creation(2), ValueError, id="wrong-species"),
        pytest.param(lambda: creation(4, FERMION), IndexError, id="out-of-range"),
        pytest.param(lambda: creation(1) * creation(0), ValueError, id="non-canonical"),
        pytest.param(
            lambda: creation(3, FERMION) * creation(3, FERMION),
            ValueError,
            id="repeated-fermion",
        ),
    ],
)
def test_remembered_ket_checks_still_refuse(bad, error):
    # monomials that passed on a system are skipped on the next ket; a bad
    # one after them is refused as it is on a system that has seen none
    system = ModeSystem(2, 2, 3)
    valid = basis_ket(system, (2, 1, 1, 0)).poly + ket_from_creations(system, (0, 3)).poly
    KetExpression(system, valid)
    with pytest.raises(error) as fresh:
        KetExpression(ModeSystem(2, 2, 3), valid + bad())
    with pytest.raises(error) as remembered:
        KetExpression(system, valid + bad())
    assert str(remembered.value) == str(fresh.value)
    with pytest.raises(error) as alone:
        KetExpression(system, bad())
    assert str(alone.value) == str(fresh.value)


# ---------------------------------------------------------------------------
# Heisenberg substitution
# ---------------------------------------------------------------------------


def test_substitute_identity():
    system = ModeSystem(2, 0, 4)
    ket = basis_ket(system, (1, 1))
    out = substitute_modes(ket, np.eye(2), (0, 1))
    assert out.allclose(ket)


def test_substitute_symmetric_bs():
    # frozen convention: adag_1 -> (adag_1 + i adag_2)/sqrt(2) through B1
    system = ModeSystem(2, 0, 4)
    b1 = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    out = substitute_modes(basis_ket(system, (1, 0)), b1, (0, 1))
    amps = out.occupation_amplitudes()
    assert amps[(1, 0)] == pytest.approx(1 / math.sqrt(2))
    assert amps[(0, 1)] == pytest.approx(1j / math.sqrt(2))


def test_substitute_antisymmetric_bs():
    system = ModeSystem(2, 0, 4)
    b2 = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
    out = substitute_modes(basis_ket(system, (1, 0)), b2, (0, 1))
    amps = out.occupation_amplitudes()
    assert amps[(1, 0)] == pytest.approx(1 / math.sqrt(2))
    assert amps[(0, 1)] == pytest.approx(1 / math.sqrt(2))


def test_substitute_rejects_nonunitary():
    system = ModeSystem(2, 0, 4)
    with pytest.raises(ValueError):
        substitute_modes(basis_ket(system, (1, 0)), np.eye(2) * 1.001, (0, 1))


def test_substitute_preserves_norm():
    rng = np.random.default_rng(3)
    system = ModeSystem(3, 0, 6)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    ket = reduce_to_ket(
        creation(0) * creation(0) * creation(2) * 0.4 + creation(1) * (0.3 + 0.7j),
        system,
    ).normalized()
    out = substitute_modes(ket, q, (0, 1, 2))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_substitute_fermionic_pauli_suppression():
    # both fermions onto one output mode cancels: two-particle bunching is
    # forbidden, so a balanced fermion splitter sends them to opposite ports
    system = ModeSystem(0, 2, 1)
    b2 = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
    ket = basis_ket(system, (1, 1))
    out = substitute_modes(ket, b2, (0, 1))
    amps = out.occupation_amplitudes()
    assert set(amps) == {(1, 1)}
    assert abs(amps[(1, 1)]) == pytest.approx(1.0)


def test_substitute_matches_exponential_series():
    # two independent symbolic routes to the same evolution
    system = ModeSystem(2, 0, 6)
    theta = 0.73
    k = theta * (creation(1) * annihilation(0) - creation(0) * annihilation(1))
    b = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    ket = reduce_to_ket(creation(0) * creation(1) * 0.8 + creation(0) * 0.6j, system)
    ket = ket.normalized()
    via_series = apply_exponential_series(k, ket)
    via_subst = substitute_modes(ket, b, (0, 1))
    assert via_series.allclose(via_subst, 1e-12)


def _substitute_by_normal_ordering(ket, matrix, modes):
    # the expand-then-reduce_to_ket reference: all products of the
    # replacements, each through normal_order
    b = np.asarray(matrix, dtype=complex)
    col_of = {mode: p for p, mode in enumerate(modes)}
    spec = ket.system.species(modes[0])
    replacements = {
        mode: [
            (LadderSymbol(modes[q], spec, True), b[q, col_of[mode]])
            for q in range(len(modes))
            if b[q, col_of[mode]] != 0
        ]
        for mode in modes
    }
    out = {}
    for factors, coeff in ket.poly.terms.items():
        partial = {(): coeff}
        for s in factors:
            choices = replacements.get(s.mode, [(s, 1.0 + 0.0j)])
            grown = {}
            for prefix, c in partial.items():
                for symbol, weight in choices:
                    key = prefix + (symbol,)
                    grown[key] = grown.get(key, 0.0 + 0.0j) + c * weight
            partial = grown
        for factors_new, c in partial.items():
            out[factors_new] = out.get(factors_new, 0.0 + 0.0j) + c
    return reduce_to_ket(LadderPolynomial(out), ket.system)


def _hex_terms(ket):
    # monomials in dict order with their coefficients bit for bit
    return [(f, c.real.hex(), c.imag.hex()) for f, c in ket.poly.terms.items()]


#: (bosons, fermions): mixed systems, and one of each species alone.
_SUBSTITUTION_SYSTEMS = [(3, 2), (2, 3), (1, 3), (4, 0), (0, 4)]


def _draw_ket(draw, system):
    """A random ket of up to 8 canonical monomials; bosonic modes repeat."""
    parts = st.floats(-2.0, 2.0, allow_subnormal=False) | st.sampled_from([0.0, 1.0])
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        # at most 5 creators: the expansion grows as (modes substituted)^creators
        modes = sorted(draw(st.lists(st.integers(0, system.total_modes - 1), max_size=5)))
        factors = tuple(
            LadderSymbol(m, system.species(m), True)
            for i, m in enumerate(modes)
            if system.is_boson(m) or modes[i - 1 : i] != [m]
        )
        terms[factors] = complex(draw(parts), draw(parts))
    return KetExpression(system, LadderPolynomial(terms))


@st.composite
def substitutions(draw):
    """A random ket and a random unitary on a subset of one species' modes."""
    bosons, fermions = draw(st.sampled_from(_SUBSTITUTION_SYSTEMS))
    system = ModeSystem(bosons, fermions, 3)
    ket = _draw_ket(draw, system)
    species = [m for m in range(system.total_modes) if system.species(m) == BOSON]
    if not species or (fermions and draw(st.booleans())):
        species = [m for m in range(system.total_modes) if system.species(m) == FERMION]
    modes = tuple(draw(st.permutations(species))[: draw(st.integers(1, len(species)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        matrix, _ = np.linalg.qr(
            rng.normal(size=(len(modes),) * 2) + 1j * rng.normal(size=(len(modes),) * 2)
        )
    else:
        # a phased permutation: exact zeros, so some choices are missing
        matrix = np.eye(len(modes))[rng.permutation(len(modes))] * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=len(modes))
        )
    return ket, matrix, modes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(substitutions())
@example(
    # both fermions of a fermionic splitter's modes: the products that put
    # both on one mode repeat a fermion and must drop out
    (
        KetExpression(
            ModeSystem(1, 2, 3),
            LadderPolynomial(
                {
                    (sym(0, BOSON, True), sym(1, FERMION, True), sym(2, FERMION, True)): 0.6,
                    (sym(1, FERMION, True), sym(2, FERMION, True)): 0.8j,
                }
            ),
        ),
        np.array([[0.6, -0.8j], [-0.8j, 0.6]]),
        (2, 1),
    )
)
def test_substitute_equals_normal_ordering(data):
    ket, matrix, modes = data
    got = substitute_modes(ket, matrix, modes)
    assert got.allclose(_substitute_by_normal_ordering(ket, matrix, modes), 1e-13)
    everything = range(ket.system.total_modes)
    one_pass = number_expectations(got, everything)
    assert list(one_pass) == list(everything)
    assert [v.hex() for v in one_pass.values()] == [
        number_expectation(got, m).hex() for m in everything
    ]


#: (bosons, fermions): at least three modes of the splitter's species, so a
#: pair can be non-adjacent with ket symbols before, between and after it.
_SPLITTER_SYSTEMS = [(4, 0), (0, 5), (3, 3), (1, 4), (5, 1)]


@st.composite
def splitter_substitutions(draw):
    """A random ket and a random 2x2 unitary on two modes of one species,
    adjacent or not, listed in either order."""
    bosons, fermions = draw(st.sampled_from(_SPLITTER_SYSTEMS))
    system = ModeSystem(bosons, fermions, 3)
    ket = _draw_ket(draw, system)
    species = BOSON if bosons >= 3 and (fermions < 3 or draw(st.booleans())) else FERMION
    own = [m for m in range(system.total_modes) if system.species(m) == species]
    modes = tuple(draw(st.lists(st.sampled_from(own), min_size=2, max_size=2, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return ket, matrix, modes


def _splitter_example(bosons, fermions, monomials, modes):
    system = ModeSystem(bosons, fermions, 3)
    terms = {
        tuple(LadderSymbol(m, system.species(m), True) for m in monomial): complex(0.6, 0.1 * k)
        for k, monomial in enumerate(monomials)
    }
    return KetExpression(system, LadderPolynomial(terms)), np.array([[0.6, -0.8j], [-0.8j, 0.6]]), modes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(splitter_substitutions())
# non-adjacent bosonic pair: the kept a1 sorts after the word's a0, and
# a1 a2 sits between the pair's modes
@example(_splitter_example(4, 0, [(1, 2), (0, 1, 2, 3), (1, 3)], (0, 3)))
# fermionic pair around an occupied f2: words with f1 or f3 twice vanish,
# a kept f2 between the moved f1 and f3 flips the sign once, and a word's
# f3 sorted in before a kept f4 flips it again
@example(_splitter_example(0, 5, [(0, 1, 2), (1, 2, 3), (0, 1, 3, 4), (2, 3)], (1, 3)))
# bosonic repeats inside and around the pair
@example(_splitter_example(5, 1, [(0, 0, 1, 2, 2), (1, 1, 3, 5), (2, 2, 2, 4)], (1, 3)))
def test_splitter_substitution_equals_normal_ordering(data):
    ket, matrix, modes = data
    got = substitute_modes(ket, matrix, modes)
    assert got.allclose(_substitute_by_normal_ordering(ket, matrix, modes), 1e-13)


def test_substitute_drops_repeated_fermions():
    # a fermionic splitter on both occupied modes keeps the pair: the
    # products with one fermion twice vanish, and the determinant remains
    system = ModeSystem(0, 2, 1)
    b = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
    pair = (sym(0, FERMION, True), sym(1, FERMION, True))
    ket = KetExpression(system, LadderPolynomial({pair: 1.0}))
    out = substitute_modes(ket, b, (0, 1))
    assert list(out.poly.terms) == [pair]
    assert out.poly.terms[pair] == pytest.approx(np.linalg.det(b), abs=1e-15)


# ---------------------------------------------------------------------------
# Number-diagonal exponentials
# ---------------------------------------------------------------------------


def test_kerr_pi_phase_on_pair():
    system = ModeSystem(2, 0, 4)
    ket = basis_ket(system, (1, 1))
    out = apply_number_diagonal({(0, 1): math.pi}, ket)
    assert ket_inner(ket, out) == pytest.approx(-1.0)


def test_kerr_on_vacuum():
    system = ModeSystem(2, 0, 4)
    out = apply_number_diagonal({(0, 1): math.pi}, vacuum_ket(system))
    assert out.allclose(vacuum_ket(system))


def test_phase_pi_on_single_occupation():
    system = ModeSystem(1, 0, 4)
    out = apply_number_diagonal({(0,): math.pi}, basis_ket(system, (1,)))
    assert ket_inner(basis_ket(system, (1,)), out) == pytest.approx(-1.0)


def test_number_diagonal_scales_with_occupation():
    system = ModeSystem(1, 0, 4)
    out = apply_number_diagonal({(0,): 0.25}, basis_ket(system, (3,)))
    assert ket_inner(basis_ket(system, (3,)), out) == pytest.approx(
        np.exp(0.75j)
    )


def _number_diagonal_per_monomial(phases, ket):
    # apply_number_diagonal as it was before phases were shared: one
    # cmath.exp per monomial, from the same products and sums
    terms = [
        ([LadderSymbol(m, ket.system.species(m), True) for m in key], float(value))
        for key, value in phases.items()
    ]
    out = {}
    for factors, coeff in ket.poly.terms.items():
        angle = 0.0
        for symbols, value in terms:
            contribution = value
            for s in symbols:
                contribution *= factors.count(s)
            angle += contribution
        c = coeff * cmath.exp(1j * angle)
        if c:
            out[factors] = c
    return [(f, c.real.hex(), c.imag.hex()) for f, c in out.items()]


@st.composite
def number_diagonals(draw):
    """A random ket and a mix of phase ``(m,)`` and Kerr ``(i, j)`` keys,
    self-Kerr ``(m, m)`` included."""
    bosons, fermions = draw(st.sampled_from(_SUBSTITUTION_SYSTEMS))
    system = ModeSystem(bosons, fermions, 3)
    ket = _draw_ket(draw, system)
    mode = st.integers(0, system.total_modes - 1)
    keys = draw(
        st.lists(st.tuples(mode) | st.tuples(mode, mode), min_size=1, max_size=6, unique=True)
    )
    values = st.floats(-7.0, 7.0, allow_subnormal=False)
    return {key: draw(values) for key in keys}, ket


@settings(max_examples=200, deadline=None, derandomize=True)
@given(number_diagonals())
def test_number_diagonal_shares_phases_bit_for_bit(data):
    phases, ket = data
    got = apply_number_diagonal(phases, ket)
    assert _hex_terms(got) == _number_diagonal_per_monomial(phases, ket)


@pytest.mark.parametrize("key", [0, (0, 1, 2)], ids=["bare int", "3-tuple"])
def test_number_diagonal_rejects_keys_other_than_one_or_two_modes(key):
    system = ModeSystem(3, 0, 4)
    with pytest.raises(ValueError, match="one or two modes"):
        apply_number_diagonal({key: 0.25}, basis_ket(system, (1, 1, 1)))


# ---------------------------------------------------------------------------
# Exponential series
# ---------------------------------------------------------------------------


def test_series_zero_generator():
    system = ModeSystem(1, 0, 4)
    ket = basis_ket(system, (1,))
    out = apply_exponential_series(LadderPolynomial.zero(), ket)
    assert out.allclose(ket)


def hardy_generator(theta, system):
    return element_generator(AnnihilationVertex(0, 1, 2, theta), system)


def test_series_hardy_certain_annihilation():
    system = ModeSystem(1, 2, 4)
    ket = basis_ket(system, (0, 1, 1))
    out = apply_exponential_series(hardy_generator(math.pi / 2, system), ket)
    amps = out.occupation_amplitudes()
    assert set(amps) == {(1, 0, 0)}
    assert abs(amps[(1, 0, 0)]) == pytest.approx(1.0, abs=1e-12)


def test_series_hardy_half_angle():
    system = ModeSystem(1, 2, 4)
    ket = basis_ket(system, (0, 1, 1))
    out = apply_exponential_series(hardy_generator(math.pi / 4, system), ket)
    amps = out.occupation_amplitudes()
    assert abs(amps[(0, 1, 1)]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(amps[(1, 0, 0)]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_series_diverges_on_unbounded_generator():
    system = ModeSystem(1, 0, 4)
    squeeze = creation(0) * creation(0)
    with pytest.raises(SeriesConvergenceError):
        apply_exponential_series(squeeze, vacuum_ket(system), max_terms=40)


def test_series_rejects_bad_tolerance():
    system = ModeSystem(1, 0, 4)
    with pytest.raises(ValueError):
        apply_exponential_series(
            LadderPolynomial.zero(), vacuum_ket(system), tol=0.0
        )


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_series_rejects_tolerance_that_is_not_finite(tol):
    # under nan no term ever counts as small (a false "unbounded" verdict),
    # under inf the sum would stop after the first term
    system = ModeSystem(2, 0, 4)
    generator = 0.3 * (creation(1) * annihilation(0) - creation(0) * annihilation(1))
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        apply_exponential_series(generator, basis_ket(system, (1, 0)), tol=tol)


# ---------------------------------------------------------------------------
# Annihilation vertex in closed form
# ---------------------------------------------------------------------------

# photon 0 beside a spectator boson 1; positron 2 and electron 4 with a
# spectator fermion 3 between them, so reordering the pair costs signs
VERTEX_SYSTEM = ModeSystem(2, 3, 8)
VERTEX_MODES = (0, 4, 2)


def vertex_generator(theta):
    return element_generator(AnnihilationVertex(*VERTEX_MODES, theta), VERTEX_SYSTEM)


def vertex_monomial(photons, electron, positron):
    # occupations of modes 0..4, spectators occupied
    occ = (photons, 1, positron, 1, electron)
    return basis_ket(VERTEX_SYSTEM, occ).poly


@pytest.mark.parametrize("photons", range(4))
@pytest.mark.parametrize("electron,positron", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_vertex_generator_squares_to_minus_pair_count(photons, electron, positron):
    theta = 0.7
    k = vertex_generator(theta)
    if electron and positron:
        m = photons + 1
    elif not electron and not positron:
        m = photons
    else:
        m = 0
    monomial = vertex_monomial(photons, electron, positron)
    squared = reduce_to_ket(multiply(k, multiply(k, monomial)), VERTEX_SYSTEM)
    expected = KetExpression(VERTEX_SYSTEM, monomial * (-(theta**2) * m))
    assert squared.allclose(expected, 1e-12)


@pytest.mark.parametrize("seed,theta", enumerate([0.0, 0.3, -0.9, 1.4, 2.0, -2.0]))
def test_vertex_exponential_matches_series_for_small_theta(seed, theta):
    rng = np.random.default_rng(seed)
    poly = LadderPolynomial.zero()
    for _ in range(8):
        monomial = vertex_monomial(
            int(rng.integers(0, 4)), int(rng.integers(0, 2)), int(rng.integers(0, 2))
        )
        poly = poly + monomial * complex(*rng.normal(size=2))
    ket = KetExpression(VERTEX_SYSTEM, poly).normalized()
    k = vertex_generator(theta)
    closed = apply_vertex_exponential(k, ket, *VERTEX_MODES)
    assert closed.allclose(apply_exponential_series(k, ket), 1e-12)
    assert closed.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "generator",
    [
        creation(0) * creation(0),
        vertex_generator(0.5) * 1j,
        vertex_generator(0.5) + creation(1),
        vertex_generator(math.inf),
        element_generator(AnnihilationVertex(0, 2, 4, 0.5), VERTEX_SYSTEM),
    ],
)
def test_vertex_exponential_rejects_other_generators(generator):
    ket = KetExpression(VERTEX_SYSTEM, vertex_monomial(0, 1, 1))
    with pytest.raises(ValueError, match="theta"):
        apply_vertex_exponential(generator, ket, *VERTEX_MODES)


# ---------------------------------------------------------------------------
# Detection statistics from the vacuum functional
# ---------------------------------------------------------------------------


def test_number_expectation_basis_ket():
    system = ModeSystem(2, 1, 4)
    ket = basis_ket(system, (2, 0, 1))
    assert number_expectation(ket, 0) == pytest.approx(2.0)
    assert number_expectation(ket, 1) == pytest.approx(0.0)
    assert number_expectation(ket, 2) == pytest.approx(1.0)


def test_joint_distribution_superposition():
    system = ModeSystem(2, 0, 4)
    poly = basis_ket(system, (1, 0)).poly * math.sqrt(1 / 3) + basis_ket(
        system, (0, 2)
    ).poly * math.sqrt(2 / 3)
    ket = KetExpression(system, poly)
    dist = joint_number_distribution(ket, (0, 1))
    assert dist[(1, 0)] == pytest.approx(1 / 3, abs=1e-12)
    assert dist[(0, 2)] == pytest.approx(2 / 3, abs=1e-12)


def test_joint_distribution_marginalizes():
    system = ModeSystem(2, 0, 4)
    s = 1 / math.sqrt(2)
    poly = basis_ket(system, (1, 0)).poly * s + basis_ket(system, (1, 1)).poly * s
    ket = KetExpression(system, poly)
    dist = joint_number_distribution(ket, (0,))
    assert dist == {(1,): pytest.approx(1.0)}


def _joint_distribution_by_projectors(ket, modes):
    # the pattern-by-pattern projector sum that the one-pass code replaces
    per_monomial = []
    patterns = set()
    for factors, coeff in ket.poly.terms.items():
        occ = monomial_occupations(factors, ket.system.total_modes)
        restricted = tuple(occ[m] for m in modes)
        per_monomial.append((restricted, abs(coeff) ** 2 * _gram_weight(factors)))
        patterns.add(restricted)
    distribution = {}
    for pattern in sorted(patterns):
        prob = 0.0
        for restricted, weight in per_monomial:
            factor = 1.0
            for wanted, nu in zip(pattern, restricted):
                factor *= _projector_weight(wanted, nu)
                if factor == 0.0:
                    break
            prob += weight * factor
        if prob != 0.0:
            distribution[pattern] = prob
    return distribution


def test_joint_distribution_bitwise_equals_projector_sums():
    rng = np.random.default_rng(2024)
    system = ModeSystem(3, 2, 6)
    for _ in range(200):
        poly = LadderPolynomial.zero()
        for _ in range(int(rng.integers(1, 16))):
            occ = (*rng.integers(0, 5, size=3), *rng.integers(0, 2, size=2))
            coeff = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-6, 1)
            poly = poly + basis_ket(system, occ).poly * coeff
        ket = KetExpression(system, poly)
        modes = tuple(
            sorted(rng.choice(5, size=int(rng.integers(1, 6)), replace=False))
        )
        new = joint_number_distribution(ket, modes)
        old = _joint_distribution_by_projectors(ket, modes)
        assert [(k, v.hex()) for k, v in new.items()] == [
            (k, v.hex()) for k, v in old.items()
        ]
