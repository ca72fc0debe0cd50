"""Fock-core: basis enumeration, ladder matrices, states, entropy."""

import math
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

import fockbench.fock
from fockbench.backends import measure
from fockbench.circuit import BeamSplitter
from fockbench.fock import (
    MAX_SQUARINGS,
    FockVector,
    annihilation_op,
    creation_op,
    expm_blocks,
    heisenberg_residual,
    inner_product,
    mode_bipartition_entropy,
    number_op,
    vacuum_state,
)
from fockbench.modes import BOSON, FERMION, ModeSystem


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def box_radix_oracle(system, mode):
    return system.cutoff + 1 if mode < system.boson_modes else 2


def box_index_oracle(system, occ):
    """Lexicographic rank of an occupation tuple, mode 0 most significant."""
    index = 0
    for mode, n in enumerate(occ):
        index = index * box_radix_oracle(system, mode) + n
    return index


def box_occupation_oracle(system, index):
    """Inverse of :func:`box_index_oracle`, digit by digit from the last mode."""
    occ = []
    for mode in reversed(range(system.total_modes)):
        index, n = divmod(index, box_radix_oracle(system, mode))
        occ.append(n)
    return occ[::-1]


def dense_creation_oracle(system, mode):
    """Dense creation matrix built by explicit per-state loops."""
    dim = system.basis_size
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        occ = box_occupation_oracle(system, col)
        if system.is_boson(mode):
            if occ[mode] < system.cutoff:
                amp = math.sqrt(occ[mode] + 1)
                occ[mode] += 1
                mat[box_index_oracle(system, occ), col] = amp
        else:
            if occ[mode] == 0:
                sign = jordan_wigner_sign_oracle(system, occ, mode)
                occ[mode] = 1
                mat[box_index_oracle(system, occ), col] = sign
    return mat


def jordan_wigner_sign_oracle(system, occ, mode):
    """Brute-force (-1)**(occupied fermionic modes below `mode`)."""
    count = 0
    for other in range(system.boson_modes, system.total_modes):
        if other < mode and occ[other] == 1:
            count += 1
    return (-1) ** count


def reduced_density_entropy_oracle(state, left_modes):
    """Entropy via the explicit reduced density matrix, no SVD shortcut."""
    system = state.system
    left = sorted(left_modes)
    right = [m for m in range(system.total_modes) if m not in left]
    rho = {}
    for occ1, a1 in state.amplitudes.items():
        for occ2, a2 in state.amplitudes.items():
            if all(occ1[m] == occ2[m] for m in right):
                k1 = tuple(occ1[m] for m in left)
                k2 = tuple(occ2[m] for m in left)
                rho[(k1, k2)] = rho.get((k1, k2), 0.0) + a1 * a2.conjugate()
    labels = sorted({k for k, _ in rho})
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for (k1, k2), value in rho.items():
        mat[labels.index(k1), labels.index(k2)] = value
    eigs = np.linalg.eigvalsh(mat)
    eigs = eigs[eigs > 1e-15]
    return float(-np.sum(eigs * np.log(eigs)))


def apply(op, state):
    """A sparse matrix on a state, through its dense box vector."""
    return FockVector.from_dense(state.system, op @ state.to_dense())


# ---------------------------------------------------------------------------
# Mode systems and enumeration
# ---------------------------------------------------------------------------


def test_basis_size():
    assert ModeSystem(2, 2, 3).basis_size == 4**2 * 2**2
    assert ModeSystem(1, 0, 6).basis_size == 7
    assert ModeSystem(0, 3, 1).basis_size == 8


@pytest.mark.parametrize(
    "bosons,fermions,cutoff", [(0, 0, 3), (1, 0, 0), (-1, 2, 3)]
)
def test_invalid_systems_rejected(bosons, fermions, cutoff):
    with pytest.raises(ValueError):
        ModeSystem(bosons, fermions, cutoff)


def assert_dense_positions(system, occupations):
    """Basis vector i sits at position i of a dense vector, both ways."""
    for i, occ in enumerate(occupations):
        dense = FockVector.from_amplitudes(system, {occ: 1.0}).to_dense()
        assert np.flatnonzero(dense).tolist() == [i]
        assert dense[i] == 1.0
        unit = np.zeros(system.basis_size)
        unit[i] = 1.0
        amplitudes = FockVector.from_dense(system, unit).amplitudes
        assert amplitudes == {occ: 1.0}
        assert all(type(n) is int for n in next(iter(amplitudes)))


def test_enumeration_order_frozen():
    # Lexicographic, mode 0 most significant: documented and frozen.
    system = ModeSystem(1, 1, 2)
    expected = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert list(system.occupations()) == expected
    assert_dense_positions(system, expected)
    # mixed species with bosonic radix 4: every state against the oracle
    system = ModeSystem(2, 2, 3)
    occupations = list(system.occupations())
    assert len(occupations) == system.basis_size == 64
    assert occupations == sorted(occupations)
    assert [box_index_oracle(system, occ) for occ in occupations] == list(range(64))
    assert_dense_positions(system, occupations)


def test_species_layout():
    system = ModeSystem(2, 2, 3)
    assert [system.species(m) for m in range(4)] == [BOSON, BOSON, FERMION, FERMION]
    with pytest.raises(IndexError):
        system.species(4)


# ---------------------------------------------------------------------------
# Vacuum and elementary operators
# ---------------------------------------------------------------------------


def test_vacuum_single_boson():
    system = ModeSystem(1, 0, 2)
    assert vacuum_state(system).amplitudes == {(0,): 1.0 + 0.0j}


def test_vacuum_mixed_system():
    system = ModeSystem(2, 2, 3)
    assert vacuum_state(system).amplitudes == {(0, 0, 0, 0): 1.0 + 0.0j}


def test_vacuum_normalized():
    vac = vacuum_state(ModeSystem(2, 1, 4))
    assert inner_product(vac, vac) == pytest.approx(1.0)
    assert vac.is_normalized


def test_creation_on_vacuum():
    system = ModeSystem(1, 0, 3)
    out = apply(creation_op(system, 0), vacuum_state(system))
    assert out.amplitudes == {(1,): pytest.approx(1.0)}


def test_creation_sqrt_weight():
    system = ModeSystem(1, 0, 3)
    one = FockVector.from_amplitudes(system, {(1,): 1.0})
    out = apply(creation_op(system, 0), one)
    assert out.amplitudes[(2,)] == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize(
    "bosons,fermions,cutoff",
    [(1, 0, 4), (2, 0, 3), (2, 2, 2), (0, 3, 1), (1, 3, 2)],
)
def test_creation_matches_dense_oracle(bosons, fermions, cutoff):
    system = ModeSystem(bosons, fermions, cutoff)
    for mode in range(system.total_modes):
        got = creation_op(system, mode).toarray()
        want = dense_creation_oracle(system, mode)
        assert np.abs(got - want).max() == 0.0


def test_jordan_wigner_sign():
    # second fermionic mode with the first occupied picks up a minus sign
    system = ModeSystem(0, 2, 1)
    state = FockVector.from_amplitudes(system, {(1, 0): 1.0})
    out = apply(creation_op(system, 1), state)
    assert out.amplitudes == {(1, 1): pytest.approx(-1.0)}


def test_creation_truncation_drops_top_level():
    system = ModeSystem(1, 0, 2)
    top = FockVector.from_amplitudes(system, {(2,): 1.0})
    assert apply(creation_op(system, 0), top).amplitudes == {}


def test_annihilation_kills_vacuum():
    system = ModeSystem(2, 1, 3)
    for mode in range(system.total_modes):
        out = apply(annihilation_op(system, mode), vacuum_state(system))
        assert out.amplitudes == {}


def test_annihilation_adjoint_of_creation():
    system = ModeSystem(2, 2, 3)
    for mode in range(system.total_modes):
        diff = annihilation_op(system, mode) - creation_op(system, mode).conj().T
        assert abs(diff).max() == 0.0


def test_annihilation_sqrt_weight():
    system = ModeSystem(1, 0, 3)
    two = FockVector.from_amplitudes(system, {(2,): 1.0})
    out = apply(annihilation_op(system, 0), two)
    assert out.amplitudes[(1,)] == pytest.approx(math.sqrt(2))


def test_fermion_annihilation():
    system = ModeSystem(0, 1, 1)
    one = FockVector.from_amplitudes(system, {(1,): 1.0})
    assert apply(annihilation_op(system, 0), one).amplitudes == {
        (0,): pytest.approx(1.0)
    }


def test_mode_out_of_range():
    system = ModeSystem(2, 0, 3)
    with pytest.raises(IndexError):
        creation_op(system, 2)
    with pytest.raises(IndexError):
        annihilation_op(system, 5)
    with pytest.raises(IndexError):
        number_op(system, -1)


# ---------------------------------------------------------------------------
# Number operator
# ---------------------------------------------------------------------------


def test_number_diagonal():
    system = ModeSystem(1, 0, 4)
    n = number_op(system, 0).toarray()
    assert np.abs(n - np.diag([0, 1, 2, 3, 4])).max() == 0.0


def test_number_eigenvalue_three():
    system = ModeSystem(1, 0, 4)
    three = FockVector.from_amplitudes(system, {(3,): 1.0})
    assert apply(number_op(system, 0), three).amplitudes == {(3,): pytest.approx(3.0)}


def test_number_equals_creation_after_annihilation():
    # same sparsity pattern exactly; values match to rounding in sqrt(n)**2
    system = ModeSystem(2, 2, 4)
    for mode in range(system.total_modes):
        product = creation_op(system, mode) @ annihilation_op(system, mode)
        direct = number_op(system, mode)
        assert abs(product - direct).max() < 1e-12
        pm, dm = product.tocoo(), direct.tocoo()
        assert set(zip(pm.row, pm.col)) == set(zip(dm.row, dm.col))


# ---------------------------------------------------------------------------
# apply / inner_product
# ---------------------------------------------------------------------------


def test_apply_identity():
    system = ModeSystem(2, 0, 3)
    state = FockVector.from_amplitudes(system, {(1, 0): 0.6, (0, 2): 0.8j})
    identity = sparse.identity(system.basis_size, format="csr")
    assert apply(identity, state).allclose(state, 0.0)


def test_apply_number_on_single_photon():
    system = ModeSystem(1, 0, 2)
    one = FockVector.from_amplitudes(system, {(1,): 1.0})
    out = apply(
        creation_op(system, 0) @ annihilation_op(system, 0), one
    )
    assert out.allclose(one, 1e-15)


def test_superposed_single_photon_state():
    # (adag_A + adag_B)/sqrt(2) on the vacuum: equal amplitudes on |1,0>, |0,1>
    system = ModeSystem(2, 0, 3)
    op = (creation_op(system, 0) + creation_op(system, 1)) * (1 / math.sqrt(2))
    state = apply(op, vacuum_state(system))
    assert state.amplitudes[(1, 0)] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[(0, 1)] == pytest.approx(1 / math.sqrt(2))
    assert state.is_normalized


def test_inner_product_orthogonal_basis_vectors():
    system = ModeSystem(2, 0, 2)
    a = FockVector.from_amplitudes(system, {(1, 0): 1.0})
    b = FockVector.from_amplitudes(system, {(0, 1): 1.0})
    assert inner_product(a, b) == 0.0
    assert isinstance(inner_product(a, b), complex)


def test_inner_product_conjugate_linear_left():
    system = ModeSystem(1, 0, 2)
    a = FockVector.from_amplitudes(system, {(1,): 1.0j})
    b = FockVector.from_amplitudes(system, {(1,): 1.0})
    assert inner_product(a, b) == pytest.approx(-1.0j)
    assert inner_product(b, a) == pytest.approx(1.0j)


def test_single_particle_superposition_normalized():
    system = ModeSystem(2, 0, 2)
    s = 1 / math.sqrt(2)
    psi = FockVector.from_amplitudes(system, {(1, 0): s, (0, 1): s})
    assert inner_product(psi, psi) == pytest.approx(1.0)


def test_inner_product_conjugation_with_unequal_supports():
    # regression: the side with more stored amplitudes must still be the
    # conjugated one
    system = ModeSystem(2, 0, 2)
    wide = FockVector.from_amplitudes(system, {(1, 0): 1.0j, (0, 1): 0.5})
    narrow = FockVector.from_amplitudes(system, {(1, 0): 1.0})
    assert inner_product(wide, narrow) == pytest.approx(-1.0j)
    assert inner_product(narrow, wide) == pytest.approx(1.0j)


# ---------------------------------------------------------------------------
# Commutation relations as matrix identities
# ---------------------------------------------------------------------------


def test_ccr_below_cutoff_and_exempt_rows():
    system = ModeSystem(2, 0, 3)
    dim = system.basis_size
    safe = (np.array(list(system.occupations())) <= system.cutoff - 1).all(axis=1)
    for i in range(2):
        for j in range(2):
            comm = (
                annihilation_op(system, i) @ creation_op(system, j)
                - creation_op(system, j) @ annihilation_op(system, i)
            ).toarray()
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.abs(comm - expected)[:, safe].max() < 1e-12
    # the exempt columns are exactly occupation == cutoff: there
    # [a, adag]|c> = -c |c> because the raising transition was dropped
    comm = (
        annihilation_op(system, 0) @ creation_op(system, 0)
        - creation_op(system, 0) @ annihilation_op(system, 0)
    )
    top = FockVector.from_amplitudes(system, {(3, 0): 1.0})
    assert apply(comm, top).amplitudes == {(3, 0): pytest.approx(-3.0)}


def test_car_exact_on_full_space():
    system = ModeSystem(1, 2, 2)
    dim = system.basis_size
    fermions = range(system.boson_modes, system.total_modes)
    for i in fermions:
        for j in fermions:
            anti = (
                annihilation_op(system, i) @ creation_op(system, j)
                + creation_op(system, j) @ annihilation_op(system, i)
            ).toarray()
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.abs(anti - expected).max() == 0.0
            anti_bb = (
                annihilation_op(system, i) @ annihilation_op(system, j)
                + annihilation_op(system, j) @ annihilation_op(system, i)
            )
            assert abs(anti_bb).max() == 0.0


def test_fermion_squared_is_zero():
    system = ModeSystem(0, 3, 1)
    for m in range(3):
        b = annihilation_op(system, m)
        assert abs(b @ b).max() == 0.0
        bd = creation_op(system, m)
        assert abs(bd @ bd).max() == 0.0


def test_species_commute():
    system = ModeSystem(1, 1, 3)
    a, bdag = annihilation_op(system, 0), creation_op(system, 1)
    assert abs(a @ bdag - bdag @ a).max() == 0.0


# ---------------------------------------------------------------------------
# Pruning and normalization bookkeeping
# ---------------------------------------------------------------------------


def test_pruning_threshold():
    system = ModeSystem(1, 0, 2)
    state = FockVector.from_amplitudes(system, {(0,): 1.0, (1,): 1e-15})
    assert (1,) not in state.amplitudes


def test_normalized_flag_tolerance():
    system = ModeSystem(1, 0, 2)
    assert FockVector.from_amplitudes(system, {(0,): 1.0 + 1e-13}).is_normalized
    assert not FockVector.from_amplitudes(system, {(0,): 1.0 + 1e-9}).is_normalized


_REFUSAL_SYSTEM = ModeSystem(2, 0, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: _REFUSAL_SYSTEM.validate_occupation((1,)),
            "occupation tuple has length 1, expected 2",
            id="occupation-length",
        ),
        pytest.param(
            lambda: _REFUSAL_SYSTEM.validate_occupation((0, 4)),
            "occupation 4 invalid for mode 1 (allowed range 0..3)",
            id="occupation-range",
        ),
        pytest.param(
            lambda: FockVector.from_dense(_REFUSAL_SYSTEM, np.zeros(3)),
            "dense vector has length 3, expected 16",
            id="dense-length",
        ),
        pytest.param(
            # 2**20000 states: more digits than Python converts from int to text
            lambda: FockVector.from_dense(ModeSystem(20000, 0, 1), np.zeros(3)),
            "dense vector has length 3, expected 2**20000 * 2**0",
            id="dense-length-too-large-to-print",
        ),
        pytest.param(
            lambda: inner_product(
                vacuum_state(_REFUSAL_SYSTEM), vacuum_state(ModeSystem(2, 0, 4))
            ),
            "states live on different mode systems",
            id="inner-product-systems",
        ),
        pytest.param(
            lambda: heisenberg_residual(BeamSplitter(0, 1), ModeSystem(3, 0, 30)),
            "system too large for a dense Heisenberg check",
            id="heisenberg-too-large",
        ),
    ],
)
def test_explicit_representation_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_normalize_zero_vector():
    system = ModeSystem(1, 0, 2)
    with pytest.raises(ValueError):
        FockVector.from_amplitudes(system, {}).normalized()


@pytest.mark.parametrize("scale", [1e200, 1e308, 1e-170, 1e-300])
def test_norm_scales_amplitudes_whose_squares_leave_the_floats(scale):
    # |1e200|**2 overflows and |1e-170|**2 underflows to 0
    system = ModeSystem(2, 0, 2)
    state = FockVector(system, {(1, 0): 0.6 * scale, (0, 1): 0.8j * scale})
    assert state.norm() == pytest.approx(scale, rel=1e-15)
    unit = state.normalized()
    assert unit.amplitudes[(1, 0)] == pytest.approx(0.6, abs=1e-15)
    assert unit.amplitudes[(0, 1)] == pytest.approx(0.8j, abs=1e-15)
    assert unit.is_normalized
    with pytest.raises(ValueError, match="measurement requires a normalized state"):
        measure(state, (0, 1))


def test_norm_beyond_the_floats_is_inf_and_still_normalizes():
    system = ModeSystem(2, 0, 2)
    state = FockVector(system, {(1, 0): 1.5e308, (0, 1): 1.5e308j})
    assert state.norm() == math.inf
    halves = state.normalized().amplitudes
    assert halves == pytest.approx({(1, 0): 0.5**0.5, (0, 1): 0.5**0.5 * 1j}, abs=1e-16)


def test_ordinary_norm_is_the_plain_sum():
    amplitudes = {(0, 0): 0.1 + 0.3j, (1, 0): -0.2, (0, 2): 0.7j, (2, 1): 0.35 - 0.05j}
    state = FockVector(ModeSystem(2, 0, 2), amplitudes)
    plain = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    assert state.norm() == plain
    unit = state.normalized().amplitudes
    assert unit == {o: a / plain for o, a in amplitudes.items()}


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_constructors_reject_non_finite_amplitudes(bad):
    # abs(nan) >= PRUNE_THRESHOLD is False, so a nan used to be pruned away
    system = ModeSystem(2, 0, 3)
    with pytest.raises(ValueError, match="not finite"):
        FockVector.from_amplitudes(system, {(1, 0): bad})
    dense = np.zeros(system.basis_size, dtype=complex)
    dense[box_index_oracle(system, (1, 0))] = bad
    with pytest.raises(ValueError, match="non-finite"):
        FockVector.from_dense(system, dense)


# ---------------------------------------------------------------------------
# Mode-bipartition entropy
# ---------------------------------------------------------------------------


def test_entropy_product_state():
    system = ModeSystem(2, 0, 2)
    state = FockVector.from_amplitudes(system, {(1, 0): 1.0})
    assert mode_bipartition_entropy(state, [0]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_single_particle_superposition():
    system = ModeSystem(2, 0, 2)
    s = 1 / math.sqrt(2)
    state = FockVector.from_amplitudes(system, {(1, 0): s, (0, 1): s})
    assert mode_bipartition_entropy(state, [0]) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_entropy_two_photon_superposition_matches_oracle():
    system = ModeSystem(2, 0, 2)
    s = 1 / math.sqrt(2)
    state = FockVector.from_amplitudes(system, {(2, 0): s, (0, 2): s})
    got = mode_bipartition_entropy(state, [0])
    assert got == pytest.approx(math.log(2), abs=1e-12)
    assert got == pytest.approx(reduced_density_entropy_oracle(state, [0]), abs=1e-12)


def test_entropy_random_state_matches_oracle_and_complement():
    rng = np.random.default_rng(1)
    system = ModeSystem(3, 0, 2)
    amps = {}
    for occ in system.occupations():
        if sum(occ) <= 2:
            amps[occ] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    state = FockVector.from_amplitudes(system, {k: v / norm for k, v in amps.items()})
    for cut in ([0], [1], [0, 2]):
        left = mode_bipartition_entropy(state, cut)
        complement = [m for m in range(3) if m not in cut]
        assert left == pytest.approx(
            mode_bipartition_entropy(state, complement), abs=1e-12
        )
        assert left == pytest.approx(
            reduced_density_entropy_oracle(state, cut), abs=1e-10
        )


def test_entropy_rejects_bad_partitions():
    system = ModeSystem(2, 0, 2)
    state = FockVector.from_amplitudes(system, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        mode_bipartition_entropy(state, [])
    with pytest.raises(ValueError):
        mode_bipartition_entropy(state, [0, 1])


def test_entropy_rejects_unnormalized():
    system = ModeSystem(2, 0, 2)
    state = FockVector.from_amplitudes(system, {(1, 0): 0.5})
    with pytest.raises(ValueError):
        mode_bipartition_entropy(state, [0])
    nan_state = FockVector(system, {(1, 0): complex(math.nan)})
    with pytest.raises(ValueError, match="normalized"):
        mode_bipartition_entropy(nan_state, [0])


def test_entropy_does_not_depend_on_cutoff():
    # the Schmidt matrix is built on the support, so the same amplitudes give
    # the same bits whatever box holds them
    amplitudes = {(1, 0, 0, 1): 0.6, (0, 1, 1, 0): 0.8j}
    got = {
        float.hex(
            mode_bipartition_entropy(
                FockVector.from_amplitudes(ModeSystem(4, 0, cutoff), amplitudes), [0, 1]
            )
        )
        for cutoff in range(1, 9)
    }
    (entropy,) = got
    expected = -(0.36 * math.log(0.36) + 0.64 * math.log(0.64))
    assert float.fromhex(entropy) == pytest.approx(expected, abs=1e-12)


def test_entropy_schmidt_matrix_spans_the_support(monkeypatch):
    # a single photon shared by 12 modes, split 6/6: the full box at cutoff 6
    # would need a 7**6 x 7**6 matrix, the support needs 7 x 7
    shapes = []
    svd = np.linalg.svd

    def recording(matrix, **kwargs):
        shapes.append(matrix.shape)
        return svd(matrix, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    w_state = {
        tuple(int(m == k) for m in range(12)): 1 / math.sqrt(12) for k in range(12)
    }
    state = FockVector.from_amplitudes(ModeSystem(12, 0, 6), w_state)
    start = time.perf_counter()
    entropy = mode_bipartition_entropy(state, range(6))
    assert time.perf_counter() - start < 1.0
    assert entropy == pytest.approx(math.log(2), abs=1e-12)
    assert shapes == [(7, 7)]


# ---------------------------------------------------------------------------
# Block exponentials, against scipy.linalg.expm
# ---------------------------------------------------------------------------


def _anti_hermitian_stack(rng, size, norms):
    """Random anti-Hermitian matrices with the given 1-norms."""
    shape = (len(norms), size, size)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    k = h - h.conj().transpose(0, 2, 1)
    return k / np.abs(k).sum(axis=1).max(axis=1)[:, None, None] * np.array(norms)[:, None, None]


def _mixed_norms(rng):
    # every Padé degree and scalings up to the refusal bound, shuffled in one stack
    exponents = np.concatenate([np.linspace(-3, 6.3, 12), rng.uniform(-3, 6.3, 12)])
    return rng.permutation(10.0**exponents)


@pytest.mark.parametrize("size", range(1, 7))
def test_block_exponentials_match_scipy_expm(size):
    rng = np.random.default_rng(size)
    norms = _mixed_norms(rng)
    mats = _anti_hermitian_stack(rng, size, norms)
    got = expm_blocks(mats)
    rounding = np.finfo(float).eps * np.maximum(1.0, norms)
    error = np.abs(got - expm(mats)).max(axis=(1, 2))
    assert (error <= 8 * rounding).all(), (error / rounding).max()
    unitarity = np.abs(got @ got.conj().transpose(0, 2, 1) - np.eye(size)).max(axis=(1, 2))
    assert (unitarity <= 8 * rounding).all(), (unitarity / rounding).max()


def test_stacked_block_exponentials_equal_one_at_a_time_bit_for_bit():
    rng = np.random.default_rng(11)
    for size in range(1, 7):
        mats = _anti_hermitian_stack(rng, size, _mixed_norms(rng))
        stacked = expm_blocks(mats)
        for i in range(len(mats)):
            assert expm_blocks(mats[i : i + 1]).tobytes() == stacked[i : i + 1].tobytes()


def test_one_stacked_evaluation_per_degree_and_scaling(monkeypatch):
    # norms 0.01, 0.2, 0.9, 2, 5 pick degrees 3, 5, 7, 9, 13 (0.015 is just
    # above theta_3); 6 and 100 are scaled by 2 and 2**5 and share the
    # degree-13 evaluation of 5
    evaluations = []
    original = fockbench.fock._pade

    def recording(mats, level, squarings):
        evaluations.append((len(mats), level, squarings))
        return original(mats, level, squarings)

    monkeypatch.setattr(fockbench.fock, "_pade", recording)
    norms = [100.0, 0.01, 0.2, 0.9, 2.0, 5.0, 6.0, 0.015]
    expm_blocks(_anti_hermitian_stack(np.random.default_rng(2), 3, norms))
    assert sorted(evaluations) == [
        (1, 0, [0]),
        (1, 2, [0]),
        (1, 3, [0]),
        (2, 1, [0, 0]),
        (3, 4, [5, 0, 1]),
    ]


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_block_with_a_non_finite_entry_gives_a_non_finite_result(size, bad):
    # no exception and no numpy warning (warnings are errors in this suite);
    # the other blocks of the stack are untouched
    mats = _anti_hermitian_stack(np.random.default_rng(3), size, [0.5, 2.0, 40.0])
    mats[1, 0, size - 1] = bad
    got = expm_blocks(mats)
    assert not np.isfinite(got[1]).all()
    assert got[[0, 2]].tobytes() == expm_blocks(mats[[0, 2]]).tobytes()


def test_block_beyond_the_squaring_bound_gives_nan():
    # past MAX_SQUARINGS squarings no digit of the result is right; one
    # bound holds for the closed form and for scaling and squaring alike
    limit = fockbench.fock._PADE_THETA[-1] * 2.0**MAX_SQUARINGS
    for size in (2, 3, 4):
        mats = _anti_hermitian_stack(np.random.default_rng(4), size, [limit, 2.0 * limit])
        got = expm_blocks(mats)
        assert np.isfinite(got[0]).all(), size
        assert np.isnan(got[1]).all(), size
