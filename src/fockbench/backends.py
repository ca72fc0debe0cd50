"""Two independent circuit evaluators and their comparator.

``evolve_numeric`` works in the explicit truncated representation: each
element's generator becomes a matrix on the occupations reachable from the
input, and the state vector is pushed through its exponential, computed
densely on the blocks the generator leaves invariant (:func:`expm_multiply`).
``evolve_symbolic`` never touches a basis: linear elements act by
substitution on creation symbols, number-diagonal elements by exact
phases, and the annihilation vertex by its closed-form exponential.
``compare_backends`` turns the physical claim that both routes agree into
an executable check.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import algebra
from .algebra import KetExpression, LadderPolynomial
from .circuit import Circuit, CircuitElement, element_generator
from .fock import (
    FockVector,
    PRUNE_THRESHOLD,
    SparseOperator,
    annihilation_op,
    creation_op,
    identity_op,
)
from .modes import ModeSystem

#: Refuse to build explicit representations larger than this many basis states.
DEFAULT_BASIS_CAP = 1_000_000


class TruncationWarning(UserWarning):
    """The input already exceeds what the truncated basis can hold."""


@dataclass(frozen=True)
class MeasurementReport:
    """Number-operator detector statistics over the measured modes."""

    measured_modes: tuple[int, ...]
    expectations: dict
    distribution: dict
    norm: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-quantity absolute deviations between the two backends."""

    deviations: dict
    max_deviation: float
    tolerance: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


# ---------------------------------------------------------------------------
# Bridges between the algebra and the explicit representation
# ---------------------------------------------------------------------------


def polynomial_matrix(poly: LadderPolynomial, system: ModeSystem) -> SparseOperator:
    """Explicit sparse matrix of a ladder polynomial on the truncated basis."""
    total = None
    for factors, coeff in poly.terms.items():
        term = identity_op(system)
        for symbol in factors:
            if system.species(symbol.mode) != symbol.species:
                raise ValueError(f"symbol {symbol!r} has the wrong species for its mode")
            op = (
                creation_op(system, symbol.mode)
                if symbol.dagger
                else annihilation_op(system, symbol.mode)
            )
            term = term @ op
        term = coeff * term
        total = term if total is None else total + term
    if total is None:
        return 0.0 * identity_op(system)
    return total


#: Returned by :func:`_monomial_image` when a bosonic creation meets the cutoff.
_CUT_AT_CUTOFF = "cut at cutoff"


def _monomial_image(system: ModeSystem, factors, occ: tuple[int, ...]):
    """Truncated image of one occupation basis vector under a ladder monomial.

    Applies ``factors`` right to left with the rules of
    :func:`~fockbench.fock.creation_op` and
    :func:`~fockbench.fock.annihilation_op`: bosonic weights sqrt(n+1) up
    and sqrt(n) down, the transition out of ``n == cutoff`` dropped, and
    Jordan-Wigner signs over the fermionic modes.  Returns
    ``(occupation, weight)``, ``None`` when the ladder rules annihilate the
    vector, or :data:`_CUT_AT_CUTOFF` when only the truncation does.
    """
    occ = list(occ)
    weight = 1.0
    for symbol in reversed(factors):
        m = symbol.mode
        if m < system.boson_modes:
            if symbol.dagger:
                if occ[m] == system.cutoff:
                    return _CUT_AT_CUTOFF
                occ[m] += 1
                weight *= math.sqrt(occ[m])
            else:
                if occ[m] == 0:
                    return None
                weight *= math.sqrt(occ[m])
                occ[m] -= 1
        else:
            if occ[m] == int(symbol.dagger):
                return None
            if sum(occ[system.boson_modes : m]) % 2 == 1:
                weight = -weight
            occ[m] = int(symbol.dagger)
    return tuple(occ), weight


def _ket_amplitudes(ket: KetExpression) -> tuple[dict, bool]:
    """Amplitudes of a creation-monomial ket, and whether any monomial was
    dropped for exceeding the cutoff.
    """
    vacuum = ket.system.vacuum_occupation()
    amps: dict[tuple[int, ...], complex] = {}
    cut = False
    for factors, coeff in ket.poly.terms.items():
        image = _monomial_image(ket.system, factors, vacuum)
        if image is _CUT_AT_CUTOFF:
            cut = True
        elif image is not None:
            occ, weight = image
            amps[occ] = amps.get(occ, 0.0 + 0.0j) + complex(coeff) * weight
    return amps, cut


def ket_to_fock(ket: KetExpression) -> FockVector:
    """Evaluate a creation-monomial ket in the explicit representation.

    Applies each monomial's creation symbols with the same truncated
    ladder rules as the numeric evolution.  Monomials that push a bosonic
    mode past the cutoff have no truncated image and are dropped.
    """
    amps, _ = _ket_amplitudes(ket)
    return FockVector.from_amplitudes(ket.system, amps)


# ---------------------------------------------------------------------------
# Numeric backend
# ---------------------------------------------------------------------------


def _reachable_generators(circuit: Circuit, support) -> tuple[list, dict, bool]:
    """Occupations reachable from ``support`` and the generators on them.

    Breadth-first search inside the cutoff box: every monomial of every
    generator shifts occupations by a fixed vector, so the span of the
    states found is invariant under each truncated generator.  The same
    pass records, per element position, the generator's matrix entries as
    (rows, columns, values) lists indexed in discovery order, and whether a
    bosonic creation was dropped at the cutoff from a reachable state.
    Elements with ``number_phases`` are number-diagonal: they reach nothing
    new and get no entries.
    """
    system = circuit.system
    generators = {
        k: list(element_generator(element, system).terms.items())
        for k, element in enumerate(circuit.elements)
        if element.number_phases is None
    }
    entries = {k: ([], [], []) for k in generators}
    states = list(support)
    index = {occ: i for i, occ in enumerate(states)}
    cut = False
    # ``states`` grows while it is walked: it is the search queue.
    for col, occ in enumerate(states):
        for k, terms in generators.items():
            rows, cols, values = entries[k]
            for factors, coeff in terms:
                image = _monomial_image(system, factors, occ)
                if image is _CUT_AT_CUTOFF:
                    cut = True
                elif image is not None:
                    target, weight = image
                    row = index.setdefault(target, len(states))
                    if row == len(states):
                        states.append(target)
                    rows.append(row)
                    cols.append(col)
                    values.append(coeff * weight)
    return states, entries, cut


def expm_multiply(entries, occupations, modes, vec) -> np.ndarray:
    """exp(K) @ ``vec`` for a generator K that changes occupations only on
    ``modes``.

    ``entries`` holds K's (rows, columns, values) as arrays indexing the
    rows of ``occupations``, one state each.  States that agree on every
    mode outside ``modes`` form a block that K maps into itself, so exp(K)
    is block diagonal.  Each distinct block is exponentiated once by
    scaling and squaring (:func:`scipy.linalg.expm`, all blocks of one
    size in one batched call), whose cost grows with log ||K|| where a
    Taylor series grows with ||K||, and applied to its states' amplitudes.
    The function keeps the name of the scipy action it replaced because
    the benchmark tracer (``perfbench/tracer.py``) times the numeric
    exponential under ``backends.expm_multiply``.
    """
    rows, cols, values = entries
    n = len(occupations)
    outside = occupations[:, [m for m in range(occupations.shape[1]) if m not in modes]]
    # The index key keeps each block's states in basis order, and is the
    # only key when the element acts on every mode.
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
        # Each block's index, or that of the first block equal to it.
        firsts: dict[bytes, int] = {}
        same = [firsts.setdefault(mat.tobytes(), i) for i, mat in enumerate(mats)]
        distinct = list(firsts.values())
        mats[distinct] = expm(mats[distinct])
        states = order[starts[members][:, np.newaxis] + np.arange(size)]
        out[states] = np.matmul(mats[same], vec[states][..., np.newaxis])[..., 0]
    return out


def _require_finite(finite: bool, k: int, element: CircuitElement) -> None:
    """Fail at the element that first makes an amplitude inf or nan."""
    if not finite:
        name = type(element).__name__
        raise ValueError(f"element {k + 1} ({name}) makes an amplitude non-finite")


def evolve_numeric(
    circuit: Circuit, *, max_basis_size: int = DEFAULT_BASIS_CAP
) -> FockVector:
    """Evolve through each element's matrix exponential.

    The evolution runs on the occupations reachable from the input's
    support inside the cutoff box, found by breadth-first search over the
    generators' ladder monomials.  Each truncated generator maps that set
    into itself, so the result equals the full-box evolution amplitude by
    amplitude.  Elements with ``number_phases`` have number-diagonal
    generators, so their exponentials are applied as exact phases read
    from the set's occupations; all other elements go through
    :func:`expm_multiply`, dense scaling-and-squaring exponentials of the
    generator's invariant blocks on the set.  The resulting norm stays
    within 1e-10 of the input norm because every generator is
    anti-Hermitian; a ``ValueError`` names the first element, if any, that
    makes an amplitude inf or nan.

    ``max_basis_size`` caps the full box, ``system.basis_size``, not the
    reachable set.  A :class:`TruncationWarning` is raised when an input
    monomial exceeds the cutoff, or when the search meets a bosonic
    creation dropped at the cutoff from a reachable state: the truncated
    evolution is then not the physical one.
    """
    system = circuit.system
    if system.basis_size > max_basis_size:
        raise ValueError(
            f"basis size {system.basis_size} exceeds the memory cap "
            f"{max_basis_size}; lower the cutoff or raise max_basis_size"
        )
    amps, input_cut = _ket_amplitudes(circuit.input_state)
    start = FockVector.from_amplitudes(system, amps).amplitudes
    states, entries, search_cut = _reachable_generators(circuit, start)
    if input_cut or search_cut:
        warnings.warn(
            "the input or the circuit needs a bosonic occupation above the "
            "cutoff; the truncated evolution is not exact",
            TruncationWarning,
            stacklevel=2,
        )
    if not states:
        return FockVector(system, {})
    # Basis order keeps the restricted matrices principal submatrices of the
    # full-box ones, entry for entry.
    order = sorted(range(len(states)), key=states.__getitem__)
    rank = np.empty(len(states), dtype=np.int64)
    rank[order] = np.arange(len(states))
    occupations = [states[i] for i in order]
    occ_array = np.array(occupations, dtype=np.int64)
    vec = np.array([start.get(occ, 0.0) for occ in occupations], dtype=complex)
    # An overflow shows as a non-finite amplitude, reported by _require_finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, element in enumerate(circuit.elements):
            if element.number_phases is not None:
                for key, value in element.number_phases.items():
                    angle = value
                    for m in key:
                        angle = angle * occ_array[:, m]
                    vec = vec * np.exp(1j * angle)
            else:
                rows, cols, values = entries[k]
                restricted = (rank[rows], rank[cols], np.array(values, dtype=complex))
                vec = expm_multiply(restricted, occ_array, element.modes, vec)
            _require_finite(np.isfinite(vec).all(), k, element)
    (hits,) = np.nonzero(np.abs(vec) >= PRUNE_THRESHOLD)
    return FockVector(system, {occupations[i]: complex(vec[i]) for i in hits})


# ---------------------------------------------------------------------------
# Symbolic backend
# ---------------------------------------------------------------------------


def evolve_symbolic(circuit: Circuit) -> KetExpression:
    """Evolve by pure operator algebra; no cutoff is involved anywhere.

    Elements with ``number_phases`` multiply monomials by exact phases,
    other linear elements substitute creation symbols through their mode
    matrix, and the rest go through
    :func:`~fockbench.algebra.apply_vertex_exponential`, which is exact at
    any angle and rejects any generator but the annihilation vertex's.  No
    element uses the power series.  A ``ValueError`` names the first
    element, if any, that makes a coefficient inf or nan.
    """
    ket = circuit.input_state
    for k, element in enumerate(circuit.elements):
        if element.number_phases is not None:
            ket = algebra.apply_number_diagonal(element.number_phases, ket)
        elif element.linear:
            ket = algebra.substitute_modes(ket, element.mode_matrix(), element.modes)
        else:
            ket = algebra.apply_vertex_exponential(
                element_generator(element, circuit.system), ket, *element.modes
            )
        # The coefficients of a normalized ket are at most 1 in modulus, so
        # their sum is finite exactly when each of them is.
        _require_finite(cmath.isfinite(sum(ket.poly.terms.values())), k, element)
    return ket


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _measure_fock(
    state: FockVector, modes: tuple[int, ...], norm: float
) -> MeasurementReport:
    expectations = {m: 0.0 for m in modes}
    distribution: dict[tuple[int, ...], float] = {}
    for occ, amp in state.amplitudes.items():
        p = abs(amp) ** 2
        for m in modes:
            expectations[m] += p * occ[m]
        key = tuple(occ[m] for m in modes)
        distribution[key] = distribution.get(key, 0.0) + p
    return MeasurementReport(modes, expectations, distribution, norm)


def _measure_ket(
    state: KetExpression, modes: tuple[int, ...], norm: float
) -> MeasurementReport:
    expectations = {m: algebra.number_expectation(state, m) for m in modes}
    distribution = algebra.joint_number_distribution(state, modes)
    return MeasurementReport(modes, expectations, distribution, norm)


def measure(state, modes) -> MeasurementReport:
    """Detector statistics (N = adag a per mode) over ``modes``.

    Works on either backend's output.  For a :class:`FockVector` the
    statistics are read from basis amplitudes; for a
    :class:`KetExpression` they are evaluated through vacuum expectations
    of normal-ordered number insertions, never through any basis.
    """
    if not isinstance(state, (FockVector, KetExpression)):
        raise TypeError("measure expects a FockVector or a KetExpression")
    modes = tuple(sorted(set(int(m) for m in modes)))
    if not modes:
        raise ValueError("at least one mode must be measured")
    for m in modes:
        state.system.validate_mode(m)
    norm = state.norm()
    if not abs(norm - 1.0) <= 1e-8:  # a nan norm fails too
        raise ValueError(f"measurement requires a normalized state (norm {norm:.6g})")
    if isinstance(state, FockVector):
        return _measure_fock(state, modes, norm)
    return _measure_ket(state, modes, norm)


def compare_reports(
    numeric: MeasurementReport, symbolic: MeasurementReport, tol: float = 1e-9
) -> ComparisonReport:
    """Compare every quantity of two measurement reports.

    Deviations are absolute differences of detector expectations and of
    every joint-outcome probability (all bounded by 1); the verdict is
    "pass" exactly when the largest deviation is below ``tol``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    deviations: dict[str, float] = {}
    for m in numeric.measured_modes:
        deviations[f"N{m + 1}"] = abs(
            numeric.expectations[m] - symbolic.expectations[m]
        )
    patterns = set(numeric.distribution) | set(symbolic.distribution)
    for pattern in sorted(patterns):
        label = "P(" + ",".join(str(n) for n in pattern) + ")"
        deviations[label] = abs(
            numeric.distribution.get(pattern, 0.0)
            - symbolic.distribution.get(pattern, 0.0)
        )
    max_deviation = max(deviations.values(), default=0.0)
    verdict = "pass" if max_deviation < tol else "fail"
    return ComparisonReport(deviations, max_deviation, tol, verdict)


def compare_backends(circuit: Circuit, tol: float = 1e-9) -> ComparisonReport:
    """Run both backends on ``circuit`` and compare their reports."""
    numeric = measure(evolve_numeric(circuit), circuit.measured_modes)
    symbolic = measure(evolve_symbolic(circuit), circuit.measured_modes)
    return compare_reports(numeric, symbolic, tol)


# ---------------------------------------------------------------------------
# Heisenberg-picture residual
# ---------------------------------------------------------------------------


def heisenberg_residual(element: CircuitElement, system: ModeSystem) -> float:
    """Largest operator-norm violation of Sdag a_j S = sum_k B_jk a_k.

    Builds the numeric S = exp(K) and compares against the element's mode
    matrix, restricted to input basis vectors whose total bosonic
    occupation on the element's modes is at most cutoff - 1; columns that
    can reach the truncation level are exempt because the cut basis cannot
    represent them faithfully.
    """
    if not element.linear:
        raise ValueError("the Heisenberg relation applies to linear elements only")
    if system.basis_size > 20_000:
        raise ValueError("system too large for a dense Heisenberg check")
    b = element.mode_matrix()
    modes = element.modes
    gen = polynomial_matrix(element_generator(element, system), system)
    s = expm(gen.matrix.toarray())

    idx = np.arange(system.basis_size, dtype=np.int64)
    boson_total = np.zeros(system.basis_size, dtype=np.int64)
    for m in modes:
        if system.is_boson(m):
            boson_total += system.occupation_digits(idx, m)
    safe = boson_total <= system.cutoff - 1

    ladders = [annihilation_op(system, m).matrix.toarray() for m in modes]
    worst = 0.0
    for j, _ in enumerate(modes):
        expected = sum(b[j, k] * ladders[k] for k in range(len(modes)))
        residual = s.conj().T @ ladders[j] @ s - expected
        worst = max(worst, float(np.linalg.norm(residual[:, safe], 2)))
    return worst
