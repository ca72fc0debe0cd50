"""Two independent circuit evaluators and their comparator.

``evolve_numeric`` works in the explicit truncated representation: each
element's generator becomes a matrix on the occupations reachable from the
input, and the state vector is pushed through its exponential, computed
densely on the blocks the generator leaves invariant (:func:`expm_multiply`).
The search applies each distinct ladder monomial once per state, and
elements with the same modes and monomials share one plan of those blocks,
which also records the blocks that are equal whatever the coefficients.
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
from scipy import sparse
from scipy.linalg import expm

from . import algebra
from .algebra import KetExpression, LadderPolynomial
from .circuit import Circuit, CircuitElement, element_generator
from .fock import (
    FockVector,
    PRUNE_THRESHOLD,
    _CUT_AT_CUTOFF,
    _monomial_image,
    annihilation_op,
    ladder_matrix,
)
from .modes import ModeSystem

#: Refuse to build explicit representations larger than this many basis states.
DEFAULT_BASIS_CAP = 1_000_000

#: The numeric route refuses an element whose restricted generator has an
#: entry of larger modulus.  The dense exponential of the vertex's rotation
#: block [[0, -t], [t, 0]] loses precision as t grows: its worst deviation
#: from the exact route, over 400 random t per band, is 3.3e-10 in
#: [1e6, 2e6], 9.8e-10 in [2e6, 5e6] and 1.5e-9 in [5e6, 1e7], against the
#: default comparison tolerance of 1e-9.
MAX_GENERATOR_ENTRY = 2e6


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


def polynomial_matrix(poly: LadderPolynomial, system: ModeSystem) -> sparse.csr_matrix:
    """Explicit sparse matrix of a ladder polynomial on the truncated basis.

    Built by :func:`~fockbench.fock.ladder_matrix`, which applies each
    monomial to every basis state with the same per-state rule as the
    numeric evolution.
    """
    for factors in poly.terms:
        for symbol in factors:
            if system.species(symbol.mode) != symbol.species:
                raise ValueError(f"symbol {symbol!r} has the wrong species for its mode")
    return ladder_matrix(system, poly.terms)


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


def _reachable_generators(
    system: ModeSystem, monomials, support
) -> tuple[list, dict, bool]:
    """Occupations reachable from ``support`` and each monomial's image on them.

    Breadth-first search inside the cutoff box: every ladder monomial
    shifts occupations by a fixed vector, so the span of the states found
    is invariant under every truncated generator built from ``monomials``.
    Each distinct monomial is applied once per state, however many
    elements share it.  Returns the states in discovery order, a dict
    giving each monomial's matrix entries on them as (rows, columns,
    weights) lists in that order, and whether a bosonic creation was
    dropped at the cutoff from a reachable state.
    """
    images = {factors: ([], [], []) for factors in monomials}
    states = list(support)
    index = {occ: i for i, occ in enumerate(states)}
    cut = False
    # ``states`` grows while it is walked: it is the search queue.
    for col, occ in enumerate(states):
        for factors, (rows, cols, weights) in images.items():
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
                weights.append(weight)
    return states, images, cut


@dataclass(frozen=True)
class _BlockPlan:
    """Where the entries of a generator fall in its invariant blocks.

    Entry ``e`` has the value ``coefficient[term[e]] * weights[e]``.
    ``groups`` holds one ``(size, take, cells, count, same, states)`` per
    block size: the entries ``take`` go to the flat ``cells`` of ``count``
    representative blocks, block ``i`` of that size equals representative
    ``same[i]``, and ``states[i]`` are its rows in basis order.
    """

    term: np.ndarray
    weights: np.ndarray
    groups: tuple


def _block_plan(occupations: np.ndarray, rank, modes, images) -> _BlockPlan:
    """Block plan shared by every generator on ``modes`` with these monomials.

    ``images`` holds, per monomial in term order, its (rows, columns,
    weights) lists in discovery order, which ``rank`` maps to the rows of
    ``occupations``.  States that agree on every mode outside ``modes``
    form a block that the generator maps into itself.  Blocks of one size
    whose cells receive the same weights of the same terms are equal for
    any coefficients; the first of them represents the others.
    """
    n = len(occupations)
    outside = occupations[:, [m for m in range(occupations.shape[1]) if m not in modes]]
    # The index key keeps each block's states in basis order, and is the
    # only key when the element acts on every mode.
    order = np.lexsort((np.arange(n), *outside.T))
    first = np.ones(n, dtype=bool)
    first[1:] = (outside[order[1:]] != outside[order[:-1]]).any(axis=1)
    starts = np.flatnonzero(first)
    grouped = np.cumsum(first) - 1
    sizes = np.bincount(grouped)
    block = np.empty(n, dtype=np.int64)
    block[order] = grouped
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n) - starts[grouped]
    # Entries run term by term: the order in which a cell's values are summed.
    term = np.repeat(np.arange(len(images)), [len(w) for _, _, w in images])
    rows = rank[[r for image in images for r in image[0]]]
    cols = rank[[c for image in images for c in image[1]]]
    weights = np.array([w for image in images for w in image[2]], dtype=float)
    slot = np.empty(len(starts), dtype=np.int64)
    entry_blocks = block[rows]
    entry_sizes = sizes[entry_blocks]
    groups = []
    for size in sorted(set(sizes.tolist())):
        (members,) = np.nonzero(sizes == size)
        (mine,) = np.nonzero(entry_sizes == size)
        inner = position[rows[mine]] * size + position[cols[mine]]
        if len(members) == 1:  # nothing to compare, which small circuits often meet
            take, cells, count, same = mine, inner, 1, np.zeros(1, dtype=np.int64)
        else:
            slot[members] = np.arange(len(members))
            where = slot[entry_blocks[mine]]
            pattern = np.zeros((len(members), len(images), size * size))
            pattern[where, term[mine], inner] = weights[mine]
            # Each block's index, or that of the first block with its pattern.
            firsts: dict[bytes, int] = {}
            leader = [firsts.setdefault(p.tobytes(), i) for i, p in enumerate(pattern)]
            count = len(firsts)
            representative = np.full(len(members), -1)
            representative[list(firsts.values())] = np.arange(count)
            target = representative[where]
            kept = target >= 0
            take, cells = mine[kept], target[kept] * size * size + inner[kept]
            same = representative[leader]
        states = order[starts[members][:, np.newaxis] + np.arange(size)]
        groups.append((size, take, cells, count, same, states))
    return _BlockPlan(term, weights, tuple(groups))


def expm_multiply(plan: _BlockPlan, values: np.ndarray, vec) -> np.ndarray:
    """exp(K) @ ``vec`` for a generator K with the block structure ``plan``.

    ``values`` holds K's entries in the plan's entry order.  K maps each
    block of the plan into itself, so exp(K) is block diagonal.  Only the
    representative blocks are filled and exponentiated, by scaling and
    squaring (:func:`scipy.linalg.expm`, all blocks of one size in one
    batched call), whose cost grows with log ||K|| where a Taylor series
    grows with ||K||; each block's states are then multiplied by its
    representative's exponential, one batched product per size.  The
    function keeps the name of the scipy action it replaced because the
    benchmark tracer (``perfbench/tracer.py``) times the numeric
    exponential under ``backends.expm_multiply``.
    """
    out = np.empty_like(vec)
    for size, take, cells, count, same, states in plan.groups:
        mats = np.zeros(count * size * size, dtype=complex)
        np.add.at(mats, cells, values[take])
        mats = expm(mats.reshape(count, size, size))
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
    generator's invariant blocks on the set.  The blocks depend only on the
    element's shape, its modes and ladder monomials, not on its
    coefficients: elements of one shape share one :func:`_block_plan`, and
    each element exponentiates one representative block per weight pattern.
    The blocks it skips are bitwise equal to their representative, and
    each cell sums its values in term order, so sharing moves no amplitude
    bit.  The resulting norm stays
    within 1e-10 of the input norm because every generator is
    anti-Hermitian; a ``ValueError`` names the first element, if any, that
    makes an amplitude inf or nan, or whose generator on the set has an
    entry above :data:`MAX_GENERATOR_ENTRY`.

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
    generators = {
        k: element_generator(element, system).terms
        for k, element in enumerate(circuit.elements)
        if element.number_phases is None
    }
    monomials = dict.fromkeys(f for terms in generators.values() for f in terms)
    states, images, search_cut = _reachable_generators(system, monomials, start)
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
    plans: dict[tuple, _BlockPlan] = {}
    # An overflow shows as a non-finite amplitude, reported by _require_finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, element in enumerate(circuit.elements):
            if element.number_phases is not None:
                for key, value in element.number_phases.items():
                    angle = value
                    for m in key:
                        angle = angle * occ_array[:, m]
                    vec = vec * np.exp(1j * angle)
                largest = 0.0
            else:
                terms = generators[k]
                shape = (element.modes, tuple(terms))
                plan = plans.get(shape)
                if plan is None:
                    plan = plans[shape] = _block_plan(
                        occ_array, rank, element.modes, [images[f] for f in terms]
                    )
                coefficients = np.array(list(terms.values()), dtype=complex)
                values = coefficients[plan.term] * plan.weights
                vec = expm_multiply(plan, values, vec)
                largest = np.abs(values).max(initial=0.0)
            _require_finite(np.isfinite(vec).all(), k, element)
            if largest > MAX_GENERATOR_ENTRY:
                raise ValueError(
                    f"element {k + 1} ({type(element).__name__}) has a generator "
                    f"entry of modulus {largest:.3g}, above {MAX_GENERATOR_ENTRY:.0e}, "
                    "where the numeric exponential loses precision"
                )
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
    """Expectations of every mode from one pass over the ket
    (:func:`~fockbench.algebra.number_expectations`), and the joint
    distribution from :func:`~fockbench.algebra.joint_number_distribution`.
    """
    expectations = algebra.number_expectations(state, modes)
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
        raise ValueError(f"measurement requires a normalized state (norm {norm:.12g})")
    if isinstance(state, FockVector):
        return _measure_fock(state, modes, norm)
    return _measure_ket(state, modes, norm)


def compare_reports(
    numeric: MeasurementReport, symbolic: MeasurementReport, tol: float = 1e-9
) -> ComparisonReport:
    """Compare every quantity of two measurement reports.

    Deviations are absolute differences of detector expectations and of
    every joint-outcome probability (all bounded by 1); the verdict is
    "pass" exactly when the largest deviation is below ``tol``, which must
    be finite and positive: under nan every run would fail, under inf every
    run would pass.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
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

    Builds the numeric S = exp(K) from the explicit generator matrix, whose
    entries come from the same per-state ladder rule as the numeric
    evolution, and compares against the element's mode matrix, restricted
    to input basis vectors whose total bosonic occupation on the element's
    modes is at most cutoff - 1; columns that can reach the truncation
    level are exempt because the cut basis cannot represent them faithfully.
    """
    if not element.linear:
        raise ValueError("the Heisenberg relation applies to linear elements only")
    if system.basis_size > 20_000:
        raise ValueError("system too large for a dense Heisenberg check")
    b = element.mode_matrix()
    modes = element.modes
    gen = polynomial_matrix(element_generator(element, system), system)
    s = expm(gen.toarray())

    occupations = np.array(list(system.occupations()))
    bosons = [m for m in modes if system.is_boson(m)]
    safe = occupations[:, bosons].sum(axis=1) <= system.cutoff - 1

    ladders = [annihilation_op(system, m).toarray() for m in modes]
    worst = 0.0
    for j, _ in enumerate(modes):
        expected = sum(b[j, k] * ladders[k] for k in range(len(modes)))
        residual = s.conj().T @ ladders[j] @ s - expected
        worst = max(worst, float(np.linalg.norm(residual[:, safe], 2)))
    return worst
