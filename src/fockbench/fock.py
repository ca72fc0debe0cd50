"""Explicit truncated Fock representation and the numeric route.

This is the representation-dependent half of the simulator.  There is one
distinguished vacuum, the basis vector ``(1, 0, 0, ...)``, and every state
is a finite complex combination of occupation basis vectors.  Dense
vectors and matrices index the box in the order :attr:`ModeSystem.shape
<fockbench.modes.ModeSystem.shape>` states, through ``np.ravel_multi_index``
and ``np.unravel_index``; matrices are plain ``scipy.sparse.csr_matrix``,
and building one is what loads ``scipy.sparse``.
The truncated ladder rules live in one per-state kernel,
:func:`_monomial_image`: bosonic creation drops the transition out of the
cutoff level, fermionic operators carry Jordan-Wigner signs over the
fermionic modes.  :func:`ladder_matrix` applies it to every state of the
box to build the explicit sparse matrices, and the numeric evolution to
the states it reaches, so both run the same rules.

``evolve_numeric`` is the explicit route: each element's generator
becomes a matrix on the occupations reachable from the input, and the
state vector is pushed through its exponential, computed densely on the
blocks the generator leaves invariant (:func:`expm_multiply`, which loads
``scipy.linalg`` at its first call; the route builds no sparse matrix, so
importing this module or running either route loads no ``scipy.sparse``).
The search applies each distinct ladder monomial once per state, and
elements with the same modes and monomials share one plan of those blocks,
which also records the blocks that are equal whatever the coefficients.
Neither reads a coefficient, so both are compiled once per circuit shape
(the mode system, the input support, and each element's modes and
monomials) and kept in a cache of :data:`LAYOUT_CACHE_SIZE` shapes; a run
that finds its shape there skips them, and no amplitude bit moves.
The route reads the algebra only to build generators and input kets; its
statistics go into the reports of :mod:`fockbench.backends`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .algebra import KetExpression, LadderPolynomial, LadderSymbol
from .circuit import Circuit, CircuitElement, element_generator
from .modes import ModeSystem

if TYPE_CHECKING:  # scipy loads where a matrix is built or exponentiated
    from scipy import sparse

#: Stored amplitudes smaller than this are dropped.  Chosen below the
#: double-precision accumulation noise of circuits with at most ~10 elements.
PRUNE_THRESHOLD = 1e-14

#: A state counts as normalized when |<psi|psi> - 1| stays below this.
NORMALIZED_ATOL = 1e-12

#: Refuse to build explicit representations larger than this many basis states.
DEFAULT_BASIS_CAP = 1_000_000

#: The numeric route refuses an element whose restricted generator has an
#: entry of larger modulus.  The dense exponential of the vertex's rotation
#: block [[0, -t], [t, 0]] loses precision as t grows: its worst deviation
#: from the exact route, over 400 random t per band, is 3.3e-10 in
#: [1e6, 2e6], 9.8e-10 in [2e6, 5e6] and 1.5e-9 in [5e6, 1e7], against the
#: default comparison tolerance of 1e-9.
MAX_GENERATOR_ENTRY = 2e6

#: Circuit shapes whose numeric layout (reachable set and block plans)
#: :func:`evolve_numeric` keeps compiled.  The benchmark's workloads need at
#: most six: the vertex, the single-photon splitter and four CNOT inputs.
#: One mesh M=10 layout (2 002 reachable states) holds about
#: 0.65 MiB, so a full cache of those stays near 10 MiB.
LAYOUT_CACHE_SIZE = 16


class TruncationWarning(UserWarning):
    """The input already exceeds what the truncated basis can hold."""


@dataclass(frozen=True)
class FockVector:
    """Sparse complex superposition of occupation basis states.

    Values are immutable by contract: every operation builds a fresh
    instance, so treat the amplitude map as read-only.
    """

    system: ModeSystem
    amplitudes: dict

    @classmethod
    def from_amplitudes(cls, system: ModeSystem, amplitudes: Mapping) -> "FockVector":
        clean = {}
        for occ, amp in amplitudes.items():
            occ = tuple(int(n) for n in occ)
            system.validate_occupation(occ)
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude of {occ} is not finite: {amp}")
            if abs(amp) >= PRUNE_THRESHOLD:
                clean[occ] = amp
        return cls(system, clean)

    @classmethod
    def from_dense(cls, system: ModeSystem, vector: np.ndarray) -> "FockVector":
        vector = np.asarray(vector).reshape(-1)
        if vector.shape[0] != system.basis_size:
            raise ValueError(
                f"dense vector has length {vector.shape[0]}, "
                f"expected {system.basis_size}"
            )
        if not np.isfinite(vector).all():
            raise ValueError("dense vector has a non-finite amplitude")
        (hits,) = np.nonzero(np.abs(vector) >= PRUNE_THRESHOLD)
        occupations = np.transpose(np.unravel_index(hits, system.shape)).tolist()
        return cls(
            system,
            {tuple(occ): complex(vector[i]) for occ, i in zip(occupations, hits)},
        )

    def to_dense(self) -> np.ndarray:
        vec = np.zeros(self.system.basis_size, dtype=complex)
        vec[_box_indices(self.system, list(self.amplitudes))] = list(
            self.amplitudes.values()
        )
        return vec

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) < NORMALIZED_ATOL

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.system, {o: a / n for o, a in self.amplitudes.items()})

    def allclose(self, other: "FockVector", atol: float = 1e-12) -> bool:
        if self.system != other.system:
            return False
        keys = set(self.amplitudes) | set(other.amplitudes)
        return all(
            abs(self.amplitudes.get(k, 0.0) - other.amplitudes.get(k, 0.0)) <= atol
            for k in keys
        )

    def __repr__(self):
        parts = ", ".join(
            f"{occ}: {amp:.6g}" for occ, amp in sorted(self.amplitudes.items())
        )
        return f"FockVector({parts})"


def vacuum_state(system: ModeSystem) -> FockVector:
    """The state with amplitude 1 on the all-zeros occupation."""
    return FockVector(system, {system.vacuum_occupation(): 1.0 + 0.0j})


#: Returned by :func:`_monomial_image` when a bosonic creation meets the cutoff.
_CUT_AT_CUTOFF = "cut at cutoff"


def _monomial_image(system: ModeSystem, factors, occ: tuple[int, ...]):
    """Truncated image of one occupation basis vector under a ladder monomial.

    Applies ``factors`` right to left: bosonic weights sqrt(n+1) up and
    sqrt(n) down, the transition out of ``n == cutoff`` dropped, and
    Jordan-Wigner signs ``(-1)**(number of occupied fermionic modes with a
    smaller index)``.  No other code writes the truncated ladder rules.
    Returns ``(occupation, weight)``, ``None`` when the ladder rules
    annihilate the vector, or :data:`_CUT_AT_CUTOFF` when only the
    truncation does.
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


def _box_indices(system: ModeSystem, occupations: list) -> np.ndarray:
    """Basis indices of occupation tuples, in the order of ``system.shape``."""
    multi_index = np.array(occupations, dtype=np.intp).reshape(-1, system.total_modes)
    return np.ravel_multi_index(multi_index.T, system.shape)


def ladder_matrix(system: ModeSystem, terms: Mapping) -> sparse.csr_matrix:
    """Sparse matrix of ``sum(coeff * monomial)`` over ``terms`` on the full box.

    ``terms`` maps ladder monomials (tuples of symbols) to coefficients.
    Each monomial goes through :func:`_monomial_image` on every basis state,
    the per-state rule the numeric evolution runs, and entries that meet in
    one cell are summed in term order.
    """
    from scipy import sparse

    occupations = list(system.occupations())
    targets, cols, data = [], [], []
    for factors, coeff in terms.items():
        for col, occ in enumerate(occupations):
            image = _monomial_image(system, factors, occ)
            if image is not None and image is not _CUT_AT_CUTOFF:
                target, weight = image
                targets.append(target)
                cols.append(col)
                data.append(coeff * weight)
    dim = system.basis_size
    rows = _box_indices(system, targets)
    return sparse.coo_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(dim, dim)
    ).tocsr()


@lru_cache(maxsize=None)
def creation_op(system: ModeSystem, mode: int) -> sparse.csr_matrix:
    """Matrix of the creation operator on the truncated basis.

    Built by :func:`ladder_matrix` from the single creation symbol on
    ``mode``, so its entries are the kernel's: ``sqrt(n+1)`` for a bosonic
    mode below the cutoff, a Jordan-Wigner sign for an empty fermionic
    mode.  Returned matrices are cached per (system, mode) and must not be
    mutated.
    """
    symbol = LadderSymbol(mode, system.species(mode), True)
    return ladder_matrix(system, {(symbol,): 1.0})


@lru_cache(maxsize=None)
def annihilation_op(system: ModeSystem, mode: int) -> sparse.csr_matrix:
    """Adjoint of :func:`creation_op`; annihilates the vacuum exactly."""
    return creation_op(system, mode).conj().T.tocsr()


@lru_cache(maxsize=None)
def number_op(system: ModeSystem, mode: int) -> sparse.csr_matrix:
    """Diagonal matrix whose entry on each basis vector is its occupation."""
    from scipy import sparse

    system.validate_mode(mode)
    dim = system.basis_size
    occ = np.array([n[mode] for n in system.occupations()], dtype=complex)
    mat = sparse.dia_matrix((occ[np.newaxis, :], [0]), shape=(dim, dim)).tocsr()
    mat.eliminate_zeros()
    return mat


def inner_product(left: FockVector, right: FockVector) -> complex:
    """<left|right>, conjugate-linear in the left argument."""
    if left.system != right.system:
        raise ValueError("states live on different mode systems")
    l_amp, r_amp = left.amplitudes, right.amplitudes
    if len(l_amp) <= len(r_amp):
        return sum(
            (amp.conjugate() * r_amp[occ] for occ, amp in l_amp.items() if occ in r_amp),
            0j,
        )
    return sum(
        (l_amp[occ].conjugate() * amp for occ, amp in r_amp.items() if occ in l_amp),
        0j,
    )


def mode_bipartition_entropy(state: FockVector, left_modes) -> float:
    """Von Neumann entropy (nats) of the reduced state on ``left_modes``.

    Traces out the complement of ``left_modes`` on the state's support: the
    Schmidt matrix has one row per distinct occupation pattern of the left
    modes among the stored amplitudes and one column per pattern of the
    right modes, so the same amplitudes give the same entropy at any
    cutoff.  The partition must be a proper nonempty subset of the modes
    and the state must be normalized.
    """
    system = state.system
    left = sorted(set(int(m) for m in left_modes))
    for m in left:
        system.validate_mode(m)
    if not left or len(left) == system.total_modes:
        raise ValueError("partition must be a proper nonempty subset of the modes")
    if not abs(state.norm() - 1.0) <= 1e-9:  # a nan norm fails too
        raise ValueError("entropy requires a normalized state")

    right = [m for m in range(system.total_modes) if m not in left]
    occupations = np.array(list(state.amplitudes))
    lefts, row = np.unique(occupations[:, left], axis=0, return_inverse=True)
    rights, col = np.unique(occupations[:, right], axis=0, return_inverse=True)
    coeff = np.zeros((len(lefts), len(rights)), dtype=complex)
    coeff[row, col] = list(state.amplitudes.values())

    schmidt = np.linalg.svd(coeff, compute_uv=False)
    probs = schmidt**2
    probs = probs[probs > 1e-18]
    return float(max(0.0, -np.sum(probs * np.log(probs))))


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
# Numeric route
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
    from scipy.linalg import expm

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


@dataclass(frozen=True)
class _Layout:
    """Everything the numeric route derives from a circuit's shape, read-only.

    ``cut`` says whether the search dropped a bosonic creation at the
    cutoff; ``occupations`` are the reachable states in basis order and
    ``occ_array`` the same as an array; ``support_rows`` are the rows of
    the input support, in its order; ``plans`` holds one
    :class:`_BlockPlan` per element without ``number_phases``, in element
    order, shared by elements of one shape.  Every array is read-only,
    since a cached layout serves every later circuit of its shape.
    """

    cut: bool
    occupations: tuple
    occ_array: np.ndarray
    support_rows: np.ndarray
    plans: tuple


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _compile_layout(system: ModeSystem, support: tuple, shapes: tuple) -> _Layout:
    """Search and block plans for a circuit shape; reads no coefficient.

    ``support`` is the input's support in order, and ``shapes`` holds
    ``(modes, monomials)`` for each element without ``number_phases``, in
    element order.  Cached, so that circuits of one shape (a sweep over
    angles, meshes with fresh angles) search and plan once.
    """
    monomials = dict.fromkeys(f for _, terms in shapes for f in terms)
    states, images, cut = _reachable_generators(system, monomials, support)
    # Basis order keeps the restricted matrices principal submatrices of the
    # full-box ones, entry for entry.
    order = sorted(range(len(states)), key=states.__getitem__)
    rank = np.empty(len(states), dtype=np.int64)
    rank[order] = np.arange(len(states))
    occupations = tuple(states[i] for i in order)
    occ_array = np.array(occupations, dtype=np.int64).reshape(-1, system.total_modes)
    plans: dict[tuple, _BlockPlan] = {}
    if states:
        for modes, terms in shapes:
            if (modes, terms) not in plans:
                plans[modes, terms] = _block_plan(
                    occ_array, rank, modes, [images[f] for f in terms]
                )
    arrays = [occ_array, rank]
    for plan in plans.values():
        arrays += [plan.term, plan.weights]
        arrays += [a for group in plan.groups for a in group if isinstance(a, np.ndarray)]
    for array in arrays:
        array.flags.writeable = False
    return _Layout(
        cut,
        occupations,
        occ_array,
        rank[: len(support)],
        tuple(plans[shape] for shape in shapes) if states else (),
    )


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
    bit.

    The search and the plans are compiled once per circuit shape and kept
    in a cache of :data:`LAYOUT_CACHE_SIZE` shapes, least recently used
    first out.  The key is the mode system (cutoff included), the input's
    support in order, and the modes and ladder monomials of each element
    without ``number_phases``, in element order; no coefficient is part of
    it.  A hit skips the search and the plans and leaves the per-call work:
    generator coefficients, phases, block exponentials and the checks
    below.  A hit computes what a miss computes from the same arrays, so
    the cache moves no amplitude bit.

    The resulting norm stays within 1e-10 of the input norm because every
    generator is anti-Hermitian; a ``ValueError`` names the first element,
    if any, that makes an amplitude inf or nan, or whose generator on the
    set has an entry above :data:`MAX_GENERATOR_ENTRY`.

    ``max_basis_size`` caps the full box, ``system.basis_size``, not the
    reachable set.  A :class:`TruncationWarning` is raised, on every call,
    when an input monomial exceeds the cutoff, or when the search meets a
    bosonic creation dropped at the cutoff from a reachable state: the
    truncated evolution is then not the physical one.
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
    shapes = tuple(
        (circuit.elements[k].modes, tuple(terms)) for k, terms in generators.items()
    )
    layout = _compile_layout(system, tuple(start), shapes)
    if input_cut or layout.cut:
        warnings.warn(
            "the input or the circuit needs a bosonic occupation above the "
            "cutoff; the truncated evolution is not exact",
            TruncationWarning,
            stacklevel=2,
        )
    if not layout.occupations:
        return FockVector(system, {})
    vec = np.zeros(len(layout.occupations), dtype=complex)
    vec[layout.support_rows] = list(start.values())
    plans = dict(zip(generators, layout.plans))
    # An overflow shows as a non-finite amplitude, reported by _require_finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, element in enumerate(circuit.elements):
            if element.number_phases is not None:
                for key, value in element.number_phases.items():
                    angle = value
                    for m in key:
                        angle = angle * layout.occ_array[:, m]
                    vec = vec * np.exp(1j * angle)
                largest = 0.0
            else:
                plan = plans[k]
                coefficients = np.array(list(generators[k].values()), dtype=complex)
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
    return FockVector(system, {layout.occupations[i]: complex(vec[i]) for i in hits})


def _measure_fock(state: FockVector, modes: tuple[int, ...]) -> tuple[dict, dict]:
    """Detector expectations and joint distribution read from basis amplitudes."""
    expectations = {m: 0.0 for m in modes}
    distribution: dict[tuple[int, ...], float] = {}
    for occ, amp in state.amplitudes.items():
        p = abs(amp) ** 2
        for m in modes:
            expectations[m] += p * occ[m]
        key = tuple(occ[m] for m in modes)
        distribution[key] = distribution.get(key, 0.0) + p
    return expectations, distribution


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
    from scipy.linalg import expm

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
