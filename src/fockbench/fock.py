"""Explicit truncated Fock representation and the numeric route.

This is the representation-dependent half of the simulator.  There is one
distinguished vacuum, the basis vector ``(1, 0, 0, ...)``, and every state
is a finite complex combination of occupation basis vectors.  Dense
vectors and matrices index the box in the order :attr:`ModeSystem.shape
<fockbench.modes.ModeSystem.shape>` states; matrices are plain
``scipy.sparse.csr_matrix``, and building one is what loads
``scipy.sparse``.
The truncated ladder rules live in one per-state kernel,
:func:`_monomial_image`: bosonic creation drops the transition out of the
cutoff level, fermionic operators carry Jordan-Wigner signs over the
fermionic modes.  Two loops run it: the breadth-first search
:func:`_reachable_generators`, which the numeric route runs from the
input's support and :func:`polynomial_matrix` from every state of the box,
and :func:`_ket_amplitudes`, which reads an input ket.

``evolve_numeric`` is the explicit route: each element's generator
becomes a matrix on the occupations reachable from the input, and the
state vector is pushed through its exponential, computed densely on the
blocks the generator leaves invariant and fills (:func:`expm_blocks`,
no scipy, all blocks of a circuit before the first is applied; 2 x 2
blocks in closed form) and applied by :func:`expm_multiply`; states in
no such block keep their amplitudes.  The route reads the algebra only
to build generators and input kets; its statistics go into the reports
of :mod:`fockbench.backends`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .algebra import KetExpression, LadderPolynomial, creation
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
#: entry of larger modulus.  Blocks of three or more states are
#: exponentiated by scaling and squaring, which loses precision as the
#: entries grow: one splitter on two or three photons (3 x 3 and 4 x 4
#: blocks) deviates from the exact route, at worst over 200 random angles
#: per band of its largest entry, by 9.4e-10 in [1e6, 2e6], 1.9e-9 in
#: [2e6, 5e6] and 3.8e-9 in [5e6, 1e7], against the default comparison
#: tolerance of 1e-9.  The 2 x 2 blocks (the vertex, one photon on a
#: splitter) are exact at any entry, but are refused all the same.
MAX_GENERATOR_ENTRY = 2e6

#: Circuit shapes whose numeric layout (reachable set and block plans)
#: :func:`evolve_numeric` keeps compiled.  The benchmark's workloads need at
#: most six: the vertex, the single-photon splitter and four CNOT inputs.
#: One mesh M=10 layout (2 002 reachable states) holds about
#: 1.5 MiB with its cache key (tracemalloc), so a full cache of those
#: stays near 25 MiB.
LAYOUT_CACHE_SIZE = 16


class TruncationWarning(UserWarning):
    """The input already exceeds what the truncated basis can hold."""


def _basis_size_text(system: ModeSystem) -> str:
    """``system.basis_size`` for a message, written as
    ``(cutoff+1)**bosons * 2**fermions`` when it has more digits than
    Python converts to text."""
    try:
        return str(system.basis_size)
    except ValueError:
        return f"{system.cutoff + 1}**{system.boson_modes} * 2**{system.fermion_modes}"


def _require_box_within(system: ModeSystem) -> None:
    """Refuse a full box of more than :data:`DEFAULT_BASIS_CAP` basis states, in one line."""
    if system.basis_size > DEFAULT_BASIS_CAP:
        raise ValueError(
            f"basis size {_basis_size_text(system)} exceeds the memory cap "
            f"{DEFAULT_BASIS_CAP}; lower the cutoff"
        )


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
                f"expected {_basis_size_text(system)}"
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
        system = self.system
        occupations = np.array(list(self.amplitudes), dtype=np.intp)
        multi_index = occupations.reshape(-1, system.total_modes).T
        vec = np.zeros(system.basis_size, dtype=complex)
        vec[np.ravel_multi_index(multi_index, system.shape)] = list(
            self.amplitudes.values()
        )
        return vec

    def _scaled_norm(self) -> tuple[float, int]:
        """``(r, s)`` with ``r * 2**-s`` the norm of the amplitudes.

        ``s`` is 0 unless the plain sum of the squared moduli overflows or
        falls below the normal range.  Then each amplitude is scaled by the
        power of two ``2**s`` that puts the largest real or imaginary part
        in [0.5, 1), as :meth:`KetExpression.normalized
        <fockbench.algebra.KetExpression.normalized>` does.  The scaling is
        exact, and in the normal range ``r`` is the plain norm, bit for bit.
        """
        amplitudes = self.amplitudes.values()
        try:
            total = sum(abs(a) ** 2 for a in amplitudes)
        except OverflowError:
            total = math.inf
        if 2.0**-1022 <= total < math.inf or math.isnan(total):  # normal range, or nan
            return math.sqrt(total), 0
        parts = [abs(x) for a in amplitudes for x in (a.real, a.imag)]
        largest = max(parts, default=0.0)
        if largest in (0.0, math.inf):  # the zero vector, or an infinite amplitude
            return math.sqrt(total), 0
        shift = -math.frexp(largest)[1]
        total = sum(
            abs(complex(math.ldexp(a.real, shift), math.ldexp(a.imag, shift))) ** 2
            for a in amplitudes
        )
        return math.sqrt(total), shift

    def norm(self) -> float:
        """Euclidean norm of the amplitudes; inf if it is beyond the floats."""
        scaled, shift = self._scaled_norm()
        try:
            return math.ldexp(scaled, -shift)
        except OverflowError:
            return math.inf

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) < NORMALIZED_ATOL

    def normalized(self) -> "FockVector":
        n, shift = self._scaled_norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        amplitudes = self.amplitudes
        if shift:
            amplitudes = {
                o: complex(math.ldexp(a.real, shift), math.ldexp(a.imag, shift))
                for o, a in amplitudes.items()
            }
        return FockVector(self.system, {o: a / n for o, a in amplitudes.items()})

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


@lru_cache(maxsize=None)
def creation_op(system: ModeSystem, mode: int) -> sparse.csr_matrix:
    """Matrix of the creation operator on the truncated basis.

    Built by :func:`polynomial_matrix` from the single creation symbol on
    ``mode``, so its entries are the kernel's: ``sqrt(n+1)`` for a bosonic
    mode below the cutoff, a Jordan-Wigner sign for an empty fermionic
    mode.  Returned matrices are cached per (system, mode) and must not be
    mutated.
    """
    return polynomial_matrix(creation(mode, system.species(mode)), system)


@lru_cache(maxsize=None)
def annihilation_op(system: ModeSystem, mode: int) -> sparse.csr_matrix:
    """Adjoint of :func:`creation_op`; annihilates the vacuum exactly."""
    return creation_op(system, mode).conj().T.tocsr()


@lru_cache(maxsize=None)
def number_op(system: ModeSystem, mode: int) -> sparse.csr_matrix:
    """Diagonal matrix whose entry on each basis vector is its occupation."""
    from scipy import sparse

    system.validate_mode(mode)
    _require_box_within(system)
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
    return sum(
        (l_amp[occ].conjugate() * r_amp[occ] for occ in l_amp if occ in r_amp), 0j
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
    """Explicit sparse matrix of a ladder polynomial on the full truncated box.

    The entries come from :func:`_reachable_generators`, the numeric
    route's search, run from every basis state in basis order: the box is
    closed under truncated monomials, so the search finds no other state
    and its indices are the basis indices.  Entries that meet in one cell
    are summed in term order.  A box above :data:`DEFAULT_BASIS_CAP` states
    is refused before any state is enumerated.
    """
    from scipy import sparse

    _require_box_within(system)
    for factors in poly.terms:
        for symbol in factors:
            if system.species(symbol.mode) != symbol.species:
                raise ValueError(f"symbol {symbol!r} has the wrong species for its mode")
    _, images, _ = _reachable_generators(system, poly.terms, system.occupations())
    rows, cols, data = [], [], []
    for factors, coeff in poly.terms.items():
        targets, sources, weights = images[factors]
        rows += targets
        cols += sources
        data += [coeff * weight for weight in weights]
    dim = system.basis_size
    return sparse.coo_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(dim, dim)
    ).tocsr()


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


def _block_plan(occupations: np.ndarray, rank, modes, images) -> tuple:
    """Where the entries of every generator on ``modes`` with these
    monomials fall in its invariant blocks, as ``(term, weights, groups)``.

    ``images`` holds, per monomial in term order, its (rows, columns,
    weights) lists in discovery order, which ``rank`` maps to the rows of
    ``occupations``.  Entry ``e`` has the value ``coefficient[term[e]] *
    weights[e]``.  States that agree on every mode outside ``modes`` form
    a block that the generator maps into itself.  ``groups`` holds one
    ``(size, take, cells, count, same, states)`` per size of the blocks
    that receive an entry: the entries ``take`` go to the flat ``cells`` of
    ``count`` representative blocks, block ``i`` of that size equals
    representative ``same[i]``, and ``states[i]`` are its rows in basis
    order.  A block that receives no entry is in no group: its exponential
    is the identity.  Blocks of one size whose cells receive the same
    weights of the same terms are equal for any coefficients: ``np.unique``
    over those weight patterns picks the first block of each pattern to
    represent the others, and orders the representatives by pattern.  A
    size held by one block goes through the same comparison: the groups are
    built once per circuit shape, not once per run.
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
    filled = np.zeros(len(starts), dtype=bool)
    filled[entry_blocks] = True
    groups = []
    for size in sorted(set(sizes[filled].tolist())):
        (members,) = np.nonzero((sizes == size) & filled)
        (mine,) = np.nonzero(entry_sizes == size)
        inner = position[rows[mine]] * size + position[cols[mine]]
        slot[members] = np.arange(len(members))
        where = slot[entry_blocks[mine]]
        # One column per (term, cell) pair that a block of this size fills.
        pairs, column = np.unique(term[mine] * size * size + inner, return_inverse=True)
        pattern = np.zeros((len(members), len(pairs)))
        pattern[where, column] = weights[mine]
        _, firsts, same = np.unique(
            pattern, axis=0, return_index=True, return_inverse=True
        )
        # Only the representatives' entries are kept, in their pattern's slot.
        target = same[where]
        kept = firsts[target] == where
        take, cells = mine[kept], target[kept] * size * size + inner[kept]
        states = order[starts[members][:, np.newaxis] + np.arange(size)]
        groups.append((size, take, cells, len(firsts), same, states))
    return term, weights, tuple(groups)


#: Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
#: (2005), Table 2.3): the largest 1-norm theta_m at which the Padé
#: approximant of degree m = 3, 5, 7, 9, 13 meets double precision.
_PADE_THETA = (
    1.495585217958292e-2,
    2.539398330063230e-1,
    9.504178996162932e-1,
    2.097847961257068e0,
    5.371920351148152e0,
)

#: Numerator coefficients b_0, b_1, ... of each Padé degree; the
#: denominator's are b_j (-1)^j.
_PADE_COEFFICIENTS = (
    (120, 60, 12, 1),
    (30240, 15120, 3360, 420, 30, 1),
    (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1),
    (17643225600, 8821612800, 2075673600, 302702400, 30270240, 2162160, 110880,
     3960, 90, 1),
    (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
     129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
     40840800, 960960, 16380, 182, 1),
)

#: Most squarings the exponential makes.  Each doubles the rounding error,
#: so past this many the result has no correct digit; a block of 1-norm
#: above theta_13 * 2**MAX_SQUARINGS comes back as nan.
MAX_SQUARINGS = 52


@lru_cache(maxsize=None)
def _pade_sums(level: int) -> np.ndarray:
    """Coefficients of the sums of even powers (I, A^2, A^4, ...) that the
    Padé approximant of ``_PADE_COEFFICIENTS[level]`` needs, one row per sum.

    With U and V the odd and even parts of the numerator, p(A) = V + U and
    p(-A) = V - U.  Below degree 13, U = A (row 0) and V = row 1.  For
    degree 13 (Higham 2005, eq. 2.11), U = A (A^6 (row 0) + row 1) and
    V = A^6 (row 2) + row 3.  :func:`_pade` takes A already scaled by
    2**-s; since that factor is a power of two, the sums equal, bit for
    bit, those of the unscaled powers with b_k multiplied by 2**(-s k),
    while no scaled entry is subnormal.  A circuit the DSL accepts gives
    no block with such an entry.
    """
    c = [float(b) for b in _PADE_COEFFICIENTS[level]]
    if len(c) == 14:
        rows = [[0.0, c[9], c[11], c[13]], c[1:9:2], [0.0, c[8], c[10], c[12]], c[0:8:2]]
    else:
        rows = [c[1::2], c[0::2]]
    sums = np.array(rows)
    sums.flags.writeable = False
    return sums


@lru_cache(maxsize=None)
def _identity(size: int) -> np.ndarray:
    eye = np.eye(size, dtype=complex)
    eye.flags.writeable = False
    return eye


def _pade(mats: np.ndarray, levels: list[int], squarings: list[int]) -> np.ndarray:
    """exp of each matrix by the Padé approximant of its level in
    ``levels`` at the matrix scaled by 2**-s, squared s times, s from
    ``squarings``.  The levels ascend, and only the top level scales, its
    squarings descending: each level's blocks, and the blocks of each
    squaring, are then one slice of the stack.

    The even powers are taken once for the whole stack, as many as its
    highest degree needs; each degree's sums then read its own blocks'
    first powers, one product per degree present, and one ``solve`` and
    one squaring loop serve the stack.  Every block gets the operations
    it would get alone: the powers and the solve are per block, and the
    sums of one degree go through one product of the same shape.
    """
    count, size, _ = mats.shape
    mats = mats * np.ldexp(1.0, [-s for s in squarings])[:, np.newaxis, np.newaxis]
    terms = max([_pade_sums(level).shape[1] for level in set(levels)])
    powers = np.empty((count, terms, size, size), dtype=complex)
    powers[:, 0] = _identity(size)
    powers[:, 1] = power = square = np.matmul(mats, mats)
    for j in range(2, terms):
        powers[:, j] = power = np.matmul(power, square)
    # real coefficients times complex powers: one real product on the float view
    flat = powers.view(float).reshape(count, terms, 2 * size * size)
    odd, even = np.empty_like(mats), np.empty_like(mats)
    lo = 0
    for level, run in itertools.groupby(levels):
        hi = lo + len(list(run))
        sums = _pade_sums(level)
        parts = np.matmul(sums, flat[lo:hi, : sums.shape[1]])
        parts = parts.view(complex).reshape(hi - lo, -1, size, size)
        if len(sums) == 4:  # degree 13
            parts = np.matmul(powers[lo:hi, 3:4], parts[:, 0::2]) + parts[:, 1::2]
        odd[lo:hi] = np.matmul(mats[lo:hi], parts[:, 0])
        even[lo:hi] = parts[:, 1]
        lo = hi
    out = np.linalg.solve(even - odd, even + odd)
    # only degree 13 scales, so the blocks to square lead its run
    lo = levels.index(levels[-1])
    for i in range(max(squarings)):
        hi = lo + len([s for s in squarings if s > i])
        out[lo:hi] = np.matmul(out[lo:hi], out[lo:hi])
    return out


def _expm_2x2(mats: np.ndarray, within: list[bool]) -> np.ndarray:
    """exp of each matrix of a stack of 2 x 2 matrices, in closed form from
    its own entries (Cayley-Hamilton; Bernstein & So, IEEE Trans. Automat.
    Control 38, 1228 (1993)).

    With mu half the trace and B = A - mu I, B^2 = delta^2 I for delta^2 =
    -det B, so exp(A) = e^mu (cosh(delta) I + sinh(delta) B / delta); at
    delta = 0 the last term is B.  Each matrix is computed on its own in
    Python complex arithmetic: a circuit has a few dozen such blocks at
    most, and one numpy call per step would cost more than the loop.  For
    the rotation block [[0, -t], [t, 0]], B / delta is exactly i and the
    result is cos t and sin t as the math library gives them, at any t.
    A matrix that :func:`expm_blocks` puts outside the squaring bound
    (``within`` false), or whose exponential overflows in ``cmath``, comes
    back as nan; one that overflows in a product comes back with inf and
    nan entries.
    """
    nan = complex(math.nan, 0.0)
    out = []
    for ((a, b), (c, d)), inside in zip(mats.tolist(), within):
        block = ((nan, nan), (nan, nan))
        if inside:
            try:
                mu = 0.5 * (a + d)
                h, k = a - mu, d - mu
                delta = cmath.sqrt(b * c - h * k)
                sinh = 1.0
                if delta:
                    sinh = cmath.sinh(delta)
                    h, b, c, k = h / delta, b / delta, c / delta, k / delta
                scale = cmath.exp(mu)
                diag = scale * cmath.cosh(delta)
                scale *= sinh
                block = ((scale * h + diag, scale * b), (scale * c, scale * k + diag))
            except OverflowError:  # cmath refuses a result beyond the floats
                pass
        out.append(block)
    return np.array(out, dtype=complex).reshape(mats.shape)


def expm_blocks(mats: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack ``mats`` of shape (count, n, n).

    1 x 1 matrices give ``np.exp``.  For larger ones the 1-norm, the
    largest column sum, is computed once per matrix, and one test decides
    at every size: a matrix whose 1-norm is nan or above theta_13 *
    2**:data:`MAX_SQUARINGS`, where scaling and squaring would need more
    than that many squarings, gives nan.  2 x 2 matrices within the bound
    take their closed form (:func:`_expm_2x2`).  Larger ones go
    through scaling and squaring with the Padé degree chosen from the
    1-norm (Higham 2005): the smallest m in 3, 5, 7, 9, 13 whose theta_m
    bounds the norm, and above theta_13 degree 13 at the matrix scaled by
    2**-s, squared s times, s = ceil(log2(norm / theta_13)); all of them
    go through one stacked evaluation (:func:`_pade`), ordered by degree
    and, within degree 13, by s, largest first.  At every size each
    result depends on its own matrix only: a stack gives, bit for bit,
    what its matrices give one at a time.  A matrix with a non-finite
    entry has an inf or nan 1-norm, so it gives nan at every size.
    """
    count, size, _ = mats.shape
    if size == 1:
        return np.exp(mats, out=np.full_like(mats, np.nan), where=np.isfinite(mats))
    norms = np.abs(mats).sum(axis=1).max(axis=1).tolist()
    bound = _PADE_THETA[-1] * 2.0**MAX_SQUARINGS
    within = [norm <= bound for norm in norms]  # false for nan
    if size == 2:
        return _expm_2x2(mats, within)
    top = len(_PADE_THETA) - 1
    pending = []
    for i, (norm, inside) in enumerate(zip(norms, within)):
        if inside:
            level = bisect_left(_PADE_THETA, norm)
            s = math.ceil(math.log2(norm / _PADE_THETA[-1])) if level > top else 0
            pending.append((min(level, top), -s, i))
    out = np.full_like(mats, np.nan)
    if pending:
        levels, negated, rows = map(list, zip(*sorted(pending)))
        squarings = [-s for s in negated]
        out[rows] = _pade(mats[rows], levels, squarings)
    return out


def expm_multiply(groups, blocks: dict, vec: np.ndarray) -> np.ndarray:
    """exp(K) @ ``vec`` for one element's generator K, from its block
    exponentials.

    K maps each block of its plan into itself, so exp(K) is block diagonal.
    ``blocks`` maps each block size to the stack of the circuit's block
    exponentials of that size, gathered once per circuit by
    :func:`evolve_numeric` so that each element's blocks lie side by side
    in element order; ``groups`` holds one ``(size, lo, hi, states)`` per
    block size of this element: its blocks are ``blocks[size][lo:hi]``,
    and the rows of block ``i`` are the column ``states[i]`` (shape (size,
    1)), so that gathering them gives the operand of the product and
    scattering takes the product as it comes.  The result starts as a copy
    of ``vec``, and each block's states are replaced by their product with
    its exponential, one batched product per size; states in no block of
    the plan, on which K has no entry, keep their amplitudes bit for bit.
    The benchmark tracer (``perfbench/tracer.py``) times this function
    under the name ``backends.expm_multiply``; the exponentials themselves
    count in ``evolve_numeric``.
    """
    out = vec.copy()
    for size, lo, hi, states in groups:
        out[states] = np.matmul(blocks[size][lo:hi], vec[states])
    return out


@dataclass(frozen=True)
class _Layout:
    """Everything the numeric route derives from a circuit's shape, read-only.

    ``cut`` says whether the search dropped a bosonic creation at the
    cutoff; ``occ_array`` holds the reachable states in basis order, one
    row each, and is the route's only table of them; ``support_rows`` are
    the rows of the input support, in its order.  The entries of the
    elements without ``number_phases``, laid end to end in element order,
    give the circuit's entries: entry ``e`` has the value
    ``coefficients[term[e]] * weights[e]``, where ``coefficients`` lists
    each such element's generator coefficients in element order.  ``fills``
    holds one ``(size, take, cells, count, gather)`` per block size: the
    entries ``take`` go to the flat ``cells`` of the ``count``
    representative blocks of that size of the whole circuit, and
    ``gather`` lists, element after element, the representative of each
    block of that size.  ``steps`` holds, per such element, its entries
    ``(lo, hi)`` and the ``(size, lo, hi, states)`` that
    :func:`expm_multiply` reads.  Every array is read-only, since a cached
    layout serves every later circuit of its shape.
    """

    cut: bool
    occ_array: np.ndarray
    support_rows: np.ndarray
    term: np.ndarray
    weights: np.ndarray
    fills: tuple
    steps: tuple


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
    occ_array = np.array([states[i] for i in order], dtype=np.int64)
    occ_array = occ_array.reshape(-1, system.total_modes)
    plans = {}
    for modes, terms in shapes:
        if (modes, terms) not in plans:
            plans[modes, terms] = _block_plan(
                occ_array, rank, modes, [images[f] for f in terms]
            )
    # The circuit's representative blocks, one stack per size, in element order.
    term, weights, steps = [np.empty(0, dtype=np.int64)], [np.empty(0)], []
    takes, cell_lists, gathers, counts = {}, {}, {}, {}
    lo = first_term = 0
    for shape in shapes:
        plan_term, plan_weights, plan_groups = plans[shape]
        term.append(plan_term + first_term)
        weights.append(plan_weights)
        groups = []
        for size, take, cells, count, same, block_states in plan_groups:
            done = counts.get(size, 0)
            takes.setdefault(size, []).append(take + lo)
            cell_lists.setdefault(size, []).append(cells + done * size * size)
            gathered = gathers.setdefault(size, [])
            first = sum(map(len, gathered))
            gathered.append(same + done)
            groups.append((size, first, first + len(same), block_states[..., np.newaxis]))
            counts[size] = done + count
        hi = lo + len(plan_weights)
        steps.append(((lo, hi), tuple(groups)))
        lo, first_term = hi, first_term + len(shape[1])
    fills = tuple(
        (size, np.concatenate(takes[size]), np.concatenate(cell_lists[size]), counts[size],
         np.concatenate(gathers[size]))
        for size in sorted(counts)
    )
    layout = _Layout(
        cut,
        occ_array,
        rank[: len(support)],
        np.concatenate(term),
        np.concatenate(weights),
        fills,
        tuple(steps),
    )
    arrays = [occ_array, layout.support_rows, layout.term, layout.weights]
    arrays += [a for _, take, cells, _, gather in fills for a in (take, cells, gather)]
    arrays += [rows for _, groups in steps for *_, rows in groups]
    for array in arrays:
        array.flags.writeable = False
    return layout


def evolve_numeric(circuit: Circuit) -> FockVector:
    """Evolve through each element's matrix exponential.

    The evolution runs on the occupations reachable from the input's
    support inside the cutoff box, found by breadth-first search over the
    generators' ladder monomials.  Each truncated generator maps that set
    into itself, so the result equals the full-box evolution amplitude by
    amplitude.  Elements with ``number_phases`` have number-diagonal
    generators, so their exponentials are applied as exact phases read
    from the set's occupations; all other elements go through
    :func:`expm_multiply`, dense exponentials of the generator's invariant
    blocks on the set.  The blocks depend only on the element's shape, its
    modes and ladder monomials, not on its coefficients: elements of one
    shape share one :func:`_block_plan`, and each element needs one
    representative block per weight pattern.  The blocks it skips are
    bitwise equal to their representative, and each cell sums its values
    in term order, so sharing moves no amplitude bit.  A block that
    receives no entry is in no plan, and its states keep their amplitudes
    bit for bit.  No exponential reads the state, so the representative
    blocks of every element are filled first and exponentiated by
    :func:`expm_blocks`, one call per block size for the whole circuit,
    and gathered once per size into each element's blocks in element
    order; the loop over the elements then only applies them.
    :func:`expm_blocks` gives each block what it would give that block
    alone, so the batching moves no amplitude bit either.  Likewise no
    phase reads the state: the angle ``value * n_m * ...`` of every
    ``number_phases`` key, the product taken mode by mode as one row per
    key, goes through one ``np.exp`` for the whole circuit, and each
    element multiplies the state by its rows in turn.  Both are
    elementwise, so the rows equal the per-element results bit for bit.
    Each element's generator is built once per call, by
    :func:`~fockbench.circuit.element_generator`, and its coefficients are
    read in the order of its terms, which is the layout's monomial order.

    The search and the plans are compiled once per circuit shape and kept
    in a cache of :data:`LAYOUT_CACHE_SIZE` shapes, least recently used
    first out.  The key is the mode system (cutoff included), the input's
    support in order, and the modes and ladder monomials of each element
    without ``number_phases``, in element order; no coefficient is part of
    it.  A hit skips the search and the plans and leaves the per-call work:
    generator coefficients, the stacked phases, block exponentials and the
    checks below.  A hit computes what a miss computes from the same
    arrays, so the cache moves no amplitude bit.

    The resulting norm stays within 1e-10 of the input norm because every
    generator is anti-Hermitian; a ``ValueError`` names the first element,
    if any, that makes an amplitude inf or nan, or whose generator on the
    set has an entry above :data:`MAX_GENERATOR_ENTRY`.  A non-finite
    amplitude stays non-finite through every later element, so the
    elements are applied once without a check, and again one by one with
    the checks only when the result is not finite or an entry too large.

    A full box, ``system.basis_size``, of more than
    :data:`DEFAULT_BASIS_CAP` states is refused, even when the reachable set
    is small.  A :class:`TruncationWarning` is raised, on every call,
    when an input monomial exceeds the cutoff, or when the search meets a
    bosonic creation dropped at the cutoff from a reachable state: the
    truncated evolution is then not the physical one.
    """
    system = circuit.system
    _require_box_within(system)
    amps, input_cut = _ket_amplitudes(circuit.input_state)
    start = FockVector.from_amplitudes(system, amps).amplitudes
    elements = circuit.elements
    phases = [element.number_phases for element in elements]
    generators = {
        k: element_generator(element, system).terms
        for k, element in enumerate(elements)
        if phases[k] is None
    }
    shapes = tuple((elements[k].modes, tuple(terms)) for k, terms in generators.items())
    layout = _compile_layout(system, tuple(start), shapes)
    if input_cut or layout.cut:
        warnings.warn(
            "the input or the circuit needs a bosonic occupation above the "
            "cutoff; the truncated evolution is not exact",
            TruncationWarning,
            stacklevel=2,
        )
    vec = np.zeros(len(layout.occ_array), dtype=complex)
    vec[layout.support_rows] = list(start.values())
    steps = dict(zip(generators, layout.steps))
    # An overflow shows as a non-finite amplitude, reported by apply(check=True).
    with np.errstate(over="ignore", invalid="ignore"):
        # One row per number_phases key, in element order: key (m, ...) with
        # value v has the angle (v * n_m) * ..., the product taken mode by mode.
        angles, rows_of = [], {}
        for k, p in enumerate(phases):
            if p is not None:
                rows_of[k] = range(len(angles), len(angles) + len(p))
                for key, value in p.items():
                    angle = value
                    for m in key:
                        angle = angle * layout.occ_array[:, m]
                    angles.append(angle)
        factors = np.exp(1j * np.array(angles))
        coefficients = np.array(
            [c for terms in generators.values() for c in terms.values()], dtype=complex
        )
        values = coefficients[layout.term] * layout.weights
        moduli = np.abs(values)
        blocks = {}
        for size, take, cells, count, gather in layout.fills:
            mats = np.zeros(count * size * size, dtype=complex)
            np.add.at(mats, cells, values[take])
            blocks[size] = expm_blocks(mats.reshape(count, size, size))[gather]

        def apply(vec: np.ndarray, check: bool) -> np.ndarray:
            for k, element in enumerate(elements):
                if k in rows_of:
                    for row in rows_of[k]:
                        vec = vec * factors[row]
                    largest = 0.0
                else:
                    (lo, hi), groups = steps[k]
                    vec = expm_multiply(groups, blocks, vec)
                    largest = moduli[lo:hi].max(initial=0.0) if check else 0.0
                if check and not np.isfinite(vec).all():
                    raise element.fault(k, "makes an amplitude non-finite")
                if largest > MAX_GENERATOR_ENTRY:  # 0.0 unless check
                    raise element.fault(
                        k,
                        f"has a generator entry of modulus {largest:.3g}, above "
                        f"{MAX_GENERATOR_ENTRY:.0e}, where the numeric exponential "
                        "loses precision",
                    )
            return vec

        out = apply(vec, check=False)
        if moduli.max(initial=0.0) > MAX_GENERATOR_ENTRY or not np.isfinite(out).all():
            apply(vec, check=True)  # raises at the first element at fault
    (hits,) = np.nonzero(np.abs(out) >= PRUNE_THRESHOLD)
    occupations = layout.occ_array[hits].tolist()
    return FockVector(
        system, {tuple(occ): amp for occ, amp in zip(occupations, out[hits].tolist())}
    )


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
