"""Explicit truncated Fock representation: sparse states and ladder matrices.

This is the representation-dependent half of the simulator.  There is one
distinguished vacuum, the basis vector ``(1, 0, 0, ...)``, and every state
is a finite complex combination of occupation basis vectors.  Dense
vectors and matrices index the box in the order :attr:`ModeSystem.shape
<fockbench.modes.ModeSystem.shape>` states, through ``np.ravel_multi_index``
and ``np.unravel_index``; matrices are plain ``scipy.sparse.csr_matrix``.
The truncated ladder rules live in one per-state kernel,
:func:`_monomial_image`: bosonic creation drops the transition out of the
cutoff level, fermionic operators carry Jordan-Wigner signs over the
fermionic modes.  The numeric evolution applies it to the states it
reaches, and :func:`ladder_matrix` to every state of the box to build the
explicit sparse matrices, so both run the same rules.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np
from scipy import sparse

from .algebra import LadderSymbol
from .modes import ModeSystem

#: Stored amplitudes smaller than this are dropped.  Chosen below the
#: double-precision accumulation noise of circuits with at most ~10 elements.
PRUNE_THRESHOLD = 1e-14

#: A state counts as normalized when |<psi|psi> - 1| stays below this.
NORMALIZED_ATOL = 1e-12


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
