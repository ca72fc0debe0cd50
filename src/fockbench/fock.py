"""Explicit truncated Fock representation: sparse states and ladder matrices.

This is the representation-dependent half of the simulator.  There is one
distinguished vacuum, the basis vector ``(1, 0, 0, ...)``, and every state
is a finite complex combination of occupation basis vectors.  Ladder
operators are explicit sparse matrices; bosonic creation drops the
transition out of the cutoff level, fermionic operators carry
Jordan-Wigner signs over the fermionic modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np
from scipy import sparse

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
        (hits,) = np.nonzero(np.abs(vector) >= PRUNE_THRESHOLD)
        return cls(
            system, {system.occupation_of(int(i)): complex(vector[i]) for i in hits}
        )

    def to_dense(self) -> np.ndarray:
        vec = np.zeros(self.system.basis_size, dtype=complex)
        for occ, amp in self.amplitudes.items():
            vec[self.system.index_of(occ)] = amp
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


@dataclass(frozen=True)
class SparseOperator:
    """Sparse complex matrix over the enumerated basis of a mode system."""

    system: ModeSystem
    matrix: sparse.csr_matrix

    def __post_init__(self):
        dim = self.system.basis_size
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"operator shape {self.matrix.shape} does not match basis size {dim}"
            )

    def adjoint(self) -> "SparseOperator":
        return SparseOperator(self.system, self.matrix.conj().T.tocsr())

    def _compat(self, other: "SparseOperator") -> None:
        if self.system != other.system:
            raise ValueError("operators live on different mode systems")

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            self._compat(other)
            prod = (self.matrix @ other.matrix).tocsr()
            prod.eliminate_zeros()
            return SparseOperator(self.system, prod)
        if isinstance(other, FockVector):
            return apply(self, other)
        return NotImplemented

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._compat(other)
        s = (self.matrix + other.matrix).tocsr()
        s.eliminate_zeros()
        return SparseOperator(self.system, s)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._compat(other)
        s = (self.matrix - other.matrix).tocsr()
        s.eliminate_zeros()
        return SparseOperator(self.system, s)

    def __mul__(self, scalar) -> "SparseOperator":
        return SparseOperator(self.system, (self.matrix * complex(scalar)).tocsr())

    __rmul__ = __mul__

    def __neg__(self) -> "SparseOperator":
        return self * -1.0

    def max_abs(self) -> float:
        """Largest entry magnitude (0 for an empty matrix)."""
        if self.matrix.nnz == 0:
            return 0.0
        return float(np.abs(self.matrix.data).max())


def vacuum_state(system: ModeSystem) -> FockVector:
    """The state with amplitude 1 on the all-zeros occupation."""
    return FockVector(system, {system.vacuum_occupation(): 1.0 + 0.0j})


def identity_op(system: ModeSystem) -> SparseOperator:
    return SparseOperator(
        system, sparse.identity(system.basis_size, dtype=complex, format="csr")
    )


@lru_cache(maxsize=None)
def creation_op(system: ModeSystem, mode: int) -> SparseOperator:
    """Matrix of the creation operator on the truncated basis.

    Bosonic modes get matrix elements ``sqrt(n+1)`` from ``|..., n, ...>``
    to ``|..., n+1, ...>``; the transition out of ``n == cutoff`` is
    dropped by the truncation.  Fermionic modes map 0 to 1 with the
    Jordan-Wigner sign ``(-1)**(number of occupied fermionic modes with a
    smaller index)`` and annihilate already-occupied states.  Returned
    operators are cached per (system, mode) and must not be mutated.
    """
    system.validate_mode(mode)
    dim = system.basis_size
    idx = np.arange(dim, dtype=np.int64)
    occ = system.occupation_digits(idx, mode)
    if system.is_boson(mode):
        src = idx[occ < system.cutoff]
        data = np.sqrt(system.occupation_digits(src, mode) + 1.0).astype(complex)
    else:
        src = idx[occ == 0]
        parity = np.zeros(len(src), dtype=np.int64)
        for other in range(system.boson_modes, mode):
            parity += system.occupation_digits(src, other)
        data = np.where(parity % 2 == 1, -1.0, 1.0).astype(complex)
    dst = src + system.strides[mode]
    mat = sparse.coo_matrix((data, (dst, src)), shape=(dim, dim)).tocsr()
    return SparseOperator(system, mat)


@lru_cache(maxsize=None)
def annihilation_op(system: ModeSystem, mode: int) -> SparseOperator:
    """Adjoint of :func:`creation_op`; annihilates the vacuum exactly."""
    return creation_op(system, mode).adjoint()


@lru_cache(maxsize=None)
def number_op(system: ModeSystem, mode: int) -> SparseOperator:
    """Diagonal matrix whose entry on each basis vector is its occupation."""
    system.validate_mode(mode)
    dim = system.basis_size
    idx = np.arange(dim, dtype=np.int64)
    occ = system.occupation_digits(idx, mode).astype(complex)
    mat = sparse.dia_matrix((occ[np.newaxis, :], [0]), shape=(dim, dim)).tocsr()
    mat.eliminate_zeros()
    return SparseOperator(system, mat)


def apply(op: SparseOperator, state: FockVector) -> FockVector:
    """Sparse matrix-vector product, pruned at :data:`PRUNE_THRESHOLD`."""
    if op.system != state.system:
        raise ValueError("operator and state live on different mode systems")
    return FockVector.from_dense(state.system, op.matrix @ state.to_dense())


def inner_product(left: FockVector, right: FockVector) -> complex:
    """<left|right>, conjugate-linear in the left argument."""
    if left.system != right.system:
        raise ValueError("states live on different mode systems")
    l_amp, r_amp = left.amplitudes, right.amplitudes
    if len(l_amp) <= len(r_amp):
        return sum(
            amp.conjugate() * r_amp[occ] for occ, amp in l_amp.items() if occ in r_amp
        )
    return sum(
        l_amp[occ].conjugate() * amp for occ, amp in r_amp.items() if occ in l_amp
    )


def mode_bipartition_entropy(state: FockVector, left_modes) -> float:
    """Von Neumann entropy (nats) of the reduced state on ``left_modes``.

    Traces out the complement of ``left_modes`` in the occupation basis.
    The partition must be a proper nonempty subset of the modes and the
    state must be normalized.
    """
    system = state.system
    left = sorted(set(int(m) for m in left_modes))
    for m in left:
        system.validate_mode(m)
    if not left or len(left) == system.total_modes:
        raise ValueError("partition must be a proper nonempty subset of the modes")
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError("entropy requires a normalized state")

    right = [m for m in range(system.total_modes) if m not in left]
    dims_l = [system.mode_dim(m) for m in left]
    dims_r = [system.mode_dim(m) for m in right]
    dim_l, dim_r = math.prod(dims_l), math.prod(dims_r)

    def _local_index(occ, modes, dims):
        index = 0
        for m, d in zip(modes, dims):
            index = index * d + occ[m]
        return index

    coeff = np.zeros((dim_l, dim_r), dtype=complex)
    for occ, amp in state.amplitudes.items():
        coeff[_local_index(occ, left, dims_l), _local_index(occ, right, dims_r)] = amp

    schmidt = np.linalg.svd(coeff, compute_uv=False)
    probs = schmidt**2
    probs = probs[probs > 1e-18]
    return float(max(0.0, -np.sum(probs * np.log(probs))))
