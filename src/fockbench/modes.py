"""Mode bookkeeping and the truncated occupation-number basis.

A mode system is an ordered, finite list of field modes: bosonic modes
first, fermionic modes after them.  Bosonic occupations run from 0 up to a
per-mode ``cutoff``; fermionic occupations are 0 or 1.  Basis states are
labelled by occupation tuples.  Their enumeration order is frozen, so that
serialized operators and reports are reproducible bit for bit, and it is
stated once, by :attr:`ModeSystem.shape`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

BOSON = "boson"
FERMION = "fermion"

DEFAULT_CUTOFF = 6


@dataclass(frozen=True)
class ModeSystem:
    """Finite list of modes with a bosonic occupation cutoff.

    The truncated basis is the set of occupation tuples
    ``(n_0, ..., n_{M-1})`` with ``0 <= n_m <= cutoff`` for bosonic modes
    and ``n_m in {0, 1}`` for fermionic modes, so the basis size is
    ``(cutoff+1)**boson_modes * 2**fermion_modes``.

    Enumeration order (frozen): the box is an array of :attr:`shape`
    laid out in C (row-major) order, so tuples are ordered
    lexicographically with mode 0 as the most significant digit, and the
    basis index of a tuple is ``np.ravel_multi_index(occupation, shape)``.
    """

    boson_modes: int
    fermion_modes: int = 0
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.boson_modes < 0 or self.fermion_modes < 0:
            raise ValueError("mode counts must be non-negative")
        if self.boson_modes + self.fermion_modes < 1:
            raise ValueError("a mode system needs at least one mode")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")

    @property
    def total_modes(self) -> int:
        return self.boson_modes + self.fermion_modes

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """Number of occupation levels of each mode, in mode order."""
        return (self.cutoff + 1,) * self.boson_modes + (2,) * self.fermion_modes

    @cached_property
    def basis_size(self) -> int:
        return math.prod(self.shape)

    def validate_mode(self, mode: int) -> None:
        if not 0 <= mode < self.total_modes:
            raise IndexError(
                f"mode {mode} out of range for a system of {self.total_modes} modes"
            )

    def detector_modes(self, modes) -> tuple[int, ...]:
        """``modes`` sorted, without repeats; refused when empty or out of range."""
        modes = tuple(sorted(set(int(m) for m in modes)))
        if not modes:
            raise ValueError("at least one mode must be measured")
        for m in modes:
            self.validate_mode(m)
        return modes

    def species(self, mode: int) -> str:
        self.validate_mode(mode)
        return BOSON if mode < self.boson_modes else FERMION

    def is_boson(self, mode: int) -> bool:
        return self.species(mode) == BOSON

    def validate_occupation(self, occupation) -> None:
        if len(occupation) != self.total_modes:
            raise ValueError(
                f"occupation tuple has length {len(occupation)}, "
                f"expected {self.total_modes}"
            )
        for m, n in enumerate(occupation):
            if not 0 <= n < self.shape[m]:
                raise ValueError(
                    f"occupation {n} invalid for mode {m} "
                    f"(allowed range 0..{self.shape[m] - 1})"
                )

    def occupations(self) -> Iterator[tuple[int, ...]]:
        """Iterate all occupation tuples in basis order."""
        return itertools.product(*map(range, self.shape))

    def vacuum_occupation(self) -> tuple[int, ...]:
        return (0,) * self.total_modes
