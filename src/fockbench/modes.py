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
from dataclasses import dataclass
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
    ``total_modes`` (the number of modes) and :attr:`shape` (the number of
    occupation levels of each mode, in mode order) are set once, at
    construction.  :attr:`basis_size` is computed on each read, so that a
    wide system which only the symbolic route reads pays nothing for a box
    it never builds.
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
        bosons, fermions = self.boson_modes, self.fermion_modes
        object.__setattr__(self, "total_modes", bosons + fermions)
        object.__setattr__(self, "shape", (self.cutoff + 1,) * bosons + (2,) * fermions)

    @property
    def basis_size(self) -> int:
        """``(cutoff+1)**boson_modes * 2**fermion_modes``: two powers, not a
        product over :attr:`shape`, whose time grows with the square of the
        number of modes."""
        return (self.cutoff + 1) ** self.boson_modes * 2**self.fermion_modes

    def validate_mode(self, mode: int) -> None:
        if not 0 <= mode < self.total_modes:
            raise IndexError(
                f"mode {mode} out of range for a system of {self.total_modes} modes"
            )

    def detector_modes(self, modes) -> tuple[int, ...]:
        """``modes`` sorted, without repeats; refused when empty or out of
        range, at the first such mode in sorted order."""
        modes = tuple(sorted(set(map(int, modes))))
        if not modes:
            raise ValueError("at least one mode must be measured")
        if modes[0] < 0 or modes[-1] >= self.total_modes:
            for m in modes:
                self.validate_mode(m)
        return modes

    def species(self, mode: int) -> str:
        if 0 <= mode < self.boson_modes:
            return BOSON
        self.validate_mode(mode)
        return FERMION

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
