"""Representation-free calculus of ladder-operator polynomials.

Everything in this module is derived from the canonical commutation and
anticommutation relations together with ``a|0> = 0``; no occupation basis
and no cutoff ever enter.  Polynomials are finite complex-weighted sums of
ordered products of creation/annihilation symbols, normal ordering is a
terminating rewrite system on those products, and detection statistics
come out of the vacuum functional alone.

Canonical monomial order: boson symbols before fermion symbols, and within
each species all daggered symbols before all undaggered ones, each block
sorted by mode index.  Fermionic swaps track signs; a repeated fermionic
creation (or annihilation) on one mode collapses a monomial to zero.

Normal ordering serves the vertex, input parsing and the operator calculus
(commutators, vacuum expectations, the series reference).  Linear
elements never run it: a ket holds only creators, so a canonical monomial
times one creator is canonical again once that creator has moved left
past the creators that sort after it (:func:`_insert_creator`), and
:func:`substitute_modes` collects equal words after each creator.

This module is also the symbolic route: :func:`evolve_symbolic` takes a
circuit through its elements on these kets, and :func:`_measure_ket` reads
detector statistics from them for :func:`fockbench.backends.measure`.  It
never imports the explicit representation.

Symbols are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): one :class:`LadderSymbol` instance
exists per ``(mode, species, dagger)``, so symbol equality is identity and
the dicts keyed by factor tuples hash them in C.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .modes import BOSON, FERMION, ModeSystem

if TYPE_CHECKING:  # circuit imports this module
    from .circuit import Circuit, CircuitElement

#: Defaults for the exponential power series.
SERIES_TOL = 1e-14
SERIES_MAX_TERMS = 200

#: Ket coefficients whose basis amplitude falls below this are dropped.
KET_PRUNE_THRESHOLD = 1e-14


class SeriesConvergenceError(RuntimeError):
    """The exponential series failed to settle within the iteration cap."""


class LadderSymbol:
    """A single creation or annihilation symbol on one mode.

    Symbols are interned: the constructor returns the one instance for each
    ``(mode, species, dagger)``, so equality is identity and a dict keyed by
    symbol tuples hashes them in C.  ``copy``, ``deepcopy`` and ``pickle``
    rebuild through the constructor and return the same instance.  A
    symbol is immutable; it also stores its canonical sort key.
    """

    __slots__ = ("mode", "species", "dagger", "_is_boson", "_sort_key")

    _interned: dict[tuple, "LadderSymbol"] = {}

    def __new__(cls, mode: int, species: str, dagger: bool) -> "LadderSymbol":
        key = (mode, species, dagger)
        symbol = cls._interned.get(key)
        if symbol is not None:
            return symbol
        if species not in (BOSON, FERMION):
            raise ValueError(f"unknown species {species!r}")
        if mode < 0:
            raise ValueError("mode index must be non-negative")
        mode = operator.index(mode)
        symbol = object.__new__(cls)
        is_boson = species == BOSON
        fields = {
            "mode": mode,
            "species": species,
            "dagger": bool(dagger),
            "_is_boson": is_boson,
            "_sort_key": (0 if is_boson else 1, 0 if dagger else 1, mode),
        }
        for name, value in fields.items():
            object.__setattr__(symbol, name, value)
        return cls._interned.setdefault(key, symbol)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (LadderSymbol, (self.mode, self.species, self.dagger))

    def adjoint(self) -> "LadderSymbol":
        return LadderSymbol(self.mode, self.species, not self.dagger)

    def __repr__(self):
        letter = "a" if self._is_boson else "f"
        return f"{letter}{self.mode}{'^' if self.dagger else ''}"


class LadderPolynomial:
    """Complex-weighted sum of ordered ladder-symbol products.

    Terms with identical factor sequences are merged exactly and
    zero-coefficient terms are never stored.  The empty factor sequence is
    the multiplicative identity, so a constant is a valid polynomial.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        merged: dict[tuple[LadderSymbol, ...], complex] = {}
        for factors, coeff in (terms or {}).items():
            factors = tuple(factors)
            coeff = complex(coeff)
            if coeff != 0:
                merged[factors] = merged.get(factors, 0.0 + 0.0j) + coeff
        self._terms = {f: c for f, c in merged.items() if c != 0}

    @classmethod
    def _from_merged(cls, terms: dict) -> "LadderPolynomial":
        """Wrap ``terms`` as they are: tuple keys, complex values, none zero."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "LadderPolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "LadderPolynomial":
        return cls({(): complex(value)})

    @classmethod
    def monomial(cls, coefficient, factors: Iterable[LadderSymbol]) -> "LadderPolynomial":
        return cls({tuple(factors): complex(coefficient)})

    # -- read access ------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[LadderSymbol, ...], complex]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        out = dict(self._terms)
        for factors, coeff in other._terms.items():
            out[factors] = out.get(factors, 0.0 + 0.0j) + coeff
        return LadderPolynomial(out)

    def __sub__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        return self + (-other)

    def __neg__(self) -> "LadderPolynomial":
        return LadderPolynomial({f: -c for f, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, LadderPolynomial):
            return multiply(self, other)
        return LadderPolynomial(
            {f: c * complex(other) for f, c in self._terms.items()}
        )

    def __rmul__(self, scalar) -> "LadderPolynomial":
        return self * scalar

    def adjoint(self) -> "LadderPolynomial":
        """Formal adjoint: reverse factors, flip daggers, conjugate weights."""
        return LadderPolynomial(
            {
                tuple(s.adjoint() for s in reversed(factors)): coeff.conjugate()
                for factors, coeff in self._terms.items()
            }
        )

    def allclose(self, other: "LadderPolynomial", atol: float = 1e-12) -> bool:
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= atol
            for k in keys
        )

    def __eq__(self, other):
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for factors, coeff in sorted(
            self._terms.items(), key=lambda item: [s._sort_key for s in item[0]]
        ):
            word = " ".join(repr(s) for s in factors) if factors else "1"
            parts.append(f"({coeff:.6g})*{word}")
        return " + ".join(parts)


def creation(mode: int, species: str = BOSON) -> LadderPolynomial:
    return LadderPolynomial.monomial(1.0, [LadderSymbol(mode, species, True)])


def annihilation(mode: int, species: str = BOSON) -> LadderPolynomial:
    return LadderPolynomial.monomial(1.0, [LadderSymbol(mode, species, False)])


def multiply(p: LadderPolynomial, q: LadderPolynomial) -> LadderPolynomial:
    """Distribute and concatenate factor sequences.  No reordering is done."""
    out: dict[tuple[LadderSymbol, ...], complex] = {}
    for f1, c1 in p._terms.items():
        for f2, c2 in q._terms.items():
            factors = f1 + f2
            out[factors] = out.get(factors, 0.0 + 0.0j) + c1 * c2
    return LadderPolynomial(out)


def _reduce_factors(factors: tuple[LadderSymbol, ...]) -> dict:
    """Normal order one factor sequence.

    Returns a map from canonical factor tuples to coefficients.  Bosonic
    swaps across one mode emit a shorter delta term (CCR), fermionic swaps
    flip the sign and same-mode mixed swaps emit a delta term (CAR), and
    symbols of different species commute freely.
    """
    out: dict[tuple[LadderSymbol, ...], complex] = {}
    stack: list[tuple[complex, tuple[LadderSymbol, ...]]] = [(1.0 + 0.0j, factors)]
    while stack:
        coeff, fs = stack.pop()
        for i in range(len(fs) - 1):
            s1, s2 = fs[i], fs[i + 1]
            if s1 is s2 and not s1._is_boson:
                break  # Pauli exclusion kills the monomial
            if s1._sort_key <= s2._sort_key:
                continue
            head, tail = fs[:i], fs[i + 2 :]
            swapped = head + (s2, s1) + tail
            if s1._is_boson != s2._is_boson:
                stack.append((coeff, swapped))
            elif s1.mode == s2.mode and s1.dagger != s2.dagger:
                # s1 undaggered, s2 daggered on the same mode
                if s1._is_boson:
                    stack.append((coeff, swapped))
                else:
                    stack.append((-coeff, swapped))
                stack.append((coeff, head + tail))
            elif s1._is_boson:
                stack.append((coeff, swapped))
            else:
                stack.append((-coeff, swapped))
            break
        else:
            out[fs] = out.get(fs, 0.0 + 0.0j) + coeff
    return out


def normal_order(p: LadderPolynomial) -> LadderPolynomial:
    """Rewrite into canonical form, preserving operator equality."""
    out: dict[tuple[LadderSymbol, ...], complex] = {}
    for factors, coeff in p._terms.items():
        for canon, weight in _reduce_factors(factors).items():
            out[canon] = out.get(canon, 0.0 + 0.0j) + coeff * weight
    return LadderPolynomial(out)


def commutator(p: LadderPolynomial, q: LadderPolynomial) -> LadderPolynomial:
    """Normal-ordered ``pq - qp``."""
    return normal_order(multiply(p, q) - multiply(q, p))


def vacuum_expectation(p: LadderPolynomial) -> complex:
    """<0|p|0>: the constant term after normal ordering.

    Every other normal-ordered term ends in annihilators (or starts with
    creators), so it kills the vacuum from one side.
    """
    return normal_order(p)._terms.get((), 0.0 + 0.0j)


def quadratic_generator(coefficients, modes, species_of) -> LadderPolynomial:
    """Build ``sum_pq c[p, q] adag_modes[p] a_modes[q]``."""
    c = np.asarray(coefficients, dtype=complex)
    modes = tuple(int(m) for m in modes)
    if c.shape != (len(modes), len(modes)):
        raise ValueError("coefficient matrix shape does not match the mode list")
    terms = {}
    for p_idx, mp in enumerate(modes):
        for q_idx, mq in enumerate(modes):
            if c[p_idx, q_idx] == 0:
                continue
            factors = (
                LadderSymbol(mp, species_of(mp), True),
                LadderSymbol(mq, species_of(mq), False),
            )
            terms[factors] = terms.get(factors, 0.0 + 0.0j) + c[p_idx, q_idx]
    return LadderPolynomial(terms)


# ---------------------------------------------------------------------------
# Kets: creation-only polynomials understood as applied to the vacuum
# ---------------------------------------------------------------------------


def monomial_occupations(
    factors: tuple[LadderSymbol, ...], total_modes: int
) -> tuple[int, ...]:
    """Occupations produced by a creation monomial acting on the vacuum."""
    occ = [0] * total_modes
    for s in factors:
        occ[s.mode] += 1
    return tuple(occ)


def _gram_weight(factors: tuple[LadderSymbol, ...]) -> float:
    """<0| (monomial)^dag (monomial) |0> for a canonical creation monomial.

    Equals the product of bosonic occupation factorials; fermionic factors
    contribute 1.  This is the contraction <0| a^m (adag)^n |0> = delta_mn n!
    applied mode by mode.  A canonical monomial holds each bosonic mode's
    creators in one run, modes ascending, so the factorials are those of
    the run lengths, multiplied in mode order; runs of one contribute an
    exact factor 1 and are skipped.
    """
    weight = 1.0
    run = 1
    for previous, s in zip(factors, factors[1:]):
        if s is previous and s._is_boson:
            run += 1
        elif run > 1:
            weight *= math.factorial(run)
            run = 1
    if run > 1:
        weight *= math.factorial(run)
    return weight


@dataclass(frozen=True)
class KetExpression:
    """A creation-only polynomial applied to the vacuum.

    The polynomial is fully reduced: normal ordered, with every monomial
    containing an annihilator removed because it annihilates the vacuum.
    The constructor refuses any other; :func:`reduce_to_ket` reduces one.
    The attached mode system supplies mode count and species; its cutoff is
    irrelevant here and never used.

    Every monomial that passes the check is remembered in the system's
    instance dict, so a later ket on the same system skips the monomials
    already seen, all of them with one ``set.issuperset``.  A monomial not
    seen before is checked in full, in term order, and a refusal raises the
    same exception with the same message as it would on a fresh system.
    The memory lives and dies with the system instance; it is not keyed by
    the system's hash, which would read the cutoff.
    """

    system: ModeSystem
    poly: LadderPolynomial

    def __post_init__(self):
        passed = vars(self.system).setdefault("_ket_monomials_passed", set())
        terms = self.poly._terms
        if passed.issuperset(terms):
            return
        boson_modes = self.system.boson_modes
        total_modes = self.system.total_modes
        for factors in terms:
            if factors in passed:
                continue
            # Canonical order: modes ascend, a fermionic mode at most once.
            lowest = 0
            for s in factors:
                if not s.dagger:
                    raise ValueError(
                        "ket expressions may only contain creation symbols; "
                        "use reduce_to_ket to build one"
                    )
                if s.mode >= total_modes:
                    self.system.validate_mode(s.mode)  # raises IndexError
                if (s.mode < boson_modes) != s._is_boson:
                    raise ValueError(
                        f"symbol {s!r} has the wrong species for its mode"
                    )
                if s.mode < lowest:
                    raise ValueError(
                        f"monomial {factors!r} is not in canonical order; "
                        "use reduce_to_ket to build one"
                    )
                lowest = s.mode if s._is_boson else s.mode + 1
        passed.update(terms)

    def norm(self) -> float:
        return math.sqrt(ket_inner(self, self).real)

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) < 1e-12

    def normalized(self) -> "KetExpression":
        """The ket divided by its norm.

        The coefficients are first scaled by the power of two that puts the
        largest real or imaginary part in [0.5, 1), so squaring them for the
        norm neither overflows nor underflows.  The scaling is exact: in the
        normal range the result is bit for bit that of the plain division.
        """
        parts = [abs(x) for c in self.poly._terms.values() for x in (c.real, c.imag)]
        if not any(parts):
            raise ValueError("cannot normalize the zero ket")
        shift = -math.frexp(max(parts))[1]
        scaled = LadderPolynomial(
            {
                factors: complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift))
                for factors, c in self.poly._terms.items()
            }
        )
        norm = KetExpression(self.system, scaled).norm()
        return KetExpression(self.system, scaled * (1.0 / norm))

    def occupation_amplitudes(self) -> dict[tuple[int, ...], complex]:
        """Coefficient of each occupation pattern, weighted to unit kets.

        Canonical creation monomials with different occupations are
        orthogonal, so this is a faithful summary of the ket; the weight
        sqrt(product of bosonic factorials) normalizes each monomial.
        """
        out: dict[tuple[int, ...], complex] = {}
        for factors, coeff in self.poly._terms.items():
            occ = monomial_occupations(factors, self.system.total_modes)
            out[occ] = out.get(occ, 0.0 + 0.0j) + coeff * math.sqrt(
                _gram_weight(factors)
            )
        return out

    def allclose(self, other: "KetExpression", atol: float = 1e-12) -> bool:
        return self.system == other.system and self.poly.allclose(other.poly, atol)

    def __repr__(self):
        return f"KetExpression({self.poly!r} |0>)"


def reduce_to_ket(poly: LadderPolynomial, system: ModeSystem) -> KetExpression:
    """Normal order and apply ``a|0> = 0``.

    After canonical ordering a monomial kills the vacuum exactly when it
    contains any annihilation symbol, so those monomials are dropped.
    """
    ordered = normal_order(poly)
    kept = {
        factors: coeff
        for factors, coeff in ordered._terms.items()
        if all(s.dagger for s in factors)
    }
    return KetExpression(system, LadderPolynomial(kept))


def vacuum_ket(system: ModeSystem) -> KetExpression:
    return KetExpression(system, LadderPolynomial.constant(1.0))


def basis_ket(system: ModeSystem, occupation) -> KetExpression:
    """Normalized ket for one occupation pattern."""
    occupation = tuple(int(n) for n in occupation)
    system.validate_occupation(occupation)
    factors = []
    for mode, count in enumerate(occupation):
        factors.extend([LadderSymbol(mode, system.species(mode), True)] * count)
    poly = LadderPolynomial.monomial(1.0, factors)
    return KetExpression(system, poly).normalized()


def ket_from_creations(system: ModeSystem, modes) -> KetExpression:
    """Apply creation operators for ``modes`` (in the given order) to the
    vacuum and normalize.  Raises if the result vanishes (Pauli exclusion)."""
    poly = LadderPolynomial.constant(1.0)
    for mode in modes:
        system.validate_mode(mode)
        poly = multiply(poly, creation(mode, system.species(mode)))
    ket = reduce_to_ket(poly, system)
    return ket.normalized()


def ket_inner(left: KetExpression, right: KetExpression) -> complex:
    """<left|right> evaluated through the vacuum functional.

    The adjoint product reduces, via the commutation relations alone, to
    per-mode contractions <0| a^m (adag)^n |0> = delta_mn n!; canonical
    monomials are therefore orthogonal with squared length equal to the
    product of bosonic factorials.
    """
    # Mode counts, not the systems: the cutoff belongs to the other route.
    lsys, rsys = left.system, right.system
    if (lsys.boson_modes, lsys.fermion_modes) != (rsys.boson_modes, rsys.fermion_modes):
        raise ValueError("kets live on different mode systems")
    total = 0.0 + 0.0j
    lterms = left.poly._terms
    for factors, c2 in right.poly._terms.items():
        c1 = lterms.get(factors)
        if c1 is not None:
            total += c1.conjugate() * c2 * _gram_weight(factors)
    return total


def _prune_ket_poly(poly: LadderPolynomial, atol: float) -> LadderPolynomial:
    """Drop monomials whose basis amplitude |c|*sqrt(gram) is below atol."""
    kept = {
        factors: coeff
        for factors, coeff in poly._terms.items()
        if abs(coeff) * math.sqrt(_gram_weight(factors)) >= atol
    }
    return LadderPolynomial(kept)


# ---------------------------------------------------------------------------
# Evolution primitives
# ---------------------------------------------------------------------------


_SORT_KEY = operator.attrgetter("_sort_key")


def _insert_creator(word: tuple[LadderSymbol, ...], t: LadderSymbol):
    """``word * t`` for a canonical creation monomial ``word`` and a creator ``t``.

    Returns ``(canonical monomial, negate)``, or ``None`` for a Pauli zero.
    ``t`` moves left past the symbols that sort after it.  Bosonic creators
    commute with every creator; a fermionic ``t`` passes fermions only,
    each flips the sign, and a fermion already in ``word`` gives zero.
    """
    key = t._sort_key
    i = len(word)
    while i and word[i - 1]._sort_key > key:
        i -= 1
    if t._is_boson:
        return word[:i] + (t,) + word[i:], False
    if i and word[i - 1] is t:
        return None
    return word[:i] + (t,) + word[i:], (len(word) - i) % 2 == 1


def _expand(creators: tuple[LadderSymbol, ...], replacements: dict) -> list:
    """The product of the replacements of ``creators``, in order, as
    ``(canonical word, weight)`` pairs.  Each creator is inserted by
    :func:`_insert_creator` and equal words are summed before the next, so
    n creators over k modes give at most C(n + k - 1, k - 1) words."""
    words = {(): 1.0 + 0.0j}
    for s in creators:
        grown: dict[tuple[LadderSymbol, ...], complex] = {}
        for word, c in words.items():
            for t, w in replacements[s]:
                inserted = _insert_creator(word, t)
                if inserted is not None:
                    canon, negate = inserted
                    grown[canon] = grown.get(canon, 0.0 + 0.0j) + (-c * w if negate else c * w)
        words = grown
    return list(words.items())


def substitute_modes(ket: KetExpression, matrix, modes) -> KetExpression:
    """Transform creation symbols by a unitary acting on a mode subset.

    The creation operator of ``modes[p]`` is replaced by
    ``sum_q matrix[q, p] * creation(modes[q])``.  With this placement the
    result of a linear element agrees exactly with exponentiating its
    quadratic generator; the convention was pinned against the explicit
    matrix representation once and is frozen here.

    A ket monomial is the product of its kept creators and its creators on
    ``modes``, moved to the right end.  The moved creators' product is
    expanded once per call for each distinct tuple of them
    (:func:`_expand`), and each of its words is sorted in among the kept
    creators.  For fermions, moving the creators on ``modes`` out of the
    monomial and sorting the word back in each flips the sign once per
    kept fermion passed, which is read from their indices in the two
    monomials.  A monomial with no creator on ``modes`` stays as it is.
    No normal ordering is run.
    """
    b = np.asarray(matrix, dtype=complex)
    modes = tuple(int(m) for m in modes)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] != len(modes):
        raise ValueError("matrix must be square with one row per listed mode")
    if len(set(modes)) != len(modes):
        raise ValueError("substitution modes must be distinct")
    species = {ket.system.species(m) for m in modes}
    if len(species) > 1:
        raise ValueError("substitution cannot mix bosonic and fermionic modes")
    if np.abs(b.conj().T @ b - np.eye(len(modes))).max() > 1e-12:
        raise ValueError("substitution matrix is not unitary")

    spec = species.pop()
    replacements = {
        LadderSymbol(mode, spec, True): [
            (LadderSymbol(modes[q], spec, True), complex(b[q, p]))
            for q in range(len(modes))
            if b[q, p] != 0
        ]
        for p, mode in enumerate(modes)
    }
    substituted = set(replacements)
    fermions = spec == FERMION
    expansions: dict[tuple[LadderSymbol, ...], list] = {}
    terms: dict[tuple[LadderSymbol, ...], complex] = {}
    for factors, coeff in ket.poly._terms.items():
        if substituted.isdisjoint(factors):
            # every other product holds a creator on ``modes``
            terms[factors] = coeff
            continue
        kept = tuple([s for s in factors if s not in substituted])
        moved = tuple(filter(substituted.__contains__, factors))
        expansion = expansions.get(moved)
        if expansion is None:
            expansion = expansions[moved] = _expand(moved, replacements)
        # The j-th creator on ``modes`` at index i of a monomial has
        # len(kept) - (i - j) kept creators after it, all fermions.  Pulling
        # the creators out of ``factors`` and sorting a word into ``canon``
        # passes each of those once: the sign is the two index sums' parity.
        pulled = sum(map(factors.index, moved)) if fermions else 0
        for word, weight in expansion:
            canon = tuple(sorted(kept + word, key=_SORT_KEY))
            c = coeff * weight
            if fermions and (pulled + sum(map(canon.index, word))) % 2:
                c = -c
            terms[canon] = terms.get(canon, 0.0 + 0.0j) + c
    return KetExpression(
        ket.system, LadderPolynomial._from_merged({f: c for f, c in terms.items() if c})
    )


def apply_number_diagonal(phases: Mapping, ket: KetExpression) -> KetExpression:
    """Apply ``exp(i * sum of number-diagonal terms)`` exactly.

    ``phases`` has the format of ``CircuitElement.number_phases``: it maps a
    one-mode tuple ``(m,)`` to the coefficient of ``n_m`` and a mode pair
    ``(i, j)`` to the coefficient of ``n_i * n_j``; any other key raises
    ``ValueError``.  A creation monomial has definite occupations
    (``N adag = adag (N + 1)``), so the exponential multiplies each monomial
    by a phase; no series is needed.  The phase depends on the monomial
    only through its counts on the keyed modes, so it is computed once per
    distinct tuple of counts, with the same products and sums in the same
    order, and reused for every monomial with those counts.
    """
    for key in phases:
        match key:
            case (_,) | (_, _):
                for m in key:
                    ket.system.validate_mode(m)
            case _:
                raise ValueError(f"phase key {key!r} is not a tuple of one or two modes")
    # A ket symbol on mode m is the creator of m, so its count is n_m.
    counted = list(dict.fromkeys(m for key in phases for m in key))
    position = {m: i for i, m in enumerate(counted)}
    symbols = [LadderSymbol(m, ket.system.species(m), True) for m in counted]
    terms = [
        ([position[m] for m in key], float(value)) for key, value in phases.items()
    ]

    phase_of: dict[tuple[int, ...], complex] = {}
    out = {}
    for factors, coeff in ket.poly._terms.items():
        counts = tuple(map(factors.count, symbols))
        phase = phase_of.get(counts)
        if phase is None:
            angle = 0.0
            for positions, value in terms:
                contribution = value
                for i in positions:
                    contribution *= counts[i]
                angle += contribution
            phase = phase_of[counts] = cmath.exp(1j * angle)
        c = coeff * phase
        if c:
            out[factors] = c
    return KetExpression(ket.system, LadderPolynomial._from_merged(out))


def apply_vertex_exponential(
    generator: LadderPolynomial,
    ket: KetExpression,
    photon: int,
    electron: int,
    positron: int,
) -> KetExpression:
    """Apply ``exp(generator)`` for a pair-annihilation vertex in closed form.

    ``generator`` must be ``K = theta (adag b d + a bdag ddag)`` with real,
    finite ``theta``, ``a`` on the bosonic ``photon`` mode and ``b``, ``d``
    on the fermionic ``electron`` and ``positron`` modes.  With every other
    mode fixed, K pairs creation monomials one to one, ``|n, 1, 1> <->
    |n + 1, 0, 0>``, and the commutation rules give ``K^2 = -theta^2 m`` on
    each pair, where ``m`` is the photon count plus 1 on the member with
    both fermion modes occupied and the photon count on the member with
    neither.  Hence, exactly,

        exp(K) = cos(theta sqrt m) + K sin(theta sqrt m) / (theta sqrt m)

    pair by pair.  One reduction of ``K|ket>`` supplies the second term;
    monomials with exactly one of ``b``, ``d`` occupied, and those with
    neither and no photon, are annihilated by K and stay fixed.  Monomials
    whose basis amplitude falls below :data:`KET_PRUNE_THRESHOLD` are
    dropped, as at the end of :func:`apply_exponential_series`.
    """
    forward = (
        LadderSymbol(photon, BOSON, True),
        LadderSymbol(electron, FERMION, False),
        LadderSymbol(positron, FERMION, False),
    )
    backward = tuple(s.adjoint() for s in forward)
    theta = complex(generator._terms.get(forward, 0.0))
    if (
        theta.imag
        or not math.isfinite(theta.real)
        or generator._terms != ({forward: theta, backward: theta} if theta else {})
    ):
        raise ValueError(
            "generator is not theta (adag b d + a bdag ddag) with real, finite "
            "theta on the given vertex modes"
        )
    theta = theta.real
    system = ket.system

    def pair_angle(factors) -> float:
        occ = monomial_occupations(factors, system.total_modes)
        if occ[electron] != occ[positron]:
            return 0.0
        return theta * math.sqrt(occ[photon] + occ[electron])

    out: dict[tuple[LadderSymbol, ...], complex] = {}
    for factors, coeff in ket.poly._terms.items():
        out[factors] = coeff * math.cos(pair_angle(factors))
    image = reduce_to_ket(multiply(generator, ket.poly), system)
    for factors, coeff in image.poly._terms.items():
        x = pair_angle(factors)
        sinc = math.sin(x) / x if x else 1.0
        out[factors] = out.get(factors, 0.0 + 0.0j) + coeff * sinc
    return KetExpression(
        system, _prune_ket_poly(LadderPolynomial(out), KET_PRUNE_THRESHOLD)
    )


def apply_exponential_series(
    generator: LadderPolynomial,
    state: KetExpression,
    tol: float = SERIES_TOL,
    max_terms: int = SERIES_MAX_TERMS,
) -> KetExpression:
    """Apply ``exp(generator)`` through its power series.

    No evolution uses this any more; it stays as the general reference that
    the closed forms are tested against at small angles.  Terms of size
    ``|generator|^m / m!`` are summed in double precision, so cancellation
    spoils the sum once the generator is large (a vertex angle of about 17
    on one pair).

    Each term ``generator^m / m! |state>`` is reduced exactly by the
    commutation rules and vacuum annihilation before the next power is
    taken.  The sum stops once a term norm falls below ``tol`` and the
    partial-sum norm has stabilized to within ``tol``.

    Raises :class:`SeriesConvergenceError` after ``max_terms`` terms, which
    signals a generator that does not act boundedly on the excitation
    sector reachable from the input.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    system = state.system

    def _norm(poly: LadderPolynomial) -> float:
        total = 0.0
        for factors, coeff in poly._terms.items():
            total += abs(coeff) ** 2 * _gram_weight(factors)
        return math.sqrt(total)

    term = state.poly
    total = state.poly
    prev_norm = _norm(total)
    for m in range(1, max_terms + 1):
        term = reduce_to_ket(multiply(generator, term), system).poly * (1.0 / m)
        # prune on the gram-weighted amplitude, not the raw coefficient: a
        # tiny coefficient on a high-occupation monomial can still be large
        term = _prune_ket_poly(term, 1e-18)
        total = total + term
        term_norm = _norm(term)
        total_norm = _norm(total)
        if term_norm < tol and abs(total_norm - prev_norm) < tol:
            return KetExpression(
                system, _prune_ket_poly(total, KET_PRUNE_THRESHOLD)
            )
        prev_norm = total_norm
    raise SeriesConvergenceError(
        f"exponential series did not settle within {max_terms} terms; "
        "the generator appears unbounded on this sector"
    )


# ---------------------------------------------------------------------------
# Detection statistics from the vacuum functional
# ---------------------------------------------------------------------------


def _projector_weight(n: int, nu: int) -> float:
    """<occupation nu| P_n |occupation nu> via the normal-ordered series.

    P_n = sum_j (-1)^j / (n! j!) adag^(n+j) a^(n+j) projects onto
    occupation ``n`` of one mode.  On a monomial with occupation ``nu``
    the insertion ``adag^k a^k`` is diagonal with the falling-factorial
    coefficient ``math.perm(nu, k)`` = nu!/(nu-k)!, fermions included, and
    the alternating sum collapses to the exact indicator of nu == n.
    """
    if nu < n:
        return 0.0
    total = 0.0
    for j in range(nu - n + 1):
        total += (
            (-1) ** j
            * math.perm(nu, n + j)
            / (math.factorial(n) * math.factorial(j))
        )
    return total


def number_expectation(ket: KetExpression, mode: int) -> float:
    """<ket| N_mode |ket>: :func:`number_expectations` for the one mode."""
    return number_expectations(ket, (mode,))[mode]


def number_expectations(ket: KetExpression, modes) -> dict[int, float]:
    """<ket| N_m |ket> for every mode ``m`` of ``modes``, in one pass.

    The single normal-ordered insertion adag a is diagonal on a canonical
    monomial, with its occupation of the mode as the coefficient, so each
    mode's value sums ``|c|^2 <0|M^dag M|0>`` times that occupation over
    the ket's monomials, in term order.
    """
    totals = {}
    for m in modes:
        ket.system.validate_mode(m)
        totals[int(m)] = 0.0
    for factors, coeff in ket.poly._terms.items():
        occ = monomial_occupations(factors, ket.system.total_modes)
        weight = abs(coeff) ** 2 * _gram_weight(factors)
        for m in totals:
            totals[m] += weight * occ[m]
    return totals


def joint_number_distribution(
    ket: KetExpression, modes
) -> dict[tuple[int, ...], float]:
    """Joint occupation distribution over ``modes``.

    The probability of a pattern is the vacuum expectation of the adjoint
    ket times the product of per-mode number projectors times the ket.
    Canonical monomials are orthogonal, so only the diagonal contractions
    survive: monomial ``M`` with weight ``|c|^2 <0|M^dag M|0>`` contributes
    that weight times the product of :func:`_projector_weight` over the
    measured modes.  That product is exactly 1.0 for the pattern ``M``
    itself occupies (``_projector_weight(nu, nu)`` is ``nu!/nu!``) and
    exactly 0.0 for every other pattern (an alternating sum of integers),
    so each weight is added into its own pattern in one pass, which gives
    the same sums bit for bit.  Patterns outside the ket's support carry
    probability zero and are omitted.
    """
    modes = ket.system.detector_modes(modes)
    sums: dict[tuple[int, ...], float] = {}
    for factors, coeff in ket.poly._terms.items():
        occ = monomial_occupations(factors, ket.system.total_modes)
        restricted = tuple(occ[m] for m in modes)
        sums[restricted] = (
            sums.get(restricted, 0.0) + abs(coeff) ** 2 * _gram_weight(factors)
        )
    return {pattern: sums[pattern] for pattern in sorted(sums) if sums[pattern] != 0.0}


# ---------------------------------------------------------------------------
# Symbolic route
# ---------------------------------------------------------------------------


def _require_finite(finite: bool, k: int, element: CircuitElement) -> None:
    """Fail at the element that first makes a coefficient inf or nan."""
    if not finite:
        name = type(element).__name__
        raise ValueError(f"element {k + 1} ({name}) makes an amplitude non-finite")


def evolve_symbolic(circuit: Circuit) -> KetExpression:
    """Evolve by pure operator algebra; no cutoff is involved anywhere.

    Elements with ``number_phases`` multiply monomials by exact phases,
    other linear elements substitute creation symbols through their mode
    matrix, and the rest go through :func:`apply_vertex_exponential`, which
    is exact at any angle and rejects any generator but the annihilation
    vertex's.  No element uses the power series.  The circuit validated
    every element on its system when it was built.  A ``ValueError`` names
    the first element, if any, that makes a coefficient inf or nan.
    """
    ket = circuit.input_state
    for k, element in enumerate(circuit.elements):
        if element.number_phases is not None:
            ket = apply_number_diagonal(element.number_phases, ket)
        elif element.linear:
            ket = substitute_modes(ket, element.mode_matrix(), element.modes)
        else:
            ket = apply_vertex_exponential(
                element.generator(circuit.system), ket, *element.modes
            )
        # The coefficients of a normalized ket are at most 1 in modulus, so
        # their sum is finite exactly when each of them is.
        _require_finite(cmath.isfinite(sum(ket.poly.terms.values())), k, element)
    return ket


def _measure_ket(state: KetExpression, modes: tuple[int, ...]) -> tuple[dict, dict]:
    """Expectations of every mode from one pass over the ket
    (:func:`number_expectations`), and the joint distribution from
    :func:`joint_number_distribution`.
    """
    return number_expectations(state, modes), joint_number_distribution(state, modes)
