"""Circuit intermediate representation and the built-in experiments.

Each element's behaviour lives in its own class: a frozen dataclass of its
physical parameters derived from :class:`CircuitElement`.  A new element
defines ``modes`` and ``generator(system)``, the ladder polynomial K with
exp(K) its evolution; a number-diagonal one defines ``number_phases``
instead, keyed by mode tuples of length 1 or 2, from which the generator
follows; a linear one sets ``linear`` and defines ``mode_matrix()``;
species rules beyond the shared ones go in ``validate(system)``.  Both
routes, :func:`fockbench.fock.evolve_numeric` and
:func:`fockbench.algebra.evolve_symbolic`, read only these (the symbolic
route takes any other element to be the annihilation vertex), and a row of
:data:`fockbench.dsl.ELEMENT_SYNTAX` gives an element its text form.

Conventions frozen here:

* symmetric beam splitter ``B1 = (1/sqrt 2) [[1, i], [i, 1]]`` with
  generator coefficient matrix ``(i pi/4) [[0, 1], [1, 0]]``;
* antisymmetric beam splitter ``B2 = (1/sqrt 2) [[1, -1], [1, 1]]``, a
  rotation by pi/4, with generator ``(pi/4) [[0, -1], [1, 0]]`` obtained
  from the principal matrix logarithm (see the conventions note in the
  README: the rotation angle that reproduces B2 is pi/4, not pi/2);
* angle-theta beam splitter ``[[cos, -sin], [sin, cos]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    KetExpression,
    LadderPolynomial,
    LadderSymbol,
    basis_ket,
    quadratic_generator,
)
from .modes import BOSON, FERMION, ModeSystem

SYMMETRIC = "sym"
ANTISYMMETRIC = "asym"
ANGLE = "angle"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class CircuitElement:
    """Behaviour shared by every element; see the module docstring."""

    #: Whether the element maps creation operators by :meth:`mode_matrix`.
    linear = False
    #: ``{(mode,): phi}`` / ``{(a, b): s}`` of a generator
    #: ``i (phi n_mode + s n_a n_b)`` for a number-diagonal element.
    number_phases = None

    def validate(self, system: ModeSystem) -> None:
        if not self.linear:
            for m in self.modes:
                system.validate_mode(m)
        # species() refuses the first mode out of range, in mode order
        elif len({system.species(m) for m in self.modes}) > 1:
            raise ValueError(
                "species mismatch: a linear mode mixer cannot couple a bosonic "
                "mode to a fermionic one"
            )

    def fault(self, k: int, problem: str) -> ValueError:
        """The error of either route naming this element, element ``k + 1``
        of its circuit, and its ``problem``."""
        return ValueError(f"element {k + 1} ({type(self).__name__}) {problem}")

    def mode_matrix(self) -> np.ndarray:
        """Unitary mode map of a linear element; nonlinear ones have none."""
        raise ValueError(
            f"{type(self).__name__} is nonlinear in the number basis and has no mode matrix"
        )

    def generator(self, system: ModeSystem) -> LadderPolynomial:
        """``i`` times the number polynomial of :attr:`number_phases`."""
        terms = {}
        for key, value in self.number_phases.items():
            factors = []
            for m in key:
                factors.append(LadderSymbol(m, system.species(m), True))
                factors.append(LadderSymbol(m, system.species(m), False))
            terms[tuple(factors)] = 1j * value
        return LadderPolynomial(terms)


@dataclass(frozen=True)
class BeamSplitter(CircuitElement):
    """Two-mode linear element, symmetric/antisymmetric/angle variant."""

    mode_a: int
    mode_b: int
    variant: str = SYMMETRIC
    theta: float | None = None

    linear = True

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter modes must be distinct")
        if self.variant not in (SYMMETRIC, ANTISYMMETRIC, ANGLE):
            raise ValueError(f"unknown beam splitter variant {self.variant!r}")
        if self.variant == ANGLE and self.theta is None:
            raise ValueError("angle variant requires theta")
        if self.variant != ANGLE and self.theta is not None:
            raise ValueError("theta is only meaningful for the angle variant")

    @property
    def modes(self) -> tuple[int, int]:
        return (self.mode_a, self.mode_b)

    def mode_matrix(self) -> np.ndarray:
        if self.variant == SYMMETRIC:
            return np.array([[1.0, 1.0j], [1.0j, 1.0]]) * _INV_SQRT2
        if self.variant == ANTISYMMETRIC:
            return np.array([[1.0, -1.0], [1.0, 1.0]]) * _INV_SQRT2
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]], dtype=complex)

    def generator(self, system: ModeSystem) -> LadderPolynomial:
        if self.variant == SYMMETRIC:
            t = 0.25j * math.pi
            c = ((0.0, t), (t, 0.0))
        else:
            theta = 0.25 * math.pi if self.variant == ANTISYMMETRIC else self.theta
            c = ((0.0, -theta), (theta, 0.0))
        return quadratic_generator(c, self.modes, system.species)


@dataclass(frozen=True)
class PhaseShifter(CircuitElement):
    mode: int
    phase: float

    linear = True

    @property
    def modes(self) -> tuple[int]:
        return (self.mode,)

    @property
    def number_phases(self) -> dict:
        return {(self.mode,): self.phase}

    def mode_matrix(self) -> np.ndarray:
        return np.array([[np.exp(1j * self.phase)]])


@dataclass(frozen=True)
class KerrMedium(CircuitElement):
    """Cross-Kerr coupler: phase exp(i * strength * n_a * n_b)."""

    mode_a: int
    mode_b: int
    strength: float = math.pi

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise ValueError("Kerr medium modes must be distinct")

    @property
    def modes(self) -> tuple[int, int]:
        return (self.mode_a, self.mode_b)

    @property
    def number_phases(self) -> dict:
        return {(self.mode_a, self.mode_b): self.strength}


@dataclass(frozen=True)
class AnnihilationVertex(CircuitElement):
    """Pair-annihilation point: exp(theta (adag b d + a bdag ddag)).

    ``photon_mode`` is bosonic; ``electron_mode`` and ``positron_mode``
    are fermionic.  sin(theta) plays the role of the annihilation
    amplitude, so theta = pi/2 makes annihilation certain.
    """

    photon_mode: int
    electron_mode: int
    positron_mode: int
    theta: float

    def __post_init__(self):
        if len(set(self.modes)) != 3:
            raise ValueError("vertex modes must be distinct")

    @property
    def modes(self) -> tuple[int, int, int]:
        return (self.photon_mode, self.electron_mode, self.positron_mode)

    def validate(self, system: ModeSystem) -> None:
        # species() refuses the first mode out of range, in mode order
        photon, electron, positron = [system.species(m) for m in self.modes]
        if photon != BOSON:
            raise ValueError("species mismatch: vertex photon mode must be bosonic")
        if electron != FERMION or positron != FERMION:
            raise ValueError(
                "species mismatch: vertex electron/positron modes must be fermionic"
            )

    def generator(self, system: ModeSystem) -> LadderPolynomial:
        a = LadderSymbol(self.photon_mode, BOSON, False)
        b = LadderSymbol(self.electron_mode, FERMION, False)
        d = LadderSymbol(self.positron_mode, FERMION, False)
        forward = (a.adjoint(), b, d)
        backward = (a, b.adjoint(), d.adjoint())
        return LadderPolynomial(
            {forward: complex(self.theta), backward: complex(self.theta)}
        )


@dataclass(frozen=True)
class QuadraticCustom(CircuitElement):
    """Element generated by K = sum c[p, q] adag_modes[p] a_modes[q].

    The coefficient matrix must be anti-Hermitian so exp(K) is unitary.
    Any square array-like is accepted and stored as a nested tuple, which
    keeps the element hashable.
    """

    modes: tuple[int, ...]
    coefficients: tuple[tuple[complex, ...], ...]

    linear = True

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] != len(self.modes):
            raise ValueError("coefficient matrix must be square, one row per mode")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("custom element modes must be distinct")
        if np.abs(c + c.conj().T).max() > 1e-12:
            raise ValueError("coefficient matrix must be anti-Hermitian")
        object.__setattr__(
            self, "coefficients", tuple(tuple(complex(x) for x in row) for row in c)
        )

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=complex)

    def mode_matrix(self) -> np.ndarray:
        from scipy.linalg import expm

        return expm(self.matrix)

    def generator(self, system: ModeSystem) -> LadderPolynomial:
        return quadratic_generator(self.coefficients, self.modes, system.species)


def element_generator(element: CircuitElement, system: ModeSystem) -> LadderPolynomial:
    """Generator K with exp(K) the element's evolution operator.

    All built-in generators are anti-Hermitian, so the evolution is
    unitary on the untruncated space.  The element is validated on
    ``system`` first.
    """
    element.validate(system)
    return element.generator(system)


def generator_from_unitary(b) -> np.ndarray:
    """Anti-Hermitian coefficient matrix c with expm(c) == b.

    Uses the principal matrix logarithm (eigenphases in (-pi, pi]; an
    eigenvalue at -1 maps to +i pi), projects onto the anti-Hermitian part
    to defeat rounding, and validates by re-exponentiation.
    """
    from scipy.linalg import expm, logm

    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("input must be a square matrix")
    if np.abs(b.conj().T @ b - np.eye(b.shape[0])).max() > 1e-12:
        raise ValueError("input matrix is not unitary")
    c = logm(b)
    c = 0.5 * (c - c.conj().T)
    residual = np.abs(expm(c) - b).max()
    if residual >= 1e-10:
        raise ValueError(
            f"matrix logarithm failed to reproduce the unitary (residual {residual:.3e})"
        )
    return c


@dataclass(frozen=True)
class Circuit:
    """Ordered element list with its mode system, input ket, and detectors."""

    system: ModeSystem
    elements: tuple
    input_state: KetExpression
    measured_modes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for element in self.elements:
            element.validate(self.system)
        if self.input_state.system != self.system:
            raise ValueError("input state belongs to a different mode system")
        if not abs(self.input_state.norm() - 1.0) <= 1e-8:  # a nan norm fails too
            raise ValueError("input state must be normalized")
        measured = self.system.detector_modes(self.measured_modes)
        object.__setattr__(self, "measured_modes", measured)


def with_cutoff(circuit: Circuit, cutoff: int) -> Circuit:
    """Same circuit on a system with a different bosonic cutoff."""
    system = ModeSystem(
        circuit.system.boson_modes, circuit.system.fermion_modes, cutoff
    )
    input_state = KetExpression(system, circuit.input_state.poly)
    return Circuit(system, circuit.elements, input_state, circuit.measured_modes)


# ---------------------------------------------------------------------------
# Built-in experiments
# ---------------------------------------------------------------------------

#: name -> one-line description, in the frozen listing order.
EXPERIMENTS = {
    "single_photon_bs_sym": (
        "one photon on a symmetric 50/50 beam splitter, detectors on both outputs"
    ),
    "single_photon_bs_asym": (
        "one photon on an antisymmetric 50/50 beam splitter, detectors on both outputs"
    ),
    "cnot_dualrail": (
        "dual-rail photonic CNOT from two beam splitters, a cross-Kerr coupler, "
        "and a phase shifter; control rails 1,2 and target rails 3,4; "
        "takes control,target in {0,1}"
    ),
    "hardy_vertex": (
        "electron-positron pair meeting an annihilation vertex; takes the vertex "
        "angle theta (annihilation probability sin^2 theta, certain at pi/2)"
    ),
}


def _single_photon_circuit(variant: str) -> Circuit:
    system = ModeSystem(2, 0)
    return Circuit(
        system,
        (BeamSplitter(0, 1, variant),),
        basis_ket(system, (1, 0)),
        (0, 1),
    )


def cnot_input_occupation(control: int, target: int) -> tuple[int, int, int, int]:
    """Dual-rail encoding: logical 0 puts the photon in the lower rail."""
    occ = [0, 0, 0, 0]
    occ[0 if control == 0 else 1] = 1
    occ[2 if target == 0 else 3] = 1
    return tuple(occ)


def cnot_expected_output(control: int, target: int) -> tuple[int, int, int, int]:
    return cnot_input_occupation(control, target ^ control)


def _cnot_circuit(control: int, target: int) -> Circuit:
    if control not in (0, 1) or target not in (0, 1):
        raise ValueError("control and target must be 0 or 1")
    system = ModeSystem(4, 0)
    elements = (
        BeamSplitter(2, 3, ANTISYMMETRIC),
        KerrMedium(0, 2, math.pi),
        PhaseShifter(3, math.pi),
        BeamSplitter(2, 3, ANGLE, -0.25 * math.pi),
    )
    input_state = basis_ket(system, cnot_input_occupation(control, target))
    return Circuit(system, elements, input_state, (0, 1, 2, 3))


def _hardy_circuit(theta: float) -> Circuit:
    system = ModeSystem(1, 2)
    input_state = basis_ket(system, (0, 1, 1))
    return Circuit(
        system,
        (AnnihilationVertex(0, 1, 2, theta),),
        input_state,
        (0, 1, 2),
    )


def build_experiment(
    name: str,
    *,
    control: int = 0,
    target: int = 0,
    theta: float = 0.5 * math.pi,
) -> Circuit:
    """Construct a built-in experiment circuit by name, at the default
    cutoff; :func:`with_cutoff` gives it another."""
    if name == "single_photon_bs_sym":
        return _single_photon_circuit(SYMMETRIC)
    if name == "single_photon_bs_asym":
        return _single_photon_circuit(ANTISYMMETRIC)
    if name == "cnot_dualrail":
        return _cnot_circuit(control, target)
    if name == "hardy_vertex":
        return _hardy_circuit(theta)
    raise ValueError(f"unknown experiment {name!r}")
