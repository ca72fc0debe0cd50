"""What the two routes share: detector statistics and their comparison.

The explicit truncated route is :func:`~fockbench.fock.evolve_numeric`;
the representation-free one is :func:`~fockbench.algebra.evolve_symbolic`.
Neither imports this module.  :func:`measure` turns either route's output
into one :class:`MeasurementReport`, and :func:`compare_backends` turns the
physical claim that both routes agree into an executable check.  It is the
only place where the two routes are compared: ``fockbench run --backend
both``, ``fockbench check`` and the library all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import KetExpression, _measure_ket, evolve_symbolic
from .circuit import Circuit
from .fock import FockVector, _measure_fock, evolve_numeric

# The benchmark tracer (perfbench/tracer.py) times these under "backends.";
# ROADMAP item 1 renames its targets.
from .fock import expm_multiply, ket_to_fock, polynomial_matrix  # noqa: F401

#: Comparison tolerance of ``fockbench run --tol`` and of the functions below.
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MeasurementReport:
    """Number-operator detector statistics over the measured modes."""

    measured_modes: tuple[int, ...]
    expectations: dict
    distribution: dict
    norm: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-quantity absolute deviations between the two backends, and the
    two reports they were taken from."""

    deviations: dict
    max_deviation: float
    tolerance: float
    verdict: str
    numeric: MeasurementReport
    symbolic: MeasurementReport

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def measure(state, modes) -> MeasurementReport:
    """Detector statistics (N = adag a per mode) over ``modes``.

    Works on either backend's output.  For a :class:`FockVector` the
    statistics are read from basis amplitudes; for a
    :class:`KetExpression` they are evaluated through vacuum expectations
    of normal-ordered number insertions, never through any basis.
    """
    if not isinstance(state, (FockVector, KetExpression)):
        raise TypeError("measure expects a FockVector or a KetExpression")
    modes = state.system.detector_modes(modes)
    norm = state.norm()
    if not abs(norm - 1.0) <= 1e-8:  # a nan norm fails too
        raise ValueError(f"measurement requires a normalized state (norm {norm:.12g})")
    route = _measure_fock if isinstance(state, FockVector) else _measure_ket
    return MeasurementReport(modes, *route(state, modes), norm)


def require_tolerance(tol: float) -> None:
    """Refuse a comparison tolerance that is not finite and positive: under
    nan every run would fail, under inf every run would pass."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def compare_reports(
    numeric: MeasurementReport, symbolic: MeasurementReport, tol: float = DEFAULT_TOLERANCE
) -> ComparisonReport:
    """Compare every quantity of two measurement reports.

    Deviations are absolute differences of detector expectations and of
    every joint-outcome probability (all bounded by 1); the verdict is
    "pass" exactly when the largest deviation is below ``tol``, which
    :func:`require_tolerance` checks first.  Reports over different modes
    are refused before anything is compared.
    """
    require_tolerance(tol)
    if numeric.measured_modes != symbolic.measured_modes:
        modes = f"{numeric.measured_modes} and {symbolic.measured_modes}"
        raise ValueError(f"cannot compare reports over modes {modes}")
    deviations: dict[str, float] = {}
    for m in numeric.measured_modes:
        deviations[f"N{m + 1}"] = abs(
            numeric.expectations[m] - symbolic.expectations[m]
        )
    patterns = set(numeric.distribution) | set(symbolic.distribution)
    for pattern in sorted(patterns):
        label = "P(" + ",".join(map(str, pattern)) + ")"
        deviations[label] = abs(
            numeric.distribution.get(pattern, 0.0)
            - symbolic.distribution.get(pattern, 0.0)
        )
    max_deviation = max(deviations.values(), default=0.0)
    verdict = "pass" if max_deviation < tol else "fail"
    return ComparisonReport(deviations, max_deviation, tol, verdict, numeric, symbolic)


def compare_backends(circuit: Circuit, tol: float = DEFAULT_TOLERANCE) -> ComparisonReport:
    """Run both backends on ``circuit`` and compare their reports.

    A tolerance that :func:`require_tolerance` refuses is refused before
    either route runs.
    """
    require_tolerance(tol)
    numeric = measure(evolve_numeric(circuit), circuit.measured_modes)
    symbolic = measure(evolve_symbolic(circuit), circuit.measured_modes)
    return compare_reports(numeric, symbolic, tol)
