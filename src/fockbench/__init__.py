"""fockbench: a second-quantization circuit simulator with two backends.

One backend evaluates circuits in an explicit truncated occupation-number
representation; the other works purely algebraically from the canonical
(anti)commutation relations and vacuum annihilation.  Detection statistics
from both routes agree, and the package ships a comparator that checks
exactly that on every circuit it runs.
"""

from .algebra import (
    KetExpression,
    LadderPolynomial,
    LadderSymbol,
    annihilation,
    apply_number_diagonal,
    apply_vertex_exponential,
    basis_ket,
    commutator,
    creation,
    evolve_symbolic,
    ket_from_creations,
    ket_inner,
    multiply,
    normal_order,
    reduce_to_ket,
    substitute_modes,
    vacuum_expectation,
    vacuum_ket,
)
from .backends import (
    ComparisonReport,
    MeasurementReport,
    compare_backends,
    compare_reports,
    measure,
)
from .circuit import (
    AnnihilationVertex,
    BeamSplitter,
    Circuit,
    EXPERIMENTS,
    KerrMedium,
    PhaseShifter,
    QuadraticCustom,
    build_experiment,
    element_generator,
    generator_from_unitary,
    with_cutoff,
)
from .dsl import CircuitParseError, parse_circuit, render_circuit
from .fock import (
    FockVector,
    TruncationWarning,
    annihilation_op,
    creation_op,
    evolve_numeric,
    heisenberg_residual,
    inner_product,
    ket_to_fock,
    mode_bipartition_entropy,
    number_op,
    polynomial_matrix,
    vacuum_state,
)
from .modes import BOSON, DEFAULT_CUTOFF, FERMION, ModeSystem

__version__ = "0.1.0"
