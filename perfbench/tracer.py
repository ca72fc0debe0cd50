"""Spans around fockbench's public calls, recorded from outside the package.

Each span name is ``<module>.<function>``.  A function is wrapped under
every name a fockbench module looks it up by: ``cli`` and ``backends``
import several functions by name, so the wrapper replaces the original
object wherever it is bound in a loaded ``fockbench.*`` module.  Spans are
kept in memory with the invocation (op) id and the parent span, and
written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

#: span name -> (module, attribute) holding the original function.
TARGETS = {
    "dsl.parse_circuit": ("fockbench.dsl", "parse_circuit"),
    "circuit.build_experiment": ("fockbench.circuit", "build_experiment"),
    "circuit.element_generator": ("fockbench.circuit", "element_generator"),
    "backends.compare_backends": ("fockbench.backends", "compare_backends"),
    "backends.evolve_numeric": ("fockbench.backends", "evolve_numeric"),
    "backends.evolve_symbolic": ("fockbench.backends", "evolve_symbolic"),
    "backends.measure": ("fockbench.backends", "measure"),
    "backends.measure_fock": ("fockbench.backends", "_measure_fock"),
    "backends.measure_ket": ("fockbench.backends", "_measure_ket"),
    "backends.ket_to_fock": ("fockbench.backends", "ket_to_fock"),
    "backends.polynomial_matrix": ("fockbench.backends", "polynomial_matrix"),
    "backends.expm_multiply": ("fockbench.backends", "expm_multiply"),
    "algebra.substitute_modes": ("fockbench.algebra", "substitute_modes"),
    "algebra.reduce_to_ket": ("fockbench.algebra", "reduce_to_ket"),
    "algebra.normal_order": ("fockbench.algebra", "normal_order"),
    "algebra.apply_number_diagonal": ("fockbench.algebra", "apply_number_diagonal"),
    "algebra.apply_exponential_series": (
        "fockbench.algebra", "apply_exponential_series"),
    "algebra.joint_number_distribution": (
        "fockbench.algebra", "joint_number_distribution"),
    "algebra.number_expectation": ("fockbench.algebra", "number_expectation"),
}

#: Self time (ms per invocation) reported for these spans.
SELF_MS = (
    "cli.cmd_run", "dsl.parse_circuit", "circuit.build_experiment",
    "circuit.element_generator", "backends.compare_backends",
    "backends.evolve_numeric", "backends.expm_multiply",
    "backends.polynomial_matrix", "backends.measure_fock", "backends.measure_ket",
    "algebra.substitute_modes", "algebra.reduce_to_ket", "algebra.normal_order",
    "algebra.apply_number_diagonal", "algebra.apply_exponential_series",
    "algebra.joint_number_distribution", "algebra.number_expectation",
)

#: Calls per invocation reported for these spans.
CALLS = (
    "backends.evolve_numeric", "backends.expm_multiply", "backends.polynomial_matrix",
    "algebra.substitute_modes", "algebra.reduce_to_ket", "algebra.normal_order",
    "algebra.apply_exponential_series",
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [op, parent, name, start, end]
        self.stack: list[int] = []
        self.op = -1
        self.counts = {
            "basis_states": 0, "numeric_amplitudes": 0, "numeric_calls": 0,
            "ket_monomials": 0, "symbolic_calls": 0,
            "measured_monomials": 0, "measure_attempts": 0,
            "max_deviation": 0.0,
        }
        self._patches: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, func, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self.op, stack[-1] if stack else -1, name, clock(), 0.0])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_numeric(self, args, state):
        self.counts["basis_states"] += args[0].system.basis_size
        self.counts["numeric_amplitudes"] += len(state.amplitudes)
        self.counts["numeric_calls"] += 1

    def _after_symbolic(self, args, ket):
        self.counts["ket_monomials"] += len(ket.poly.terms)
        self.counts["symbolic_calls"] += 1

    def _after_distribution(self, args, distribution):
        monomials = len(args[0].poly.terms)
        self.counts["measured_monomials"] += monomials
        self.counts["measure_attempts"] += monomials * len(distribution)

    def _after_compare(self, args, comparison):
        self.counts["max_deviation"] = max(
            self.counts["max_deviation"], comparison.max_deviation)

    def install(self) -> None:
        after = {
            "backends.evolve_numeric": self._after_numeric,
            "backends.evolve_symbolic": self._after_symbolic,
            "algebra.joint_number_distribution": self._after_distribution,
            "backends.compare_backends": self._after_compare,
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "fockbench" or n.startswith("fockbench.")]
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((namespace, key, value))
                        namespace[key] = wrapper
        command = sys.modules["fockbench.cli"].main.commands["run"]
        self._patches.append((vars(command), "callback", command.callback))
        command.callback = self._wrap("cli.cmd_run", command.callback)

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._patches):
            namespace[key] = value
        self._patches.clear()

    def self_times(self, scale=None) -> dict[str, list]:
        """name -> [calls, total self seconds]; self = duration - children.

        ``scale[op]``, when given, multiplies the self time of op's spans."""
        child_time = [0.0] * len(self.spans)
        for op, parent, name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for (op, parent, name, start, end), children in zip(self.spans, child_time):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start - children) * (1.0 if scale is None else scale[op])
        return out

    def series_terms(self) -> int:
        """``reduce_to_ket`` calls made inside an exponential-series span."""
        names = [s[2] for s in self.spans]
        in_series = [False] * len(self.spans)
        for i, (op, parent, name, start, end) in enumerate(self.spans):
            in_series[i] = parent >= 0 and (
                in_series[parent] or names[parent] == "algebra.apply_exponential_series")
        return sum(1 for i, n in enumerate(names)
                   if n == "algebra.reduce_to_ket" and in_series[i])

    def metrics(self, invocations: int, scale=None) -> dict[str, float]:
        """Per-layer metrics, each a mean per ``run`` invocation unless noted."""
        per = max(invocations, 1)
        times = self.self_times(scale)
        out = {}
        for name in SELF_MS:
            out[f"{name}.self_ms"] = 1000.0 * times.get(name, [0, 0.0])[1] / per
        for name in CALLS:
            out[f"{name}.calls"] = times.get(name, [0, 0.0])[0] / per
        c = self.counts
        out["fock.basis_states"] = c["basis_states"] / max(c["numeric_calls"], 1)
        out["fock.useful_fraction"] = (
            c["numeric_amplitudes"] / c["basis_states"] if c["basis_states"] else 0.0)
        out["algebra.ket_monomials"] = c["ket_monomials"] / max(c["symbolic_calls"], 1)
        out["algebra.measure_useful_fraction"] = (
            c["measured_monomials"] / c["measure_attempts"]
            if c["measure_attempts"] else 0.0)
        out["algebra.series_terms"] = self.series_terms() / per
        out["backends.compare_backends.max_deviation"] = c["max_deviation"]
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, parent, name, start, end in self.spans:
                handle.write(json.dumps([op, parent, name, start, end]) + "\n")
