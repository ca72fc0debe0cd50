"""Line-oriented text format for circuits.

Grammar (UTF-8, one statement per line, '#' starts a comment):

    system bosons=<int> [fermions=<int>] cutoff=<int>
    input create <mode>+
    input superpose <complex>:<mode-list> (';' <complex>:<mode-list>)*
    bs <m1> <m2> (sym|asym|angle=<radians>)
    phase <mode> <radians>
    kerr <m1> <m2> [strength=<radians>]        # strength defaults to pi
    vertex <photon-mode> <e-mode> <p-mode> theta=<radians>
    measure all | measure <mode>+

Modes are 1-based, bosonic modes numbered before fermionic ones.  Complex
amplitudes use Python literal syntax without spaces, e.g. ``0.5``, ``1j``,
``-0.5+0.5j``; a mode list is comma-separated, e.g. ``1,2`` for one
particle in each of modes 1 and 2.  The system line must come first; a
missing ``input`` means the vacuum and a missing ``measure`` means all
modes.  Input states are normalized after parsing.

Each element keyword is one row of :data:`ELEMENT_SYNTAX`: its class, its
usage string (the grammar lines above) and its argument spec.  The parser
and the renderer both read that table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .algebra import LadderPolynomial, creation_product, reduce_to_ket, vacuum_ket
from .circuit import (
    ANGLE,
    ANTISYMMETRIC,
    AnnihilationVertex,
    BeamSplitter,
    Circuit,
    KerrMedium,
    PhaseShifter,
    SYMMETRIC,
)
from .modes import ModeSystem

class CircuitParseError(Exception):
    """Malformed circuit text, with 1-based line and column positions."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.message}"


def _tokenize(line: str) -> list[tuple[str, int]]:
    """The words of ``line``, split at whitespace, each with its 1-based column."""
    tokens, end = [], 0
    for word in line.split():
        start = line.index(word, end)
        end = start + len(word)
        tokens.append((word, start + 1))
    return tokens


def _parse_int(text: str, what: str, lineno: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CircuitParseError(f"expected integer {what}, got {text!r}", lineno, col)


def _parse_float(text: str, what: str, lineno: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CircuitParseError(f"expected number {what}, got {text!r}", lineno, col)
    if not math.isfinite(value):
        raise CircuitParseError(f"{what} must be finite, got {text!r}", lineno, col)
    return value


def _parse_mode(text: str, system: ModeSystem, lineno: int, col: int) -> int:
    raw = _parse_int(text, "mode", lineno, col)
    if not 1 <= raw <= system.total_modes:
        raise CircuitParseError(
            f"mode {raw} out of range (system has {system.total_modes} modes, 1-based)",
            lineno,
            col,
        )
    return raw - 1


# ---------------------------------------------------------------------------
# Element syntax table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Number:
    """Finite number for the element field ``field``, bare or ``field=<radians>``."""

    field: str
    keyed: bool = True
    optional: bool = False  # when omitted, the element's default applies

    def parse(self, token: str, lineno: int, col: int) -> dict:
        prefix = self.field + "="
        if self.keyed and not token.startswith(prefix):
            raise CircuitParseError(
                f"expected {prefix}<radians>, got {token!r}", lineno, col
            )
        text = token[len(prefix):] if self.keyed else token
        return {self.field: _parse_float(text, self.field, lineno, col)}

    def render(self, element) -> str:
        value = repr(getattr(element, self.field))
        return f"{self.field}={value}" if self.keyed else value


class _Variant:
    """Beam splitter ``sym`` or ``asym`` (the variant names) or ``angle=<radians>``."""

    optional = False

    def parse(self, token: str, lineno: int, col: int) -> dict:
        if token in (SYMMETRIC, ANTISYMMETRIC):
            return {"variant": token}
        if token.startswith("angle="):
            theta = _parse_float(token[len("angle="):], "angle", lineno, col)
            return {"variant": ANGLE, "theta": theta}
        raise CircuitParseError(
            f"expected sym, asym or angle=<radians>, got {token!r}", lineno, col
        )

    def render(self, element) -> str:
        return f"angle={element.theta!r}" if element.variant == ANGLE else element.variant


@dataclass(frozen=True)
class ElementSyntax:
    """``keyword``, then ``modes`` 1-based modes, then ``args``.

    Parsing builds ``element(*modes, **parsed args)``.  With ``noun`` set, a
    repeated mode is reported as "duplicate mode in <noun>"; otherwise the
    element's constructor reports it.
    """

    keyword: str
    element: type
    usage: str
    modes: int
    args: tuple
    noun: str | None = None


#: Every element with a text form, in grammar order.
ELEMENT_SYNTAX = (
    ElementSyntax("bs", BeamSplitter, "bs <m1> <m2> (sym|asym|angle=<radians>)",
                  2, (_Variant(),), "beam splitter"),
    ElementSyntax("phase", PhaseShifter, "phase <mode> <radians>",
                  1, (_Number("phase", keyed=False),)),
    ElementSyntax("kerr", KerrMedium, "kerr <m1> <m2> [strength=<radians>]",
                  2, (_Number("strength", optional=True),), "Kerr medium"),
    ElementSyntax("vertex", AnnihilationVertex,
                  "vertex <photon-mode> <e-mode> <p-mode> theta=<radians>",
                  3, (_Number("theta"),), "vertex"),
)

_BY_KEYWORD = {syntax.keyword: syntax for syntax in ELEMENT_SYNTAX}
_BY_CLASS = {syntax.element: syntax for syntax in ELEMENT_SYNTAX}


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.system: ModeSystem | None = None
        self.input_poly: LadderPolynomial | None = None
        self.input_line: int | None = None
        self.elements: list = []
        self.measured: list[int] | None = None

    def parse(self) -> Circuit:
        statements = {
            "system": self._parse_system,
            "input": self._parse_input,
            "measure": self._parse_measure,
        }
        declared = set()
        for lineno, raw in enumerate(self.lines, 1):
            line = raw.split("#", 1)[0]
            tokens = _tokenize(line)
            if not tokens:
                continue
            keyword, col = tokens[0]
            if self.system is None and keyword != "system":
                raise CircuitParseError(
                    "the system must be declared before any other statement",
                    lineno,
                    col,
                )
            if keyword in _BY_KEYWORD:
                self._parse_element(_BY_KEYWORD[keyword], tokens, lineno, line)
            elif keyword in statements:
                if keyword in declared:
                    raise CircuitParseError(
                        f"duplicate {keyword} declaration", lineno, col
                    )
                declared.add(keyword)
                statements[keyword](tokens, lineno, line)
            else:
                raise CircuitParseError(f"unknown element {keyword!r}", lineno, col)
        return self._finish()

    # -- statements -----------------------------------------------------

    def _parse_system(self, tokens, lineno, line):
        usage = "system bosons=<int> [fermions=<int>] cutoff=<int>"
        seen: dict[str, int] = {}
        for token, col in tokens[1:]:
            if "=" not in token:
                raise CircuitParseError(
                    f"expected key=value, got {token!r}; usage: {usage}", lineno, col
                )
            key, value = token.split("=", 1)
            if key not in ("bosons", "fermions", "cutoff"):
                raise CircuitParseError(f"unknown system key {key!r}", lineno, col)
            if key in seen:
                raise CircuitParseError(f"duplicate system key {key!r}", lineno, col)
            seen[key] = _parse_int(value, key, lineno, col)
        for key in ("bosons", "cutoff"):
            if key not in seen:
                raise CircuitParseError(
                    f"missing {key}= in system declaration; usage: {usage}",
                    lineno,
                    len(line) + 1,
                )
        try:
            self.system = ModeSystem(
                seen["bosons"], seen.get("fermions", 0), seen["cutoff"]
            )
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno, tokens[0][1])

    def _parse_input(self, tokens, lineno, line):
        if len(tokens) < 2:
            raise CircuitParseError(
                "input requires 'create' or 'superpose'", lineno, len(line) + 1
            )
        form, col = tokens[1]
        if form == "create":
            if len(tokens) < 3:
                raise CircuitParseError(
                    "input create requires at least one mode", lineno, len(line) + 1
                )
            modes = [_parse_mode(text, self.system, lineno, tcol) for text, tcol in tokens[2:]]
            self.input_poly = creation_product(self.system, modes)
        elif form == "superpose":
            offset = line.index("superpose", col - 1) + len("superpose")
            self.input_poly = self._parse_superpose(line, offset, lineno)
        else:
            raise CircuitParseError(
                f"expected 'create' or 'superpose', got {form!r}", lineno, col
            )
        self.input_line = lineno

    def _parse_superpose(self, line, offset, lineno) -> LadderPolynomial:
        body = line[offset:]
        if not body.strip():
            raise CircuitParseError("empty superposition", lineno, offset + 1)
        poly = LadderPolynomial.zero()
        pos = offset
        for chunk in body.split(";"):
            col = pos + 1 + (len(chunk) - len(chunk.lstrip()))
            term = chunk.strip()
            pos += len(chunk) + 1
            if not term:
                raise CircuitParseError("empty superposition term", lineno, col)
            if ":" not in term:
                raise CircuitParseError(
                    f"expected <complex>:<mode-list>, got {term!r}", lineno, col
                )
            amp_text, mode_text = term.split(":", 1)
            try:
                amp = complex(amp_text.strip())
            except ValueError:
                raise CircuitParseError(
                    f"invalid complex amplitude {amp_text.strip()!r}", lineno, col
                )
            if not cmath.isfinite(amp):
                raise CircuitParseError(
                    f"amplitude must be finite, got {amp_text.strip()!r}", lineno, col
                )
            mode_items = [m.strip() for m in mode_text.split(",")]
            if not any(mode_items):
                raise CircuitParseError("empty mode list", lineno, col)
            modes = []
            for item in mode_items:
                if not item:
                    raise CircuitParseError("empty mode in mode list", lineno, col)
                modes.append(_parse_mode(item, self.system, lineno, col))
            poly = poly + creation_product(self.system, modes, amp)
        return poly

    def _parse_element(self, syntax: ElementSyntax, tokens, lineno, line):
        fewest = 1 + syntax.modes + sum(not arg.optional for arg in syntax.args)
        most = 1 + syntax.modes + len(syntax.args)
        if len(tokens) < fewest:
            raise CircuitParseError(
                f"too few arguments; usage: {syntax.usage}", lineno, len(line) + 1
            )
        if len(tokens) > most:
            text, col = tokens[most]
            raise CircuitParseError(
                f"unexpected token {text!r}; usage: {syntax.usage}", lineno, col
            )
        modes = []
        for text, col in tokens[1 : 1 + syntax.modes]:
            mode = _parse_mode(text, self.system, lineno, col)
            if syntax.noun is not None and mode in modes:
                raise CircuitParseError(f"duplicate mode in {syntax.noun}", lineno, col)
            modes.append(mode)
        params = {}
        for arg, (text, col) in zip(syntax.args, tokens[1 + syntax.modes :]):
            params.update(arg.parse(text, lineno, col))
        try:
            element = syntax.element(*modes, **params)
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno, tokens[1][1])
        try:
            element.validate(self.system)
        except (ValueError, IndexError) as exc:
            raise CircuitParseError(str(exc), lineno, tokens[0][1])
        self.elements.append(element)

    def _parse_measure(self, tokens, lineno, line):
        if len(tokens) < 2:
            raise CircuitParseError(
                "measure requires 'all' or a mode list", lineno, len(line) + 1
            )
        if len(tokens) == 2 and tokens[1][0] == "all":
            self.measured = list(range(self.system.total_modes))
            return
        modes = []
        for text, col in tokens[1:]:
            modes.append(_parse_mode(text, self.system, lineno, col))
        self.measured = modes

    def _finish(self) -> Circuit:
        if self.system is None:
            raise CircuitParseError(
                "missing system declaration", max(1, len(self.lines)), 1
            )
        if self.input_poly is None:
            ket = vacuum_ket(self.system)
        else:
            ket = reduce_to_ket(self.input_poly, self.system)
            if ket.poly.is_zero:
                raise CircuitParseError(
                    "input state vanishes (Pauli exclusion or cancelling terms)",
                    self.input_line,
                    1,
                )
            ket = ket.normalized()
        measured = (
            self.measured
            if self.measured is not None
            else list(range(self.system.total_modes))
        )
        return Circuit(self.system, tuple(self.elements), ket, tuple(measured))


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises :class:`CircuitParseError` with position."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render_input(circuit: Circuit) -> str | None:
    amplitudes = circuit.input_state.occupation_amplitudes()
    if len(amplitudes) == 1:
        ((occ, amplitude),) = amplitudes.items()
        if abs(amplitude - 1.0) < 1e-12:
            if not any(occ):
                return None  # vacuum input is the default
            modes = " ".join(str(m + 1) for m, n in enumerate(occ) for _ in range(n))
            return f"input create {modes}"
    parts = []
    for factors, coeff in sorted(
        circuit.input_state.poly.terms.items(),
        key=lambda item: tuple(s.mode for s in item[0]),
    ):
        if not factors:
            raise ValueError("a superposition with a vacuum branch has no text form")
        modes = ",".join(str(s.mode + 1) for s in factors)
        parts.append(f"{coeff!r}:{modes}")
    return "input superpose " + " ; ".join(parts)


def _render_element(element) -> str:
    syntax = _BY_CLASS.get(type(element))
    if syntax is None:
        raise ValueError("custom quadratic elements have no text form")
    words = [syntax.keyword, *(str(m + 1) for m in element.modes)]
    words.extend(arg.render(element) for arg in syntax.args)
    return " ".join(words)


def render_circuit(circuit: Circuit) -> str:
    """Render to DSL text that parses back to an equivalent circuit.

    Raises ``ValueError`` for a circuit the text format cannot express: a
    custom quadratic element, or a superposition input with a vacuum branch.
    """
    system = circuit.system
    head = f"system bosons={system.boson_modes}"
    if system.fermion_modes:
        head += f" fermions={system.fermion_modes}"
    head += f" cutoff={system.cutoff}"
    lines = [head]
    input_line = _render_input(circuit)
    if input_line is not None:
        lines.append(input_line)
    lines.extend(_render_element(e) for e in circuit.elements)
    if circuit.measured_modes == tuple(range(system.total_modes)):
        lines.append("measure all")
    else:
        lines.append("measure " + " ".join(str(m + 1) for m in circuit.measured_modes))
    return "\n".join(lines) + "\n"
