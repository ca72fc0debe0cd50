"""Distance of every number printed in the goldens from a 40-digit
reference.

The goldens (``tests/golden/*.json``) were written by the code they pin.
This tool recomputes each printed number, ``norm``, every ``N<m>`` and
every row's ``prob``, in mpmath at 40 significant digits, from the
circuit text and the README's conventions alone, as a path sum over
occupation patterns:

* a run of consecutive bosonic ``bs`` and ``phase`` lines is composed into
  one mode matrix ``U`` (creators map as ``adag_j -> sum_k U[k, j]
  adag_k``) from the frozen matrices ``(1/sqrt 2) [[1, i], [i, 1]]``
  (``sym``), ``(1/sqrt 2) [[1, -1], [1, 1]]`` (``asym``), ``[[cos t, -sin
  t], [sin t, cos t]]`` (``angle=t``) and ``exp(i phi)`` (``phase``); a
  pattern ``s`` goes to each pattern ``t`` of the same photon number with
  amplitude ``Perm(U[rows(t), cols(s)]) / sqrt(prod s! prod t!)``, the
  permanent from Ryser's formula;
* ``kerr a b strength=s`` multiplies a pattern by ``exp(i s n_a n_b)``, and
  ``phase`` on a fermionic mode by ``exp(i phi n)``;
* ``vertex`` rotates each pair ``x = (n, 1, 1)``, ``y = (n + 1, 0, 0)`` on
  its (photon, electron, positron) modes by ``phi = theta sqrt(n + 1)``.
  Its generator ``K = theta (adag b d + a bdag ddag)`` applies ``d`` first;
  with Jordan-Wigner signs ``(-1)**(occupied fermionic modes of smaller
  index)``, ``K x = sigma theta sqrt(n + 1) y``, where ``sigma`` is the sign
  of ``b d`` on ``x``, and ``K y = -sigma theta sqrt(n + 1) x``, since
  ``bdag ddag`` on ``y`` passes the same modes with the electron mode
  still empty (for the electron mode before the positron mode, ``b d``
  also passes the occupied electron mode once, which the adjoint pair does
  not).  So ``exp(K) x = cos(phi) x + sigma sin(phi) y`` and ``exp(K) y =
  cos(phi) y - sigma sin(phi) x``.

Every angle, phase, strength and amplitude is the exact binary value of
the float written in the text (``kerr`` without ``strength=`` takes the
double nearest pi), and the input is normalized at 40 digits.  The
programs of the example goldens are ``circuits/<name>.fck``; those of the
mesh goldens come from ``tests/test_cli.py`` (``_mesh_program`` and
``MESH_GOLDENS``, loaded by path).  Each printed number is taken as a JSON
reader gets it, the double nearest its text; a row the report leaves out
counts as printed 0, and a printed row the reference does not have as
reference 0.  Prints, per golden file, the count of numbers, the worst
absolute error and the worst error in units of the 15th significant digit
that ``fockbench run`` prints::

    PYTHONPATH=src python tools/golden_error.py
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
CIRCUIT_DIR = ROOT / "circuits"
DIGITS = 40
BACKENDS = ("numeric", "symbolic", "both")


def golden_programs() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Program text and backends of each golden: the example circuits in
    ``circuits/``, then the meshes of tests/test_cli.py."""
    programs = {
        path.stem: (path.read_text(), BACKENDS) for path in sorted(CIRCUIT_DIR.glob("*.fck"))
    }
    spec = importlib.util.spec_from_file_location("golden_programs", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, (shape, backends) in module.MESH_GOLDENS.items():
        programs[name] = (module._mesh_program(*shape), backends)
    return programs


def _permanent(rows: list[list]) -> mpmath.mpc:
    """Ryser's formula."""
    n = len(rows)
    total = mpmath.mpf(0)
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            product = mpmath.mpf(1)
            for row in rows:
                product *= mpmath.fsum(row[c] for c in cols)
            total += (-1) ** size * product
    return (-1) ** n * total


def _patterns(total: int, modes: int):
    """Every occupation pattern of ``total`` particles in ``modes`` modes."""
    for cut in itertools.combinations(range(total + modes - 1), modes - 1):
        bounds = (-1, *cut, total + modes - 1)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(modes))


def _factorials(occ) -> mpmath.mpf:
    return mpmath.mpf(math.prod(map(math.factorial, occ)))


class _PathSum:
    """The state as a dict from occupation pattern to amplitude, with the
    pending linear run ``u`` over the bosonic modes."""

    def __init__(self, bosons: int, fermions: int):
        self.bosons, self.modes = bosons, bosons + fermions
        self.state = {(0,) * self.modes: mpmath.mpc(1)}
        self.u = None

    def create(self, terms: list[tuple[mpmath.mpc, list[int]]]) -> None:
        """The normalized sum of ``amplitude * prod creators |0>``; a
        fermionic creator list out of mode order carries its permutation's
        sign."""
        state = {}
        for amplitude, modes in terms:
            occ = [0] * self.modes
            for m in modes:
                occ[m] += 1
            fermions = [m for m in modes if m >= self.bosons]
            if any(occ[m] > 1 for m in fermions):
                continue
            inversions = sum(a > b for a, b in itertools.combinations(fermions, 2))
            amplitude *= (-1) ** inversions * mpmath.sqrt(_factorials(occ))
            state[tuple(occ)] = state.get(tuple(occ), 0) + amplitude
        norm = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in state.values()))
        self.state = {occ: a / norm for occ, a in state.items()}

    def linear(self, modes: tuple[int, ...], block) -> None:
        """Compose a bosonic element with mode matrix ``block`` on ``modes``."""
        n = self.bosons
        if self.u is None:
            self.u = [[mpmath.mpf(int(j == k)) for k in range(n)] for j in range(n)]
        rows = [self.u[m] for m in modes]
        for m, coefficients in zip(modes, block):
            self.u[m] = [
                mpmath.fsum(c * row[k] for c, row in zip(coefficients, rows)) for k in range(n)
            ]

    def flush(self) -> None:
        """Apply the pending linear run by permanents."""
        if self.u is None:
            return
        u, self.u, state = self.u, None, {}
        for occ, amplitude in self.state.items():
            bosons, rest = occ[: self.bosons], occ[self.bosons :]
            cols = [j for j, n in enumerate(bosons) for _ in range(n)]
            for out in _patterns(len(cols), self.bosons):
                rows = [[u[k][j] for j in cols] for k, n in enumerate(out) for _ in range(n)]
                value = _permanent(rows) if rows else mpmath.mpf(1)
                value /= mpmath.sqrt(_factorials(bosons) * _factorials(out))
                state[out + rest] = state.get(out + rest, 0) + amplitude * value
        self.state = state

    def number_phase(self, modes: tuple[int, ...], angle: mpmath.mpf) -> None:
        """Multiply each pattern by ``exp(i angle prod_m n_m)``."""
        self.flush()
        self.state = {
            occ: a * mpmath.expj(angle * math.prod(occ[m] for m in modes))
            for occ, a in self.state.items()
        }

    def _annihilation_sign(self, occ: list[int], mode: int) -> int:
        """Jordan-Wigner sign of a fermionic annihilator on ``occ``; empties it."""
        sign = (-1) ** sum(occ[self.bosons : mode])
        occ[mode] = 0
        return sign

    def vertex(self, photon: int, electron: int, positron: int, theta: mpmath.mpf) -> None:
        """The pair rotation of the module docstring."""
        self.flush()
        state = {}
        for occ, amplitude in self.state.items():
            if occ[electron] == occ[positron] == 1:
                x, is_x = list(occ), True
            elif occ[electron] == occ[positron] == 0 and occ[photon] > 0:
                x, is_x = list(occ), False
                x[photon] -= 1
                x[electron] = x[positron] = 1
            else:
                state[occ] = state.get(occ, 0) + amplitude
                continue
            n = x[photon]
            y = list(x)
            sigma = self._annihilation_sign(y, positron) * self._annihilation_sign(y, electron)
            y[photon] += 1
            x, y = tuple(x), tuple(y)
            phi = theta * mpmath.sqrt(n + 1)
            c, s = mpmath.cos(phi), sigma * mpmath.sin(phi)
            here, there, across = (x, y, s) if is_x else (y, x, -s)
            state[here] = state.get(here, 0) + c * amplitude
            state[there] = state.get(there, 0) + across * amplitude
        self.state = state


def _float(text: str) -> mpmath.mpf:
    return mpmath.mpf(float(text))


def _modes(words: list[str]) -> list[int]:
    return [int(w) - 1 for w in words]


def reference(program: str) -> dict[str, mpmath.mpf]:
    """Each number a program's report prints, keyed ``norm``, ``N<m>`` or
    by the row's occupation text, at :data:`DIGITS` digits."""
    measured = None
    with mpmath.workdps(DIGITS):
        r2 = 1 / mpmath.sqrt(2)
        splitters = {
            "sym": [[r2, 1j * r2], [1j * r2, r2]],
            "asym": [[r2, -r2], [r2, r2]],
        }
        for raw in program.splitlines():
            words = raw.split("#", 1)[0].split()
            if not words:
                continue
            if words[0] == "system":
                fields = dict(w.split("=") for w in words[1:])
                paths = _PathSum(int(fields.get("bosons", 0)), int(fields.get("fermions", 0)))
            elif words[:2] == ["input", "create"]:
                paths.create([(mpmath.mpc(1), _modes(words[2:]))])
            elif words[:2] == ["input", "superpose"]:
                terms = []
                for term in " ".join(words[2:]).split(";"):
                    amplitude, modes = term.strip().split(":")
                    value = complex(amplitude)
                    terms.append((mpmath.mpc(value.real, value.imag), _modes(modes.split(","))))
                paths.create(terms)
            elif words[0] in ("bs", "phase") and all(
                int(w) <= paths.bosons for w in words[1 : 3 if words[0] == "bs" else 2]
            ):
                if words[0] == "phase":
                    paths.linear(tuple(_modes(words[1:2])), [[mpmath.expj(_float(words[2]))]])
                elif words[3].startswith("angle="):
                    t = _float(words[3].removeprefix("angle="))
                    c, s = mpmath.cos(t), mpmath.sin(t)
                    paths.linear(tuple(_modes(words[1:3])), [[c, -s], [s, c]])
                else:
                    paths.linear(tuple(_modes(words[1:3])), splitters[words[3]])
            elif words[0] == "phase":
                paths.number_phase(tuple(_modes(words[1:2])), _float(words[2]))
            elif words[0] == "kerr":
                strength = words[3].removeprefix("strength=") if len(words) > 3 else repr(math.pi)
                paths.number_phase(tuple(_modes(words[1:3])), _float(strength))
            elif words[0] == "vertex":
                theta = _float(words[4].removeprefix("theta="))
                paths.vertex(*_modes(words[1:4]), theta)
            elif words[0] == "measure":
                measured = None if words[1:] == ["all"] else _modes(words[1:])
            else:
                raise ValueError(f"no reference for the program line {raw!r}")
        paths.flush()
        measured = list(range(paths.modes)) if measured is None else measured
        probabilities = {occ: abs(a) ** 2 for occ, a in paths.state.items()}
        out = {"norm": mpmath.sqrt(mpmath.fsum(probabilities.values()))}
        for m in measured:
            out[f"N{m + 1}"] = mpmath.fsum(p * occ[m] for occ, p in probabilities.items())
        for occ, p in probabilities.items():
            key = str([occ[m] for m in measured])
            out[key] = out.get(key, 0) + p
        return out


def printed_numbers(report_text: str) -> dict[str, str]:
    """The printed text of ``norm``, each ``N<m>`` and each row ``prob`` of
    one JSON report."""
    report = json.loads(report_text, parse_float=str, parse_int=str)
    out = {"norm": report["norm"], **report["expectations"]}
    for row in report["distribution"]:
        out[str([int(n) for n in row["occ"]])] = row["prob"]
    return out


def errors(report_text: str, expected: dict) -> dict[str, tuple[mpmath.mpf, mpmath.mpf]]:
    """For each number printed in a JSON report or held by ``expected``:
    its absolute distance from ``expected``, and that distance in units of
    the 15th significant digit of the printed value (of 1 where 0 is
    printed)."""
    printed = printed_numbers(report_text)
    if not set(expected) >= {k for k in printed if not k.startswith("[")}:
        raise ValueError("the report prints a field the reference does not have")
    out = {}
    with mpmath.workdps(DIGITS):
        for key in printed.keys() | expected.keys():
            value = mpmath.mpf(float(printed.get(key, "0")))  # as a JSON reader gets it
            truth = expected.get(key, mpmath.mpf(0))
            error = abs(value - truth)
            scale = abs(value) or mpmath.mpf(1)
            unit = mpmath.mpf(10) ** (int(mpmath.floor(mpmath.log10(scale))) - 14)
            out[key] = (error, error / unit)
    return out


def main() -> int:
    print(f"{'golden':36s} {'numbers':>7s} {'worst abs':>10s} {'worst 15th-digit units':>22s}")
    for name, (program, backends) in golden_programs().items():
        expected = reference(program)
        for backend in backends:
            golden = GOLDEN_DIR / f"{name}.{backend}.json"
            found = errors(golden.read_text(), expected).values()
            worst_abs = max(e for e, _ in found)
            worst_units = max(u for _, u in found)
            print(
                f"{golden.name:36s} {len(found):7d} {float(worst_abs):10.2e} "
                f"{float(worst_units):22.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
