"""The one physics reference of the tests, and the distance of every
number printed in the goldens from it.

The goldens (``tests/golden/*.json``) were written by the code they pin.
This tool recomputes each printed number, ``norm``, every ``N<m>`` and
every row's ``prob``, in mpmath at 40 significant digits, from the
circuit text and the README's conventions alone, as a path sum over
occupation patterns.  It imports nothing from ``fockbench`` or
``perfbench``, so it shares no mistake with either route or with the
benchmark's oracle.

* A run of consecutive ``bs`` and ``phase`` lines, on either species, is
  composed into one mode matrix ``U`` over all modes (creators map as
  ``adag_j -> sum_k U[k, j] adag_k``) from the frozen matrices ``(1/sqrt
  2) [[1, i], [i, 1]]`` (``sym``), ``(1/sqrt 2) [[1, -1], [1, 1]]``
  (``asym``), ``[[cos t, -sin t], [sin t, cos t]]`` (``angle=t``) and
  ``exp(i phi)`` (``phase``).  No element mixes species, so ``U`` is block
  diagonal.  The bosonic part of a pattern ``s`` goes to each bosonic
  pattern ``t`` of the same photon number with amplitude
  ``Perm(U[rows(t), cols(s)]) / sqrt(prod s! prod t!)``, the permanent from
  Ryser's formula (Scheel, quant-ph/0406127).  Its fermionic part, the
  occupied fermionic modes ``S`` in ascending order, goes to each
  ascending ``T`` of the same size with amplitude ``det U[T, S]`` (Terhal &
  DiVincenzo, Phys. Rev. A 65, 032325 (2002)), the determinant from
  Leibniz's formula.  The Jordan-Wigner convention: the basis state of
  ``T`` is ``prod_{k in T ascending} fdag_k |0>``, smallest mode leftmost,
  the order in which ``fockbench``'s numeric route builds it, so a creator
  ``fdag_m`` on it carries ``(-1)**(occupied fermionic modes of smaller
  index)``.  Expanding ``prod_{j in S} sum_k U[k, j] fdag_k |0>`` and
  reordering each product into that order gives ``det U[T, S]``, sign
  included, so no explicit sign appears.
* ``kerr a b strength=s`` multiplies a pattern by ``exp(i s n_a n_b)``.
* ``vertex`` rotates each pair ``x = (n, 1, 1)``, ``y = (n + 1, 0, 0)`` on
  its (photon, electron, positron) modes by ``phi = theta sqrt(n + 1)``.
  Its generator ``K = theta (adag b d + a bdag ddag)`` applies ``d`` first;
  with the Jordan-Wigner signs above, ``K x = sigma theta sqrt(n + 1) y``,
  where ``sigma`` is the sign of ``b d`` on ``x``, and ``K y = -sigma theta
  sqrt(n + 1) x``, since ``bdag ddag`` on ``y`` passes the same modes with
  the electron mode still empty (for the electron mode before the positron
  mode, ``b d`` also passes the occupied electron mode once, which the
  adjoint pair does not).  So ``exp(K) x = cos(phi) x + sigma sin(phi) y``
  and ``exp(K) y = cos(phi) y - sigma sin(phi) x``.

Every angle, phase, strength and amplitude is the exact binary value of
the float written in the text (``kerr`` without ``strength=`` takes the
double nearest pi), and the input is normalized at 40 digits.  Each
printed number is taken as a JSON reader gets it, the double nearest its
text; a row the report leaves out counts as printed 0, and a printed row
the reference does not have as reference 0.

:data:`JUDGED` is the one table of the circuits the tests judge: name,
program text, the backends it runs on, and whether it is a golden.
``tests/test_golden_reference.py`` runs each row on each of its backends
and judges every printed number; a golden row's reports are also frozen
byte for byte in ``tests/golden/<name>.<backend>.json``, one file per
backend of :data:`BACKENDS`.  Every file in ``circuits/`` is a golden row.
Adding a judged circuit is one row (or one circuit file); a golden row
also needs its three files, written by the CLI::

    fockbench run <file> --backend <backend> --format json > tests/golden/<name>.<backend>.json

Prints, per golden file, the count of numbers, the worst absolute error
and the worst error in units of the 15th significant digit that
``fockbench run`` prints::

    python tools/golden_error.py
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path
from typing import NamedTuple

import mpmath

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
CIRCUIT_DIR = ROOT / "circuits"
DIGITS = 40
BACKENDS = ("numeric", "symbolic", "both")


def mesh_program(modes: int, photons: int, cutoff: int) -> str:
    """A brick of angle splitters, each followed by a phase, ``modes``
    layers deep, with one photon in each of the first ``photons`` modes."""
    lines = [f"system bosons={modes} cutoff={cutoff}"]
    lines.append("input create " + " ".join(str(m + 1) for m in range(photons)))
    for layer in range(modes):
        for m in range(layer % 2, modes - 1, 2):
            lines.append(f"bs {m + 1} {m + 2} angle={0.3 + 0.11 * m + 0.07 * layer}")
            lines.append(f"phase {m + 1} {0.5 - 0.13 * m + 0.05 * layer}")
    lines.append("measure all")
    return "\n".join(lines) + "\n"


def _brick(seed: str, modes: int) -> list[str]:
    """``modes`` layers of ``bs angle=`` at seeded random angles, each
    followed by a phase on its first mode."""
    rng, lines = random.Random(f"witness:{seed}"), []
    for layer in range(modes):
        for a in range(layer % 2 + 1, modes, 2):
            lines.append(f"bs {a} {a + 1} angle={rng.uniform(0.0, 2.0 * math.pi)!r}")
            lines.append(f"phase {a} {rng.uniform(0.0, 2.0 * math.pi)!r}")
    return lines


def _program(system: str, inputs: str, lines: list[str]) -> str:
    return "\n".join([f"system {system}", f"input create {inputs}", *lines, "measure all"]) + "\n"


class Judged(NamedTuple):
    """One row of :data:`JUDGED`."""

    program: str
    backends: tuple[str, ...] = BACKENDS
    #: whether ``tests/golden/<name>.<backend>.json`` freezes the report
    #: of each backend of :data:`BACKENDS`
    golden: bool = False


ROUTES = ("numeric", "symbolic")

# splitters on 1-2, 2-3 and 1-3 close a cycle of odd length: on a
# nearest-neighbour brick a consistent sign error in the splitter is a
# conjugation by diag((-1)^m), which no detector statistic shows
ODD_CYCLE = ["bs 1 2 angle=0.4", "bs 2 3 angle=1.1", "phase 2 0.7", "bs 1 3 angle=-0.8"]
# hops past occupied modes: without them a missing Jordan-Wigner sign is
# invisible to the statistics of up to 2 fermions in up to 4 modes
HOPS = ["bs 1 4 angle=0.7", "bs 2 6 angle=1.3", "bs 1 3 angle=-0.9"]
FERMIONS = "bosons=0 fermions={} cutoff=1"

#: Every circuit the tests judge against :func:`reference`: name -> row.
JUDGED = {
    # the files of ``circuits/`` and the meshes, where several photons meet
    # on one splitter, which the files never do
    **{p.stem: Judged(p.read_text(), golden=True) for p in sorted(CIRCUIT_DIR.glob("*.fck"))},
    "mesh_m6": Judged(mesh_program(6, 3, 3), golden=True),
    "mesh_m8": Judged(mesh_program(8, 4, 4), golden=True),
    # runs whose statistics change when the sign of the Kerr strength or of
    # the vertex angle flips, which the goldens cannot show (the CNOT's Kerr
    # strength is pi and the vertex golden starts from one pattern);
    # P(0,1,1) and P(1,0,0) swap under a flipped vertex angle
    "vertex_superpose": Judged(
        "system bosons=1 fermions=2 cutoff=6\n"
        "input superpose 1:2,3 ; 1:1\n"
        "vertex 1 2 3 theta=0.6\n"
        "measure all\n",
        ROUTES,
    ),
    # a Mach-Zehnder on modes 2, 3 whose arm phase is the Kerr phase plus pi/2
    "kerr_interferometer": Judged(
        "system bosons=3 cutoff=3\n"
        "input create 1 2\n"
        "bs 2 3 sym\n"
        "kerr 1 2 strength=0.9\n"
        "phase 2 1.5707963267948966\n"
        "bs 2 3 sym\n"
        "measure all\n",
        ROUTES,
    ),
    # a phase scan of one Mach-Zehnder: N1 = (1 + sin 0.7) / 2, which a
    # flipped phase or a conjugated ``sym`` splitter turns into (1 - sin 0.7) / 2
    "phase_scan": Judged(
        "system bosons=2 cutoff=1\n"
        "input create 1\n"
        "bs 1 2 sym\n"
        "phase 2 0.7\n"
        "bs 1 2 asym\n"
        "measure all\n",
        ROUTES,
    ),
    # witnesses: seeded random bricks, bosons by permanents and fermions by
    # determinants, on every backend (``both`` prints the numeric route's
    # numbers only)
    "mesh_m6_seed1": Judged(_program("bosons=6 cutoff=3", "1 2 3", _brick("1", 6))),
    "mesh_m6_seed2": Judged(_program("bosons=6 cutoff=3", "1 2 3", _brick("2", 6))),
    "mesh_m8_seed1": Judged(_program("bosons=8 cutoff=4", "1 2 3 4", _brick("1", 8))),
    "odd_cycle": Judged(_program("bosons=3 cutoff=2", "1 2", ODD_CYCLE)),
    # two photons in mode 1 and one in mode 2; the long hop breaks the brick
    "bunched": Judged(
        _program("bosons=6 cutoff=3", "1 1 2", [*_brick("bunched", 6), "bs 1 4 angle=0.9"])
    ),
    "fermion_m4_seed1": Judged(_program(FERMIONS.format(4), "1 2", _brick("fermion:1", 4))),
    "fermion_m6_seed1": Judged(_program(FERMIONS.format(6), "1 2 3", _brick("fermion:1", 6))),
    "fermion_m6_hops": Judged(
        _program(FERMIONS.format(6), "1 2 3", [*_brick("fermion:2", 6), *HOPS])
    ),
    "fermion_odd_cycle": Judged(_program(FERMIONS.format(3), "1 2", ODD_CYCLE)),
}
#: The names of the golden rows.
GOLDENS = [name for name, row in JUDGED.items() if row.golden]


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


def _sign(order) -> int:
    """Sign of the permutation that sorts ``order``."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))


def _determinant(rows: list[list]) -> mpmath.mpc:
    """Leibniz's formula."""
    return mpmath.fsum(
        _sign(perm) * mpmath.fprod(row[p] for row, p in zip(rows, perm))
        for perm in itertools.permutations(range(len(rows)))
    )


def _patterns(total: int, modes: int):
    """Every occupation pattern of ``total`` particles in ``modes`` modes."""
    for cut in itertools.combinations(range(total + modes - 1), max(modes - 1, 0)):
        bounds = (-1, *cut, total + modes - 1)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(modes))


def _factorials(occ) -> mpmath.mpf:
    return mpmath.mpf(math.prod(map(math.factorial, occ)))


class _PathSum:
    """The state as a dict from occupation pattern to amplitude, with the
    pending linear run ``u`` over all modes."""

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
            amplitude *= _sign(fermions) * mpmath.sqrt(_factorials(occ))
            state[tuple(occ)] = state.get(tuple(occ), 0) + amplitude
        norm = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in state.values()))
        self.state = {occ: a / norm for occ, a in state.items()}

    def linear(self, modes: tuple[int, ...], block) -> None:
        """Compose an element with mode matrix ``block`` on ``modes``."""
        n = self.modes
        if self.u is None:
            self.u = [[mpmath.mpf(int(j == k)) for k in range(n)] for j in range(n)]
        rows = [self.u[m] for m in modes]
        for m, coefficients in zip(modes, block):
            self.u[m] = [
                mpmath.fsum(c * row[k] for c, row in zip(coefficients, rows)) for k in range(n)
            ]

    def flush(self) -> None:
        """Apply the pending linear run: the bosonic part of each pattern
        by permanents, its fermionic part by determinants."""
        if self.u is None:
            return
        u, self.u, state = self.u, None, {}
        fermion_modes = range(self.bosons, self.modes)
        for occ, amplitude in self.state.items():
            bosons = occ[: self.bosons]
            cols = [j for j, n in enumerate(bosons) for _ in range(n)]
            occupied = [j for j in fermion_modes if occ[j]]
            fermions = []
            for targets in itertools.combinations(fermion_modes, len(occupied)):
                det = _determinant([[u[k][j] for j in occupied] for k in targets])
                if det:  # a run that leaves the fermions alone keeps T = S only
                    fermions.append((tuple(int(k in targets) for k in fermion_modes), det))
            for out in _patterns(len(cols), self.bosons):
                rows = [[u[k][j] for j in cols] for k, n in enumerate(out) for _ in range(n)]
                value = _permanent(rows) if rows else mpmath.mpf(1)
                value /= mpmath.sqrt(_factorials(bosons) * _factorials(out))
                for rest, det in fermions:
                    state[out + rest] = state.get(out + rest, 0) + amplitude * value * det
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
            elif words[0] in ("bs", "phase"):
                if words[0] == "phase":
                    paths.linear(tuple(_modes(words[1:2])), [[mpmath.expj(_float(words[2]))]])
                elif words[3].startswith("angle="):
                    t = _float(words[3].removeprefix("angle="))
                    c, s = mpmath.cos(t), mpmath.sin(t)
                    paths.linear(tuple(_modes(words[1:3])), [[c, -s], [s, c]])
                else:
                    paths.linear(tuple(_modes(words[1:3])), splitters[words[3]])
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
    width = max(len(f"{name}.{backend}.json") for name in GOLDENS for backend in BACKENDS)
    print(f"{'golden':{width}s} {'numbers':>7s} {'worst abs':>10s} {'worst 15th-digit units':>22s}")
    for name in GOLDENS:
        expected = reference(JUDGED[name].program)
        for backend in BACKENDS:
            golden = GOLDEN_DIR / f"{name}.{backend}.json"
            found = errors(golden.read_text(), expected).values()
            worst_abs = max(e for e, _ in found)
            worst_units = max(u for _, u in found)
            print(
                f"{golden.name:{width}s} {len(found):7d} {float(worst_abs):10.2e} "
                f"{float(worst_units):22.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
