"""Distance of every number printed in the mesh goldens from a 40-digit
reference.

The mesh goldens (``tests/golden/mesh_m6.*``, ``mesh_m8.*``) were written
by the code they pin.  This tool recomputes each printed number, every
``N<m>`` and every row's ``prob``, in mpmath at 40 significant digits,
from linear optics alone: for single photons in modes ``inputs`` and a
mode matrix ``U`` (creators map as ``adag_j -> sum_k U[k, j] adag_k``),
the output pattern ``t`` has probability
``|Perm(U[rows(t), inputs])|^2 / prod_j t_j!``, with the permanent from
Ryser's formula.  ``U`` is composed from the README's frozen matrices,
``[[cos t, -sin t], [sin t, cos t]]`` for ``bs a b angle=t`` and
``exp(i phi)`` for ``phase a phi``, each angle taken as the exact binary
value of the float written in the program text.  The programs come from
``tests/test_cli.py`` (``_mesh_program`` and ``MESH_GOLDENS``, loaded by
path).  Each printed number is taken as a JSON reader gets it, the double
nearest its text.  Prints, per golden file, the count of numbers, the
worst absolute error and the worst error in units of the 15th significant
digit that ``fockbench run`` prints::

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
DIGITS = 40


def mesh_programs() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Program text and backends of each mesh golden, from tests/test_cli.py."""
    spec = importlib.util.spec_from_file_location("golden_programs", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        name: (module._mesh_program(*shape), backends)
        for name, (shape, backends) in module.MESH_GOLDENS.items()
    }


def _mode_matrix(program: str) -> tuple[list[list], list[int]]:
    """``U`` of a mesh program and its input modes, 0-based."""
    u = inputs = None
    for line in program.splitlines():
        words = line.split()
        if words[0] == "system":
            modes = int(words[1].removeprefix("bosons="))
            u = [[mpmath.mpf(int(j == k)) for k in range(modes)] for j in range(modes)]
        elif words[:2] == ["input", "create"]:
            inputs = [int(w) - 1 for w in words[2:]]
        elif words[0] == "bs":
            a, b = int(words[1]) - 1, int(words[2]) - 1
            t = mpmath.mpf(float(words[3].removeprefix("angle=")))
            c, s = mpmath.cos(t), mpmath.sin(t)
            u[a], u[b] = (
                [c * x - s * y for x, y in zip(u[a], u[b])],
                [s * x + c * y for x, y in zip(u[a], u[b])],
            )
        elif words[0] == "phase":
            phase = mpmath.expj(mpmath.mpf(float(words[2])))
            u[int(words[1]) - 1] = [phase * x for x in u[int(words[1]) - 1]]
        elif words != ["measure", "all"]:
            raise ValueError(f"not a mesh program line: {line!r}")
    if len(set(inputs)) != len(inputs):
        raise ValueError("mesh inputs are single photons in distinct modes")
    return u, inputs


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


def reference(program: str) -> dict[str, mpmath.mpf]:
    """Each number a mesh program's report prints, keyed ``N<m>`` or by the
    row's occupation text, at :data:`DIGITS` digits."""
    with mpmath.workdps(DIGITS):
        u, inputs = _mode_matrix(program)
        modes, photons = len(u), len(inputs)
        out = {}
        expectations = [mpmath.mpf(0)] * modes
        for cut in itertools.combinations(range(photons + modes - 1), modes - 1):
            bounds = (-1, *cut, photons + modes - 1)
            occ = [bounds[i + 1] - bounds[i] - 1 for i in range(modes)]
            rows = [[u[m][j] for j in inputs] for m in range(modes) for _ in range(occ[m])]
            prob = abs(_permanent(rows)) ** 2 / math.prod(map(math.factorial, occ))
            out[str(occ)] = prob
            expectations = [e + prob * n for e, n in zip(expectations, occ)]
        out.update((f"N{m + 1}", e) for m, e in enumerate(expectations))
        return out


def printed_numbers(golden: Path) -> dict[str, str]:
    """The printed text of each ``N<m>`` and row ``prob`` of a JSON report."""
    report = json.loads(golden.read_text(), parse_float=str)
    out = dict(report["expectations"])
    for row in report["distribution"]:
        out[str(row["occ"])] = row["prob"]
    return out


def errors(golden: Path, expected: dict) -> dict[str, tuple[mpmath.mpf, mpmath.mpf]]:
    """For each printed number: its absolute distance from ``expected``, and
    that distance in units of its 15th significant digit."""
    printed = printed_numbers(golden)
    if set(printed) != set(expected):
        raise ValueError(f"{golden.name} prints other rows than the reference has")
    out = {}
    with mpmath.workdps(DIGITS):
        for key, text in printed.items():
            value = mpmath.mpf(float(text))  # as a JSON reader gets it
            error = abs(value - expected[key])
            unit = mpmath.mpf(10) ** (int(mpmath.floor(mpmath.log10(abs(value)))) - 14)
            out[key] = (error, error / unit)
    return out


def main() -> int:
    print(f"{'golden':28s} {'numbers':>7s} {'worst abs':>10s} {'worst 15th-digit units':>22s}")
    for name, (program, backends) in mesh_programs().items():
        expected = reference(program)
        for backend in backends:
            golden = GOLDEN_DIR / f"{name}.{backend}.json"
            found = errors(golden, expected).values()
            worst_abs = max(e for e, _ in found)
            worst_units = max(u for _, u in found)
            print(
                f"{golden.name:28s} {len(found):7d} {float(worst_abs):10.2e} "
                f"{float(worst_units):22.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
