"""A witness that neither route shares: circuits the goldens do not
cover, judged on every backend against the one physics reference,
``tools/golden_error.py``.

That reference is a path sum in mpmath at 40 digits that imports nothing
from ``fockbench`` or ``perfbench``.  Linear runs go by permanents for
bosons (Scheel, quant-ph/0406127) and by determinants for fermions: the
occupied fermionic modes S, in ascending order, go to each ascending T
with amplitude det U[T, S] (Terhal & DiVincenzo, Phys. Rev. A 65, 032325
(2002)).  U is composed from the angles written in the circuit text, with
the README's frozen ``angle=`` matrix [[cos, -sin], [sin, cos]].  The
benchmark keeps its own oracle: a judge shared with the tests could hide
one mistake from both.

Cross-route agreement cannot see a mistake the routes share, such as a
consistent sign error in the splitter.  On a nearest-neighbour brick mesh
that error is a conjugation by diag((-1)^m), which no detector statistic
shows; the odd cycle below shows it.
"""

import math
import random

import pytest

from test_golden_reference import judge_run


def _brick(seed: str, modes: int) -> list[str]:
    # ``modes`` layers of ``bs angle=``, each followed by a phase on its first mode
    rng, lines = random.Random(f"witness:{seed}"), []
    for layer in range(modes):
        for a in range(layer % 2 + 1, modes, 2):
            lines.append(f"bs {a} {a + 1} angle={rng.uniform(0.0, 2.0 * math.pi)!r}")
            lines.append(f"phase {a} {rng.uniform(0.0, 2.0 * math.pi)!r}")
    return lines


def _program(system: str, inputs: str, lines: list[str]) -> str:
    return "\n".join([f"system {system}", f"input create {inputs}", *lines, "measure all"]) + "\n"


# splitters on 1-2, 2-3 and 1-3 close a cycle of odd length
ODD_CYCLE = ["bs 1 2 angle=0.4", "bs 2 3 angle=1.1", "phase 2 0.7", "bs 1 3 angle=-0.8"]
HOPS = ["bs 1 4 angle=0.7", "bs 2 6 angle=1.3", "bs 1 3 angle=-0.9"]

BOSON_CASES = {
    "mesh_m6_seed1": _program("bosons=6 cutoff=3", "1 2 3", _brick("1", 6)),
    "mesh_m6_seed2": _program("bosons=6 cutoff=3", "1 2 3", _brick("2", 6)),
    "mesh_m8_seed1": _program("bosons=8 cutoff=4", "1 2 3 4", _brick("1", 8)),
    "odd_cycle": _program("bosons=3 cutoff=2", "1 2", ODD_CYCLE),
}

# two photons in mode 1 and one in mode 2; the long hop breaks the brick
BUNCHED = _program("bosons=6 cutoff=3", "1 1 2", [*_brick("bunched", 6), "bs 1 4 angle=0.9"])

FERMION_CASES = {
    "fermion_m4_seed1": _program("bosons=0 fermions=4 cutoff=1", "1 2", _brick("fermion:1", 4)),
    "fermion_m6_seed1": _program("bosons=0 fermions=6 cutoff=1", "1 2 3", _brick("fermion:1", 6)),
    # hops past occupied modes: without them a missing Jordan-Wigner sign
    # is invisible to the statistics of up to 2 fermions in up to 4 modes
    "fermion_m6_hops": _program(
        "bosons=0 fermions=6 cutoff=1", "1 2 3", [*_brick("fermion:2", 6), *HOPS]
    ),
    "fermion_odd_cycle": _program("bosons=0 fermions=3 cutoff=1", "1 2", ODD_CYCLE),
}

CASES = {**BOSON_CASES, "bunched": BUNCHED, **FERMION_CASES}


@pytest.mark.parametrize("name", BOSON_CASES)
def test_both_routes_match_the_permanent(tmp_path, name):
    judge_run(tmp_path, CASES[name], "both")


def test_bunched_input_matches_the_permanent(tmp_path):
    judge_run(tmp_path, BUNCHED, "both")


@pytest.mark.parametrize("name", FERMION_CASES)
def test_fermions_match_the_determinant(tmp_path, name):
    judge_run(tmp_path, CASES[name], "both")


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
@pytest.mark.parametrize("name", CASES)
def test_each_route_alone_matches_the_reference(tmp_path, name, backend):
    # a route's own digits: ``both`` prints the numeric route's numbers only
    judge_run(tmp_path, CASES[name], backend)
