"""One digest per case of a fixed corpus, so that a change that claims "no
byte moved, no bit moved" can show it, and a change that moves one names
the cases it moved.

A case is a ``fockbench`` invocation, run in-process.  Its digest is the
SHA-256 of the exit code, the stdout and the stderr bytes, and, for each
circuit the invocation runs, the hex bits of every numeric amplitude and
every symbolic coefficient, in the order the routes hold them, as
:func:`fockbench.fock.evolve_numeric` and
:func:`fockbench.algebra.evolve_symbolic` return them for the backends the
invocation names (a refusal counts by its message, and so does each
warning).  A few cases are random circuits drawn in-process, with bits and
no invocation.  The cases, in listing order:

* ``element/<keyword>/<backend>/<format>``: one circuit per row of
  :data:`fockbench.dsl.ELEMENT_SYNTAX`, on every backend in both formats;
* ``golden/<name>/<backend>/<format>``: the 18 goldens'
  programs (``tools/golden_error.py``) in both formats;
* ``workload/<name>/<i>``: the first runs of each benchmark workload at
  seed 1, built from ``perfbench/workloads.py`` (loaded by path, read only);
* ``cutoff/...``: ``--cutoff`` overrides;
* ``refusal/...``: a non-finite Kerr phase, alone and before an element
  above the numeric route's generator bound, a vertex angle above that
  bound, and three circuits truncated by their cutoff;
* ``random/<family>/<i>``: seeded draws of
  :func:`fockbench.checks.random_circuit` and
  :func:`~fockbench.checks.random_fermion_circuit`, and custom quadratic
  elements.

Prints one ``<case id> <sha256>`` line per case.  With ``--diff FILE`` it
compares the listing with an earlier one and prints each case whose digest
moved, or that only one listing has; it exits 1 if any did::

    PYTHONPATH=src python tools/corpus.py > before.txt
    PYTHONPATH=src python tools/corpus.py --diff before.txt

``fockbench`` is imported from ``sys.path``, so pointing ``PYTHONPATH`` at
another checkout's ``src`` lists that checkout.  The digests depend on the
numpy and BLAS build: compare listings made on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

from call_count import load_workloads
from golden_error import BACKENDS, golden_programs

#: Stands for the file that holds the case's ``program`` in its arguments.
PROGRAM = "<program>"
FORMATS = ("table", "json")

ELEMENT_PROGRAMS = {
    "bs": (
        "system bosons=3 fermions=3 cutoff=3\n"
        "input superpose 1:1,2,4,5 ; 0.5j:2,2,6\n"
        "bs 1 2 sym\nbs 2 3 asym\nbs 1 3 angle=0.7\nbs 4 6 angle=-1.3\nbs 5 6 sym\n"
        "measure all\n"
    ),
    "phase": (
        "system bosons=2 fermions=2 cutoff=2\n"
        "input create 1 3\n"
        "bs 1 2 angle=0.4\nphase 1 0.3\nphase 2 -2.1\nbs 3 4 angle=1.1\nphase 3 0.9\n"
        "measure 1 3\n"
    ),
    "kerr": (
        "system bosons=3 cutoff=2\n"
        "input create 1 2\n"
        "bs 1 2 angle=0.6\nkerr 1 2 strength=0.9\nkerr 2 3\nbs 2 3 angle=-0.2\n"
        "measure all\n"
    ),
    "vertex": (
        "system bosons=1 fermions=2 cutoff=6\n"
        "input superpose 1:2,3 ; 1:1\n"
        "vertex 1 2 3 theta=0.6\n"
        "measure all\n"
    ),
}

#: Circuits whose input or evolution needs an occupation above the cutoff.
TRUNCATED = {
    "bunched-out": "system bosons=2 cutoff=1\ninput create 1 1\nbs 1 2 sym\n",
    "bunching": "system bosons=2 cutoff=1\ninput create 1 2\nbs 1 2 sym\n",
    "vertex": "system bosons=1 fermions=2 cutoff=1\ninput create 1 2 3\nvertex 1 2 3 theta=0.7\n",
}

#: Measured runs of each benchmark workload, from the first.
WORKLOAD_RUNS = 8
RANDOM_DRAWS = {"boson": 40, "fermion": 24}


@dataclass(frozen=True)
class Case:
    ident: str
    args: tuple[str, ...] = ()
    program: str | None = None
    circuit: object = None  # a Circuit, for the cases run in-process only


def _run(*args: str, program: str | None = None, backend="both", fmt="table") -> dict:
    return {
        "args": ("run", *args, "--backend", backend, "--format", fmt),
        "program": program,
    }


def cases(workload_dir: Path) -> list[Case]:
    """The corpus in listing order; workload circuit files go to ``workload_dir``."""
    from fockbench.dsl import ELEMENT_SYNTAX

    out = []
    for syntax in ELEMENT_SYNTAX:
        program = ELEMENT_PROGRAMS[syntax.keyword]
        for backend in BACKENDS:
            for fmt in FORMATS:
                out.append(Case(
                    f"element/{syntax.keyword}/{backend}/{fmt}",
                    **_run(PROGRAM, program=program, backend=backend, fmt=fmt),
                ))
    for name, program in golden_programs().items():
        for backend in BACKENDS:
            for fmt in FORMATS:
                out.append(Case(
                    f"golden/{name}/{backend}/{fmt}",
                    **_run(PROGRAM, program=program, backend=backend, fmt=fmt),
                ))
    workloads = load_workloads()
    for workload in workloads.WORKLOADS:
        (workload_dir / workload).mkdir()
        manifest = workloads.generate(workload, 1, workload_dir / workload)
        for i, run in enumerate(manifest["runs"][:WORKLOAD_RUNS]):
            out.append(Case(f"workload/{workload}/{i}", tuple(run["args"])))
    mesh = golden_programs()["mesh_m6"]
    out += [
        Case("cutoff/cnot_dualrail-2/both/table",
             **_run("--experiment", "cnot_dualrail", "--all-inputs", "--cutoff", "2")),
        Case("cutoff/mesh_m6-2/both/json",
             **_run(PROGRAM, "--cutoff", "2", program=mesh, fmt="json")),
        Case("cutoff/mesh_m6-5/numeric/json",
             **_run(PROGRAM, "--cutoff", "5", program=mesh, backend="numeric", fmt="json")),
    ]
    kerr = "system bosons=2 cutoff=4\ninput create 1 1 2 2\nkerr 1 2 strength=1e308\nbs 1 2 sym\n"
    first = kerr.replace("kerr", "bs 1 2 sym\nkerr") + "bs 1 2 angle=3e6\n"
    out += [
        Case("refusal/kerr-1e308/both/table", **_run(PROGRAM, program=kerr)),
        Case("refusal/kerr-1e308/symbolic/table", **_run(PROGRAM, program=kerr, backend="symbolic")),
        Case("refusal/kerr-1e308-first/numeric/table",
             **_run(PROGRAM, program=first, backend="numeric")),
        Case("refusal/hardy_vertex-3e6/both/table", **_run("--experiment", "hardy_vertex:3e6")),
    ]
    for name, program in TRUNCATED.items():
        out.append(Case(f"refusal/truncated-{name}/both/table", **_run(PROGRAM, program=program)))
        out.append(Case(
            f"refusal/truncated-{name}/numeric/json",
            **_run(PROGRAM, program=program, backend="numeric", fmt="json"),
        ))
    out += _random_cases()
    return out


def _random_cases() -> list[Case]:
    import numpy as np

    from fockbench.checks import random_circuit, random_fermion_circuit
    from fockbench.circuit import Circuit, QuadraticCustom
    from fockbench.dsl import parse_circuit

    out = []
    for family, draw in (("boson", random_circuit), ("fermion", random_fermion_circuit)):
        rng = np.random.default_rng(1)
        for i in range(RANDOM_DRAWS[family]):
            out.append(Case(f"random/{family}/{i}", circuit=draw(rng)))
    base = parse_circuit(ELEMENT_PROGRAMS["bs"])
    rng = np.random.default_rng(7)
    for i, modes in enumerate([(0, 1), (0, 2, 1), (3, 5), (5, 4, 3)]):
        c = rng.normal(size=(len(modes),) * 2) + 1j * rng.normal(size=(len(modes),) * 2)
        element = QuadraticCustom(modes, 0.5 * (c - c.conj().T))
        circuit = Circuit(base.system, (element,), base.input_state, base.measured_modes)
        out.append(Case(f"random/custom/{i}", circuit=circuit))
    return out


def _circuits(args: tuple[str, ...]) -> list:
    """The circuits ``fockbench run`` runs for ``args``, or none if it
    refuses them before evaluating."""
    import click

    from fockbench.cli import _parse_experiment_spec
    from fockbench.circuit import with_cutoff
    from fockbench.dsl import CircuitParseError, parse_circuit

    try:
        if "--experiment" in args:
            spec = args[args.index("--experiment") + 1]
            circuits = [c for _, c in _parse_experiment_spec(spec, "--all-inputs" in args)]
        else:
            circuits = [parse_circuit(Path(args[1]).read_text(encoding="utf-8"))]
        if "--cutoff" in args:
            cutoff = int(args[args.index("--cutoff") + 1])
            circuits = [with_cutoff(c, cutoff) for c in circuits]
    except (CircuitParseError, click.ClickException, ValueError):
        return []
    return circuits


def _route_bits(route: str, circuit) -> bytes:
    from fockbench.algebra import evolve_symbolic
    from fockbench.fock import evolve_numeric

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if route == "numeric":
                values = evolve_numeric(circuit).amplitudes.items()
            else:
                values = evolve_symbolic(circuit).poly.terms.items()
            lines = [f"{key!r} {v.real.hex()} {v.imag.hex()}" for key, v in values]
        except (ValueError, RuntimeError) as exc:
            lines = [f"{type(exc).__name__}: {exc}"]
    lines += [f"{w.category.__name__}: {w.message}" for w in caught]
    return "\n".join([route, *lines, ""]).encode()


def digest(case: Case, tmp: Path) -> str:
    from click.testing import CliRunner

    from fockbench.cli import main

    sha = hashlib.sha256()
    routes, circuits = ("numeric", "symbolic"), []
    if case.args:
        args = case.args
        if case.program is not None:
            path = tmp / "case.fck"
            path.write_text(case.program, encoding="utf-8")
            args = tuple(str(path) if a == PROGRAM else a for a in args)
        result = CliRunner().invoke(main, list(args), env={"FOCKBENCH_CUTOFF": None})
        for part in (str(result.exit_code).encode(), result.stdout_bytes, result.stderr_bytes):
            sha.update(len(part).to_bytes(8, "big") + part)
        backend = args[args.index("--backend") + 1]
        routes = ("numeric", "symbolic") if backend == "both" else (backend,)
        circuits = _circuits(args)
    else:
        circuits = [case.circuit]
    for circuit in circuits:
        for route in routes:
            sha.update(_route_bits(route, circuit))
    return sha.hexdigest()


def listing(limit: int | None = None) -> list[str]:
    """``<case id> <sha256>`` for the first ``limit`` cases (all by default)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        return [f"{case.ident} {digest(case, tmp)}" for case in cases(tmp)[:limit]]


def moved(before: list[str], after: list[str]) -> list[str]:
    """The cases whose digest differs between two listings, or that one lacks."""
    old = dict(line.split() for line in before)
    new = dict(line.split() for line in after)
    out = [f"moved {i}" for i in new if i in old and old[i] != new[i]]
    out += [f"new {i}" for i in new if i not in old]
    out += [f"gone {i}" for i in old if i not in new]
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", type=Path, help="an earlier listing to compare with")
    args = parser.parse_args(argv)
    lines = listing()
    if args.diff is None:
        print("\n".join(lines))
        return 0
    changes = moved(args.diff.read_text().splitlines(), lines)
    print("\n".join(changes or [f"{len(lines)} cases, none moved"]))
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
