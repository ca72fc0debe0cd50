"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of ``fockbench run`` invocations derived
from the seed alone.  A run is a dict with the CLI arguments (``args``)
and what the oracle needs to check its output (``check``), which always
comes from the values written here, never from fockbench.

Mesh workloads write one circuit file per run; ``paper_circuits`` only
uses ``--experiment`` specs.  ``write_inputs`` stores the files and a
``manifest.json`` listing the warm-up and measured runs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("fock_mesh", "ladder_mesh", "paper_circuits")

#: Shape of each mesh workload: modes (= layers), occupied input modes,
#: cutoff and backend.  ``--backend both`` is unusable at M = 8 because the
#: numeric route needs 11-20 s per circuit there.
MESHES = {
    "fock_mesh": {"modes": 6, "photons": 3, "cutoff": 3, "backend": "both"},
    "ladder_mesh": {"modes": 8, "photons": 4, "cutoff": 4, "backend": "symbolic"},
}

#: Measured runs per list.  A 20 s run consumes the list in order and
#: wraps around only if the program becomes about five times faster than
#: at the time of writing; wrapping then repeats mesh circuits verbatim.
LIST_LENGTH = {"fock_mesh": 512, "ladder_mesh": 512, "paper_circuits": 8192}
WARMUP_LENGTH = {"fock_mesh": 16, "ladder_mesh": 16, "paper_circuits": 512}

JSON_ARGS = ["--format", "json"]


def mesh_elements(rng: random.Random, modes: int) -> list[list]:
    """Brick mesh ``modes`` layers deep: each ``bs angle=`` is followed by
    a ``phase`` on its first mode.  Modes are 0-based here."""
    elements = []
    for layer in range(modes):
        for a in range(layer % 2, modes - 1, 2):
            elements.append(["bs", a, a + 1, rng.uniform(0.0, 2.0 * math.pi)])
            elements.append(["phase", a, rng.uniform(0.0, 2.0 * math.pi)])
    return elements


def mesh_text(modes: int, photons: int, cutoff: int, elements) -> str:
    """Render a mesh as circuit-file text (1-based modes)."""
    lines = [
        f"system bosons={modes} cutoff={cutoff}",
        "input create " + " ".join(str(m + 1) for m in range(photons)),
    ]
    for element in elements:
        if element[0] == "bs":
            _, a, b, theta = element
            lines.append(f"bs {a + 1} {b + 1} angle={theta!r}")
        else:
            _, a, phi = element
            lines.append(f"phase {a + 1} {phi!r}")
    lines.append("measure all")
    return "\n".join(lines) + "\n"


def mesh_run(path: Path, modes: int, photons: int, cutoff: int, backend: str,
             elements) -> dict:
    path.write_text(mesh_text(modes, photons, cutoff, elements), encoding="utf-8")
    return {
        "args": ["run", str(path), "--backend", backend] + JSON_ARGS,
        "check": {
            "kind": "mesh",
            "modes": modes,
            "inputs": list(range(photons)),
            "elements": elements,
        },
    }


#: Timed vertex angles are drawn from [0, VERTEX_THETA_MAX).  Above it the
#: vertex fails today through series cancellation (ROADMAP item 3; the
#: first failure on a fine grid is at theta ~ 17.13), and a timed workload
#: must have no failing operation.  That failure is exercised instead by
#: ``known_failure_runs``, once per run and outside the timed loop.
VERTEX_THETA_MAX = 5.0 * math.pi
#: Fixed vertex angles for that probe: evenly spaced over [5 pi, 6 pi).
KNOWN_FAILURE_ANGLES = 16

#: One block of the paper mix, shuffled per block: 1/8 CNOT truth table,
#: 1/8 single photon on a 50/50 splitter, 6/8 annihilation vertex.  Fixed
#: shares keep a CNOT run (~5x a vertex run) from moving the totals by
#: chance.
PAPER_BLOCK = ["cnot", "single_photon"] + ["vertex"] * 6


def paper_run(rng: random.Random, pick: str) -> dict:
    """One paper run of kind ``pick``; the vertex angle is fresh."""
    if pick == "cnot":
        spec, extra, check = "cnot_dualrail", ["--all-inputs"], {"kind": "cnot"}
    elif pick == "single_photon":
        spec = rng.choice(["single_photon_bs_sym", "single_photon_bs_asym"])
        extra, check = [], {"kind": "single_photon"}
    else:
        return vertex_run(rng.uniform(0.0, VERTEX_THETA_MAX))
    args = ["run", "--experiment", spec, "--backend", "both"] + extra + JSON_ARGS
    return {"args": args, "check": check}


def vertex_run(theta: float) -> dict:
    args = ["run", "--experiment", f"hardy_vertex:{theta!r}", "--backend", "both"]
    return {"args": args + JSON_ARGS, "check": {"kind": "vertex", "theta": theta}}


def known_failure_runs() -> list[dict]:
    """Vertex runs at the large angles that fail today; the same on every seed."""
    return [vertex_run(VERTEX_THETA_MAX + math.pi * (i + 0.5) / KNOWN_FAILURE_ANGLES)
            for i in range(KNOWN_FAILURE_ANGLES)]


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Build the manifest for ``workload``; mesh circuit files go to ``out_dir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    lists = {}
    for part in ("warmup", "runs"):
        length = (WARMUP_LENGTH if part == "warmup" else LIST_LENGTH)[workload]
        runs = []
        if workload in MESHES:
            shape = MESHES[workload]
            for i in range(length):
                elements = mesh_elements(rng, shape["modes"])
                runs.append(mesh_run(
                    out_dir / f"{part}-{i:04d}.fck", shape["modes"], shape["photons"],
                    shape["cutoff"], shape["backend"], elements,
                ))
        else:
            for _ in range(0, length, len(PAPER_BLOCK)):
                block = rng.sample(PAPER_BLOCK, len(PAPER_BLOCK))
                runs.extend(paper_run(rng, pick) for pick in block)
        lists[part] = runs
    return {"workload": workload, "seed": seed, **lists}


def ladder_cases(out_dir: Path, seed: int) -> list[dict]:
    """The ROADMAP size ladder: mesh M = 6/8/10, N = M/2, cutoff N.

    Each size runs once per route, numeric alone and symbolic alone, as in
    the ROADMAP baseline table.  M = 10 numeric is expected to be refused
    by the 1 M basis cap."""
    rng = random.Random(f"ladder:{seed}")
    cases = []
    for modes in (6, 8, 10):
        photons = modes // 2
        elements = mesh_elements(rng, modes)
        for backend in ("numeric", "symbolic"):
            run = mesh_run(out_dir / f"ladder-m{modes}.fck", modes, photons, photons,
                           backend, elements)
            run["name"] = f"mesh_m{modes}_{backend}"
            cases.append(run)
    return cases


def write_inputs(workload: str, seed: int, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = generate(workload, seed, out_dir)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path
