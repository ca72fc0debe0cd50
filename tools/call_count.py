"""Count the Python calls that the first runs of a benchmark workload make.

Builds the seeded manifest of ``perfbench/workloads.py`` (loaded by path,
read only) in a temporary directory, invokes ``fockbench.cli.main``
in-process on its first N measured runs once to warm the caches, then
again under cProfile.  Prints the total number of calls, then the calls
of each ``fockbench`` function, most called first, then the calls that
``fockbench`` functions make into numpy and scipy, per callee, most
called first::

    PYTHONPATH=src python tools/call_count.py --workload ladder_mesh --seed 41 --runs 60

A numpy or scipy callee is a Python function defined in either package
(``scipy.linalg._matfuncs.expm``) or a built-in that cProfile labels with
either name (``<built-in method numpy.zeros>``, ``<method 'at' of
'numpy.ufunc' objects>``).  Calling a ufunc (``np.matmul``, ``np.abs``,
array arithmetic) is not a function call that cProfile records, so those
are not counted.

``fockbench`` is imported from ``sys.path``, so pointing ``PYTHONPATH`` at
another checkout's ``src`` counts that checkout's calls.  The counts are
deterministic: the same list gives the same numbers on every run.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib.util
import os
import pstats
import sys
import tempfile
from collections import Counter
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_callee(filename: str, name: str) -> str | None:
    """The label of a numpy or scipy callee, or None for any other function."""
    if filename == "~":
        return name if "numpy" in name or "scipy" in name else None
    parts = Path(filename).with_suffix("").parts
    for package in ("numpy", "scipy"):
        if package in parts:
            return ".".join(parts[parts.index(package) :] + (name,))
    return None


def count_calls(workload: str, seed: int, runs: int) -> tuple[int, Counter, Counter]:
    """Total calls, calls per ``module.function`` of ``fockbench``, and calls
    from ``fockbench`` functions per numpy or scipy callee, made by the
    first ``runs`` measured invocations of ``workload`` at ``seed``."""
    from click.testing import CliRunner

    from fockbench.cli import main

    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = load_workloads().generate(workload, seed, Path(tmp))
        invocations = [run["args"] for run in manifest["runs"][:runs]]
        for args in invocations:
            runner.invoke(main, args)
        profile = cProfile.Profile()
        # a collection would run gc callbacks (hypothesis installs one) that
        # the profile counts, so none runs while it is enabled
        gc.collect()
        gc.disable()
        try:
            for args in invocations:
                profile.enable()
                runner.invoke(main, args)
                profile.disable()
        finally:
            gc.enable()
    stats = pstats.Stats(profile)
    per_function, library = Counter(), Counter()
    for (filename, _, name), (_, calls, _, _, callers) in stats.stats.items():
        path = Path(filename)
        if path.parent.name == "fockbench":
            per_function[f"{path.stem}.{name}"] += calls
        callee = _library_callee(filename, name)
        if callee is not None:
            for (caller_file, _, _), (_, caller_calls, *_) in callers.items():
                if Path(caller_file).parent.name == "fockbench":
                    library[callee] += caller_calls
    return stats.total_calls, per_function, library


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, required=True)
    args = parser.parse_args(argv)
    total, per_function, library = count_calls(args.workload, args.seed, args.runs)
    print(f"{total:10d}  total calls")
    for heading, counts in (
        ("fockbench calls", per_function),
        ("numpy and scipy calls from fockbench", library),
    ):
        print(f"{sum(counts.values()):10d}  {heading}")
        for name, calls in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
            print(f"{calls:10d}  {name}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early, as by ``| head``: stop quietly, and send the
        # flush at exit to devnull so that it does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
