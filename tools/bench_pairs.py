"""Run the benchmark in alternating parent/change pairs and write ``BENCH_<tag>.json``.

The parent is ``git archive <rev>`` unpacked into a temporary directory;
the change is a file copy of the working tree (tracked and untracked files
that git does not ignore).  Each pair runs the benchmark's command once per
side, in its own copy, on the pair's seed, for the benchmark's
``run_seconds`` and without tracing; the side that runs first alternates
from pair to pair, the parent first in the first pair of each workload::

    python tools/bench_pairs.py --parent HEAD --tag fixed_cost \\
        --workload paper_circuits --workload fock_mesh --seeds 401 402 403 \\
        --what "..." --claim "..."

The file is rewritten after every run, so an interrupted series keeps the
runs it made.  Its summary gives, per workload and end-to-end metric of
``BENCHMARK.json``, each side's quartiles, how many pairs the change won
(ties count for neither side), the change of the median in per cent,
whether that change is worse than the metric's bound, and whether the
metric is unresolved: the parent's quartile distance exceeds the bound,
relative to the parent's median, and some change run is not better than
every parent run.  Nothing under ``perfbench/`` is written in this
checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: pair count, failures, correctness and, per metric of
    ``end_to_end`` (``BENCHMARK.json`` entries with ``name``, ``better``
    and ``bound``), both sides' quartiles, pairs won by the change, the
    median change in per cent, ``worse_beyond_bound`` (the change's median
    is worse than the parent's by more than the bound, relative to the
    parent's median) and ``unresolved`` (the parent's quartile distance
    exceeds the bound, unless every change run is better than every parent
    run).  ``runs`` holds one record per run with ``workload``, ``pair``,
    ``side`` and the run's ``metrics``; only complete pairs count."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = {}
        for run in runs:
            if run["workload"] == workload:
                sides.setdefault(run["pair"], {})[run["side"]] = run
        pairs = [pair for _, pair in sorted(sides.items()) if len(pair) == 2]
        if not pairs:
            continue
        entry = {
            "pairs": len(pairs),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
            "correct": {s: all(p[s]["correct"] for p in pairs) for s in ("parent", "change")},
        }
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = [
                (p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]
            ]
            if not values:
                continue
            before, after = [a for a, _ in values], [b for _, b in values]
            parent, change = _quartiles(before), _quartiles(after)
            won = sum(1 for a, b in values if sign * (b - a) > 0)
            bound = metric["bound"] * abs(parent[1])
            # every change run better than every parent run settles the spread
            apart = min(after) > max(before) if sign > 0 else max(after) < min(before)
            entry[name] = {
                "parent_q1_median_q3": [round(x, 4) for x in parent],
                "change_q1_median_q3": [round(x, 4) for x in change],
                "median_change_pct": round(100.0 * (change[1] / parent[1] - 1.0), 2),
                "pairs_change_better": f"{won} of {len(values)}",
                "worse_beyond_bound": sign * (parent[1] - change[1]) > bound,
                "unresolved": parent[2] - parent[0] > bound and not apart,
            }
        summary[workload] = entry
    return summary


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _copy_parent(rev: str, target: Path) -> None:
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as archive:
        archive.extractall(target, filter="data")


def _copy_change(target: Path) -> None:
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():
            (target / os.fsdecode(name)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / os.fsdecode(name))


def _command(benchmark: dict, workload: str, seed: str) -> list[str]:
    """The benchmark's command for one run: its run length, no tracing."""
    return benchmark["command"] + ["--workload", workload, "--seed", seed,
                                   "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]


def _run(tree: Path, command: list[str]) -> dict:
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": done.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")} | {
        "error": None}


def _host() -> str:
    versions = ", ".join(f"{p} {metadata.version(p)}" for p in ("numpy", "scipy"))
    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
            f"CPython {platform.python_version()}, {versions}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one seed per pair, used for every workload")
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--claim", required=True, help="the claim the pairs test")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_rev = _git("rev-parse", "--short", args.parent).decode().strip()
    out = ROOT / f"BENCH_{args.tag}.json"
    record = {
        "what": args.what,
        "command": " ".join(_command(benchmark, "<workload>", "<seed>")),
        "parent": parent_rev,
        "change": "the working tree of this change",
        "host": _host(),
        "protocol": (
            f"tools/bench_pairs.py: each side runs from its own copy (git archive of "
            f"the parent, a file copy of the change); {len(args.seeds)} pairs per "
            f"workload on seeds {args.seeds}, workloads in the order "
            f"{args.workload}, alternating which side runs first (first pair of each "
            "workload: parent first); quartiles are "
            "statistics.quantiles(method='inclusive')"
        ),
        "claim": args.claim,
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        trees = {"parent": Path(work) / "parent", "change": Path(work) / "change"}
        _copy_parent(args.parent, trees["parent"])
        trees["change"].mkdir()
        _copy_change(trees["change"])
        for workload in args.workload:
            for pair, seed in enumerate(args.seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                command = _command(benchmark, workload, str(seed))
                for side in order:
                    result = _run(trees[side], command)
                    record["runs"].append({"workload": workload, "pair": pair, "seed": seed,
                                           "side": side, "first": order[0]} | result)
                    record["summary"] = summarize(record["runs"], benchmark["end_to_end"])
                    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(result['metrics'].get('runs_per_s'))}", file=sys.stderr)
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
