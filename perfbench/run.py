"""fockbench benchmark: closed-loop ``fockbench run`` invocations, one client.

    python3 perfbench/run.py --workload fock_mesh --seed 1 --seconds 20 --trace 0

Each run drives ``fockbench.cli.main`` in-process through click's
CliRunner over a seeded list of circuit files or ``--experiment`` specs,
sending the next invocation when the previous one returns.  Times are
scaled to a reference host speed by a probe timed around each of them
(see probe.py).  Every output is checked against an oracle that shares no
code with fockbench.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a separately traced pass with ``--trace 1``.  The
line before it holds the provenance and details, which are also written
to ``perfbench/work/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread before numpy loads, here and in
#: the set-up subprocesses, which inherit the environment.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)
# The CLI reads a default cutoff from here; the workloads set their own.
os.environ.pop("FOCKBENCH_CUTOFF", None)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from oracle import classify, gate_self_test  # noqa: E402
from probe import HostProbe, scaled  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, known_failure_runs, ladder_cases  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Warm-up before timing: at least this long and this many invocations.
WARMUP_SECONDS = 2.0
WARMUP_MIN_RUNS = 2
#: The tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES = 10
SETUP_TIMEOUT_S = 60


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def time_setups(workload: str, seed: int, out_dir: Path) -> list[float]:
    """Wall seconds of each fresh-process set-up.

    Unlike the invocations these are not scaled for host speed: a probe
    taken just after a child process exits reads up to four times slow,
    which spread the scaled medians twice as wide as the wall-clock ones."""
    command = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out_dir)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
    return samples


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (checkout is not a git work tree)"


def provenance(seed: int) -> dict:
    versions = {name: importlib.metadata.version(name)
                for name in ("numpy", "scipy", "click")}
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "git_commit": git_commit(),
        "seed": seed,
    }


class Client:
    """One closed-loop client driving the CLI in-process."""

    def __init__(self, probe: HostProbe):
        from click.testing import CliRunner
        from fockbench.cli import main

        self.runner = CliRunner()
        self.main = main
        self.probe = probe

    def invoke(self, args):
        result = self.runner.invoke(self.main, args)
        return result.exit_code, result.stdout, result.stderr

    def loop(self, runs, seconds=None, count=None, tracer=None):
        """Run ``runs`` in order (wrapping) until ``seconds`` have passed or
        ``count`` invocations are done.  The host is probed between
        invocations, and each is paired with the mean of the probes on
        either side.  Returns [(run, latency_s, probe_s, exit_code, stdout)]."""
        clock = time.perf_counter
        records = []
        before = self.probe()
        t0 = clock()
        while True:
            run = runs[len(records) % len(runs)]
            if tracer is not None:
                tracer.op = len(records)
            start = clock()
            code, out, _ = self.invoke(run["args"])
            end = clock()
            after = self.probe()
            records.append((run, end - start, 0.5 * (before + after), code, out))
            before = after
            if count is not None and len(records) >= count:
                break
            if seconds is not None and end - t0 >= seconds:
                break
        return records

    def warm_up(self, runs):
        clock = time.perf_counter
        t0 = clock()
        done = 0
        while done < WARMUP_MIN_RUNS or clock() - t0 < WARMUP_SECONDS:
            self.invoke(runs[done % len(runs)]["args"])
            done += 1


def check_records(records) -> dict:
    """Classify every invocation against the oracle."""
    tally = {"pass": 0, "known": 0, "fail": 0}
    for run, _, _, code, out in records:
        tally[classify(run["check"], code, out)] += 1
    return tally


def latency_stats(latencies: list[float], passes: int) -> dict:
    """Throughput over invocation time, median and tail of ``latencies``."""
    ordered = sorted(latencies)
    tail_index = max(len(ordered) - TAIL_SAMPLES - 1, 0)
    return {
        "runs_per_s": passes / sum(ordered),
        "run_p50_ms": 1000.0 * statistics.median(ordered),
        "run_tail_ms": 1000.0 * ordered[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / len(ordered),
        "samples": len(ordered),
        "samples_beyond_tail": len(ordered) - tail_index - 1,
    }


def end_to_end(records, tally: dict, setups) -> tuple[dict, dict]:
    """End-to-end metrics at reference host speed, plus the unscaled
    wall-clock figures for the details."""
    ref = latency_stats([scaled(r[1], r[2]) for r in records], tally["pass"])
    wall = latency_stats([r[1] for r in records], tally["pass"])
    units = {"runs_per_s": "1/s", "run_p50_ms": "ms", "run_tail_ms": "ms"}
    metrics = {name: {"value": ref[name], "unit": unit} for name, unit in units.items()}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MiB",
    }
    probes = sorted(r[2] for r in records)
    details = {
        "run_tail": {k: ref[k] for k in
                     ("tail_percentile", "samples", "samples_beyond_tail")},
        "unscaled_wall_clock": {name: wall[name] for name in units},
        "probe_ms": {"p10": 1000.0 * probes[len(probes) // 10],
                     "p50": 1000.0 * statistics.median(probes),
                     "p90": 1000.0 * probes[(9 * len(probes)) // 10]},
    }
    return metrics, details


PER_LAYER_UNITS = (
    (".self_ms", "ms"), (".calls", "count"), ("basis_states", "count"),
    ("ket_monomials", "count"), ("series_terms", "count"),
    ("useful_fraction", "ratio"), ("overhead_frac", "ratio"), ("max_deviation", "abs"),
    ("known_failures", "count"),
)


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in PER_LAYER_UNITS if name.endswith(suffix))


def size_ladder(client: Client, out_dir: Path, seed: int) -> list[dict]:
    """ROADMAP size ladder, traced once per case; reported, not gated."""
    rows = []
    for case in ladder_cases(out_dir, seed):
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            code, out, err = client.invoke(case["args"])
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - start
        layers = tracer.metrics(1)
        rows.append({
            "case": case["name"],
            "wall_s": wall,
            "exit_code": code,
            "status": (classify(case["check"], code, out)
                       if "exceeds the memory cap" not in err else "refused at cap"),
            "message": err.strip().splitlines()[-1] if err.strip() else "",
            "fock.basis_states": layers["fock.basis_states"],
            "algebra.ket_monomials": layers["algebra.ket_monomials"],
            "self_ms": {k[:-len(".self_ms")]: v for k, v in layers.items()
                        if k.endswith(".self_ms") and v > 0},
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fockbench" / "cli.py").is_file():
        return fail(f"no fockbench sources under {SRC}; run from a full checkout")
    work = HERE / "work"
    inputs = work / f"{args.workload}-{args.seed}"
    try:
        setups = time_setups(args.workload, args.seed, inputs)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    sys.path.insert(0, str(SRC))
    client = Client(HostProbe())
    hom = inputs / "hom.fck"

    def invoke_hom(text):
        hom.write_text(text, encoding="utf-8")
        code, out, _ = client.invoke(["run", str(hom), "--backend", "both",
                                      "--format", "json"])
        return code, out

    try:
        gate_self_test(invoke_hom)
    except AssertionError as exc:
        return fail(f"oracle gate self-test failed: {exc}")

    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    runs = manifest["runs"]
    client.warm_up(manifest["warmup"])

    details = {"workload": args.workload, "trace": args.trace,
               "provenance": provenance(args.seed),
               "setup_samples_s": setups}
    if args.trace == 0:
        records = client.loop(runs, seconds=args.seconds)
        tally = check_records(records)
        metrics, more = end_to_end(records, tally, setups)
        details.update(more)
    else:
        plain = client.loop(runs, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = client.loop(runs, count=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
        tally = check_records(records)
        layers = tracer.metrics(len(traced), [scaled(1.0, r[2]) for r in traced])
        layers["trace.overhead_frac"] = (
            sum(scaled(r[1], r[2]) for r in traced)
            / sum(scaled(r[1], r[2]) for r in plain) - 1.0)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
        tracer.dump(work / f"{args.workload}-{args.seed}-spans.jsonl")
        if args.workload == "ladder_mesh":
            details["size_ladder"] = size_ladder(client, inputs, args.seed)

    # The known large-angle vertex failure, run once outside the timed loop
    # (see workloads.VERTEX_THETA_MAX); the meshes never reach the vertex.
    known = {"pass": 0, "known": 0, "fail": 0}
    if args.workload == "paper_circuits":
        probe_runs = known_failure_runs()
        known = check_records(client.loop(probe_runs, count=len(probe_runs)))
        details["known_failure_probe"] = known
    if args.trace == 1:
        metrics["vertex.known_failures"] = {
            "value": known["known"], "unit": unit_of("vertex.known_failures")}

    details["outcomes"] = tally
    result = {
        "correct": tally["fail"] == 0 and known["fail"] == 0,
        "attempted": len(records),
        "failed": tally["fail"] + tally["known"],
        "metrics": metrics,
    }
    details["result"] = result
    out_file = work / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
