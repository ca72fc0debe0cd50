"""tools/call_count.py: call counts of the first runs of a workload."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_count.py"
_spec = importlib.util.spec_from_file_location("call_count", TOOL)
call_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_count)


def test_two_runs_of_one_list_count_the_same_calls():
    first = call_count.count_calls("ladder_mesh", 3, 2)
    second = call_count.count_calls("ladder_mesh", 3, 2)
    assert first == second
    total, per_function, library = first
    assert per_function["algebra.substitute_modes"] > 0
    assert sum(per_function.values()) + sum(library.values()) < total


def test_counts_the_numpy_and_scipy_calls_of_the_numeric_route():
    _, _, library = call_count.count_calls("fock_mesh", 3, 1)
    assert library["<method 'at' of 'numpy.ufunc' objects>"] > 0
    assert not [name for name in library if name.startswith("scipy.")]


def test_prints_the_total_then_the_fockbench_functions(capsys):
    assert call_count.main(["--workload", "ladder_mesh", "--seed", "3", "--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("total calls")
    assert lines[1].endswith("fockbench calls")
    # then the numpy and scipy callees, in a section of the same form
    split = next(i for i, line in enumerate(lines) if line.endswith("calls from fockbench"))
    for heading, body in ((lines[1], lines[2:split]), (lines[split], lines[split + 1 :])):
        counts = [int(line.split()[0]) for line in body]
        assert counts == sorted(counts, reverse=True)
        assert int(heading.split()[0]) == sum(counts)


def test_stops_quietly_when_stdout_closes_early():
    # as under ``| head``: no traceback and no "Exception ignored" line
    command = [sys.executable, str(TOOL), "--workload", "ladder_mesh", "--seed", "3", "--runs", "1"]
    paths = [str(TOOL.parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""
