"""Command-line interface: exit codes, output schema, determinism."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import click.testing
import pytest
from click.testing import CliRunner

import fockbench.backends
import fockbench.checks
import fockbench.cli
from fockbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
CIRCUIT_FILES = sorted((ROOT / "circuits").glob("*.fck"))

OK_PROGRAM = "system bosons=2 cutoff=4\ninput create 1\nbs 1 2 sym\nmeasure all\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


# ---------------------------------------------------------------------------
# run: experiments
# ---------------------------------------------------------------------------


def test_run_experiment_both_backends(runner):
    result = invoke(runner, ["run", "--experiment", "single_photon_bs_sym", "--backend", "both"])
    assert result.exit_code == 0
    assert "pass" in result.output
    assert "N1  0.5" in result.output


def test_run_all_cnot_inputs_table(runner):
    result = invoke(runner, ["run", "--experiment", "cnot_dualrail", "--all-inputs"])
    assert result.exit_code == 0
    assert result.output.count("input ") == 4
    assert result.output.count("pass") == 4


def test_run_all_cnot_inputs_json(runner):
    result = invoke(
        runner,
        ["run", "--experiment", "cnot_dualrail", "--all-inputs", "--format", "json"],
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 4
    for row in rows:
        ((occ, prob),) = [(d["occ"], d["prob"]) for d in row["distribution"]]
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert row["comparison"]["verdict"] == "pass"


def test_run_hardy_with_parameter(runner):
    result = invoke(
        runner,
        ["run", "--experiment", f"hardy_vertex:{math.pi / 6}", "--format", "json"],
    )
    assert result.exit_code == 0
    row = json.loads(result.output)
    dist = {tuple(d["occ"]): d["prob"] for d in row["distribution"]}
    assert dist[(1, 0, 0)] == pytest.approx(0.25, abs=1e-10)


def test_run_unknown_experiment(runner):
    result = invoke(runner, ["run", "--experiment", "warp_drive"])
    assert result.exit_code == 1
    assert "unknown experiment" in result.output


def test_run_bad_experiment_parameter(runner):
    result = invoke(runner, ["run", "--experiment", "cnot_dualrail:2,0"])
    assert result.exit_code == 1
    assert "control and target" in result.output


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_run_rejects_non_finite_vertex_angle(runner, value):
    result = invoke(runner, ["run", "--experiment", f"hardy_vertex:{value}"])
    assert result.exit_code == 1
    expected = f"error: hardy_vertex parameter must be finite, got {value!r}\n"
    assert result.output == expected


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_run_rejects_tolerance_that_is_not_finite_and_positive(runner, value):
    # under nan every comparison fails (a false disagreement, exit 3), under
    # inf every comparison passes
    path = ROOT / "circuits" / "single_photon_bs_sym.fck"
    result = invoke(runner, ["run", str(path), "--tol", value])
    assert result.exit_code == 1
    assert result.stdout == ""
    tol = float(value)
    assert result.stderr == f"error: tolerance must be finite and positive, got {tol!r}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
def test_run_both_refuses_a_bad_tolerance_before_either_route(runner, monkeypatch, value):
    def refuse(circuit):
        raise AssertionError("a route ran under a tolerance that is refused")

    path = str(ROOT / "circuits" / "single_photon_bs_sym.fck")
    monkeypatch.setattr(fockbench.cli, "evolve_numeric", refuse)
    result = invoke(runner, ["run", path, "--backend", "both", "--tol", value])
    assert result.exit_code == 1
    assert result.stdout == ""
    tol = float(value)
    assert result.stderr == f"error: tolerance must be finite and positive, got {tol!r}\n"
    # the single routes compare nothing, so they keep ignoring --tol
    monkeypatch.undo()
    for backend in ("numeric", "symbolic"):
        plain = invoke(runner, ["run", path, "--backend", backend])
        result = invoke(runner, ["run", path, "--backend", backend, "--tol", value])
        assert (result.exit_code, result.stdout, result.stderr) == (0, plain.stdout, "")


def test_run_requires_exactly_one_source(runner):
    assert invoke(runner, ["run"]).exit_code == 1
    result = invoke(runner, ["run", "x.fck", "--experiment", "single_photon_bs_sym"])
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["--experiment", "hardy_vertex", "--all-inputs"],
            "--all-inputs applies only to cnot_dualrail",
        ),
        (
            [str(ROOT / "circuits" / "cnot_dualrail.fck"), "--all-inputs"],
            "--all-inputs applies only to --experiment cnot_dualrail",
        ),
        (["--experiment", "hardy_vertex:abc"], "hardy_vertex parameter must be a number"),
        (["--experiment", "cnot_dualrail:1"], "cnot_dualrail parameters must look like 1,0"),
        (
            ["--experiment", "single_photon_bs_sym:1"],
            "experiment 'single_photon_bs_sym' takes no parameters",
        ),
        (
            ["--experiment", "cnot_dualrail:abc", "--all-inputs"],
            "--all-inputs runs every cnot_dualrail input and takes no parameters",
        ),
        (
            ["--experiment", "cnot_dualrail:1,0", "--all-inputs"],
            "--all-inputs runs every cnot_dualrail input and takes no parameters",
        ),
    ],
)
def test_run_rejects_bad_experiment_spec(runner, args, message):
    result = invoke(runner, ["run", *args])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("cutoff, exit_code", [("2", 0), ("0", 1)])
def test_experiment_with_cutoff_matches_circuit_file(runner, cutoff, exit_code):
    # cutoff 0 shows that --cutoff reaches the experiment: both runs refuse it
    common = ["--cutoff", cutoff, "--format", "json"]
    experiment = invoke(runner, ["run", "--experiment", "cnot_dualrail:1,0", *common])
    circuit_file = invoke(
        runner, ["run", str(ROOT / "circuits" / "cnot_dualrail.fck"), *common]
    )
    assert experiment.exit_code == circuit_file.exit_code == exit_code
    assert experiment.stdout == circuit_file.stdout.replace("{", '{"input": "10", ', 1)
    assert experiment.stderr == circuit_file.stderr


# ---------------------------------------------------------------------------
# run: files and exit codes
# ---------------------------------------------------------------------------


def test_run_file_numeric_json(runner, tmp_path):
    path = tmp_path / "ok.fck"
    path.write_text(OK_PROGRAM)
    result = invoke(runner, ["run", str(path), "--backend", "numeric", "--format", "json"])
    assert result.exit_code == 0
    row = json.loads(result.output)
    assert set(row) == {"norm", "expectations", "distribution"}
    assert row["expectations"] == {"N1": 0.5, "N2": 0.5}


def test_json_output_byte_stable(runner, tmp_path):
    path = tmp_path / "ok.fck"
    path.write_text(OK_PROGRAM)
    args = ["run", str(path), "--backend", "both", "--format", "json"]
    first = invoke(runner, args).output
    second = invoke(runner, args).output
    assert first == second


def test_parse_error_exit_code_and_line(runner, tmp_path):
    path = tmp_path / "bad.fck"
    path.write_text("system bosons=2 cutoff=4\nbs 1 1 sym\n")
    result = invoke(runner, ["run", str(path)])
    assert result.exit_code == 2
    assert "line 2" in result.output
    assert "duplicate mode" in result.output


def test_missing_file_is_evaluation_error(runner, tmp_path):
    result = invoke(runner, ["run", str(tmp_path / "nope.fck")])
    assert result.exit_code == 1


def test_oversized_basis_is_evaluation_error(runner, tmp_path):
    path = tmp_path / "big.fck"
    path.write_text("system bosons=8 cutoff=19\nmeasure all\n")
    result = invoke(runner, ["run", str(path), "--backend", "numeric"])
    assert result.exit_code == 1
    assert "cap" in result.output


@pytest.mark.parametrize("backend", ["numeric", "both"])
def test_basis_too_large_to_print_is_refused_in_one_line(runner, tmp_path, backend):
    # 2**20000 states: more digits than Python converts from int to text
    path = tmp_path / "huge.fck"
    path.write_text("system bosons=20000 cutoff=1\ninput create 1\n")
    result = invoke(runner, ["run", str(path), "--backend", backend])
    assert result.exit_code == 1
    (line,) = result.stderr.splitlines()
    assert "cap" in line
    assert "int_max_str_digits" not in result.output


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_comparison_failure_exit_code(runner, tmp_path):
    # two photons at cutoff 1: the numeric route cannot represent the
    # bunched output, the algebraic route can, so the comparison fails
    path = tmp_path / "trunc.fck"
    path.write_text("system bosons=2 cutoff=1\ninput create 1 2\nbs 1 2 sym\nmeasure all\n")
    result = invoke(runner, ["run", str(path), "--backend", "both"])
    assert result.exit_code == 3
    assert "fail" in result.output


def test_truncation_warning_is_one_stderr_line(runner, tmp_path):
    path = tmp_path / "trunc.fck"
    path.write_text("system bosons=2 cutoff=1\ninput create 1 2\nbs 1 2 sym\nmeasure all\n")
    args = ["run", str(path), "--backend", "numeric", "--format", "json"]
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert result.stderr == (
        "warning: the input or the circuit needs a bosonic occupation above the "
        "cutoff; the truncated evolution is not exact\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = invoke(runner, args)
    assert quiet.exit_code == 0
    assert quiet.stderr == ""
    assert result.stdout_bytes == quiet.stdout_bytes


@pytest.mark.parametrize(
    "args, circuits",
    [
        (["--experiment", "single_photon_bs_sym"], 1),
        (["--experiment", "hardy_vertex:0.3"], 1),
        (["--experiment", "cnot_dualrail", "--all-inputs"], 4),
        ([str(ROOT / "circuits" / "cnot_dualrail.fck")], 1),
    ],
)
def test_both_backends_evolve_numeric_once_per_circuit(runner, monkeypatch, args, circuits):
    calls = []
    original = fockbench.backends.evolve_numeric

    def counting(circuit, **kwargs):
        calls.append(circuit)
        return original(circuit, **kwargs)

    monkeypatch.setattr(fockbench.backends, "evolve_numeric", counting)
    monkeypatch.setattr(fockbench.cli, "evolve_numeric", counting)
    result = invoke(runner, ["run", *args, "--backend", "both", "--format", "json"])
    assert result.exit_code == 0
    assert len(calls) == circuits
    assert result.output.count('"verdict": "pass"') == circuits


@pytest.mark.parametrize("backend", ["numeric", "both", "symbolic"])
@pytest.mark.parametrize("path", CIRCUIT_FILES, ids=lambda p: p.stem)
def test_example_circuits_match_golden_bytes(runner, path, backend):
    # the example circuits' JSON reports are frozen byte for byte
    golden = ROOT / "tests" / "golden" / f"{path.stem}.{backend}.json"
    result = invoke(runner, ["run", str(path), "--backend", backend, "--format", "json"])
    assert result.exit_code == 0
    assert result.stdout_bytes == golden.read_bytes()


@pytest.mark.parametrize("name", [*(p.stem for p in CIRCUIT_FILES), "mesh_m6"])
def test_both_golden_is_numeric_golden_plus_comparison(name):
    # the two-route report adds the comparison and changes nothing else
    golden = ROOT / "tests" / "golden"
    numeric = (golden / f"{name}.numeric.json").read_text()
    both = (golden / f"{name}.both.json").read_text()
    assert both.startswith(numeric[: -len("}\n")] + ', "comparison": ')
    numeric_report, both_report = json.loads(numeric), json.loads(both)
    assert list(both_report) == [*numeric_report, "comparison"]
    del both_report["comparison"]
    assert both_report == numeric_report


def _mesh_program(modes: int, photons: int, cutoff: int) -> str:
    # a brick of angle splitters, each followed by a phase, ``modes`` layers deep
    lines = [f"system bosons={modes} cutoff={cutoff}"]
    lines.append("input create " + " ".join(str(m + 1) for m in range(photons)))
    for layer in range(modes):
        for m in range(layer % 2, modes - 1, 2):
            lines.append(f"bs {m + 1} {m + 2} angle={0.3 + 0.11 * m + 0.07 * layer}")
            lines.append(f"phase {m + 1} {0.5 - 0.13 * m + 0.05 * layer}")
    lines.append("measure all")
    return "\n".join(lines) + "\n"


#: Mesh goldens: name -> (modes, photons, cutoff), backends.  Several
#: photons meet on one splitter, which the example circuits never do.
MESH_GOLDENS = {
    "mesh_m6": ((6, 3, 3), ("numeric", "symbolic", "both")),
    "mesh_m8": ((8, 4, 4), ("numeric", "symbolic", "both")),
}


@pytest.mark.parametrize(
    "name, backend",
    [(name, backend) for name, (_, backends) in MESH_GOLDENS.items() for backend in backends],
)
def test_mesh_circuits_match_golden_bytes(runner, tmp_path, name, backend):
    # the meshes' JSON reports are frozen byte for byte, like the examples'
    path = tmp_path / f"{name}.fck"
    path.write_text(_mesh_program(*MESH_GOLDENS[name][0]))
    golden = ROOT / "tests" / "golden" / f"{name}.{backend}.json"
    result = invoke(runner, ["run", str(path), "--backend", backend, "--format", "json"])
    assert result.exit_code == 0
    assert result.stdout_bytes == golden.read_bytes()


def test_forty_photons_through_one_splitter_follow_the_binomial_law(runner, tmp_path):
    # (cos t a1^ + sin t a2^)^40 collects into 41 words; its 2^40 products
    # are never formed
    n, theta = 40, 0.3
    path = tmp_path / "bs40.fck"
    path.write_text(
        f"system bosons=2 cutoff={n}\ninput create {' '.join(['1'] * n)}\n"
        f"bs 1 2 angle={theta}\nmeasure all\n"
    )
    result = invoke(runner, ["run", str(path), "--backend", "both", "--format", "json"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["comparison"]["max_deviation"] <= 1e-12
    rows = {tuple(row["occ"]): row["prob"] for row in report["distribution"]}
    binomial = {
        (k, n - k): math.comb(n, k) * math.cos(theta) ** (2 * k) * math.sin(theta) ** (2 * (n - k))
        for k in range(n + 1)
    }
    assert set(rows) <= set(binomial)  # rows far below 1e-12 may be left out
    for occ, prob in binomial.items():
        assert abs(rows.get(occ, 0.0) - prob) <= 1e-12, occ


@pytest.mark.parametrize(
    "name", [*(p.stem for p in CIRCUIT_FILES), "mesh6"], ids=lambda name: name
)
def test_both_backends_write_nothing_to_stderr(runner, tmp_path, name):
    # any warning raised while evaluating would print as a "warning:" line
    if name == "mesh6":
        path = tmp_path / "mesh6.fck"
        path.write_text(_mesh_program(6, 3, 3))
    else:
        path = ROOT / "circuits" / f"{name}.fck"
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        result = invoke(runner, ["run", str(path), "--backend", "both", "--format", "json"])
    assert result.exit_code == 0
    assert '"verdict": "pass"' in result.stdout
    assert result.stderr == ""


#: Programs with a finite parameter large enough that an amplitude overflows:
#: name -> (program, element named by the error, symbolic stdout or None when
#: the symbolic route overflows too).  cos and sin of 1e308 are finite, so
#: the symbolic splitter and vertex stay exact.
NON_FINITE = {
    "phase": (
        "system bosons=2 cutoff=4\ninput create 1 1 2 2\nphase 1 1e308\n"
        "bs 1 2 sym\nmeasure all\n",
        "element 1 (PhaseShifter)",
        None,
    ),
    "kerr": (
        "system bosons=2 cutoff=4\ninput create 1 1 2 2\nkerr 1 2 strength=1e308\n"
        "bs 1 2 sym\nmeasure all\n",
        "element 1 (KerrMedium)",
        None,
    ),
    "vertex": (
        "system bosons=1 fermions=2 cutoff=4\ninput create 2 3\n"
        "vertex 1 2 3 theta=1e308\nmeasure all\n",
        "element 1 (AnnihilationVertex)",
        '{"norm": 1, "expectations": {"N1": 0.205568377599212, "N2": '
        '0.794431622400788, "N3": 0.794431622400788}, "distribution": [{"occ": '
        '[0, 1, 1], "prob": 0.794431622400788}, {"occ": [1, 0, 0], "prob": '
        '0.205568377599212}]}\n',
    ),
    "bs": (
        "system bosons=2 cutoff=4\ninput create 1 1 2\nbs 1 2 angle=1e308\n"
        "measure all\n",
        "element 1 (BeamSplitter)",
        '{"norm": 1, "expectations": {"N1": 1.79443162240079, "N2": '
        '1.20556837759921}, "distribution": [{"occ": [0, 3], "prob": '
        '0.100714127405045}, {"occ": [1, 2], "prob": 0.393356054575395}, '
        '{"occ": [2, 1], "prob": 0.116713886233286}, {"occ": [3, 0], "prob": '
        '0.389215931786274}]}\n',
    ),
}


@pytest.mark.parametrize("backend", ["numeric", "symbolic", "both"])
@pytest.mark.parametrize("name", NON_FINITE)
def test_non_finite_amplitude_is_one_error_line(runner, tmp_path, name, backend):
    # an overflow fails at the element that caused it, not as "norm 0" at
    # measurement, and numpy's own warnings do not reach stderr
    program, element, symbolic_stdout = NON_FINITE[name]
    path = tmp_path / f"{name}.fck"
    path.write_text(program)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        result = invoke(runner, ["run", str(path), "--backend", backend, "--format", "json"])
    if backend == "symbolic" and symbolic_stdout is not None:
        assert result.exit_code == 0
        assert result.stdout == symbolic_stdout
        assert result.stderr == ""
        return
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {element} makes an amplitude non-finite\n"


#: Symbolic detector statistics of the vertex at large angles, as
#: (P(1,0,0), P(0,1,1)); the symbolic route is exact at any angle.
LARGE_VERTEX_ANGLES = {
    "3e6": ("0.771744782259163", "0.228255217740838"),
    "1.43e7": ("0.847794392667098", "0.152205607332902"),
    "1e8": ("0.867951276833957", "0.132048723166043"),
    "1e9": ("0.297945071306055", "0.702054928693945"),
    "1e16": ("0.607913387646764", "0.392086612353236"),
}


@pytest.mark.parametrize("backend", ["numeric", "symbolic", "both"])
@pytest.mark.parametrize("theta", LARGE_VERTEX_ANGLES)
def test_large_vertex_angle_is_one_error_line(runner, theta, backend):
    # the vertex's 2x2 block takes the closed form, exact at any angle, but
    # every entry above MAX_GENERATOR_ENTRY (2e6) is refused all the same:
    # the numeric and both routes print one error line, not a backend
    # disagreement
    args = ["run", "--experiment", f"hardy_vertex:{theta}", "--backend", backend]
    result = invoke(runner, [*args, "--format", "json"])
    if backend == "symbolic":
        vacuum, pair = LARGE_VERTEX_ANGLES[theta]
        assert result.exit_code == 0
        assert result.stdout == (
            f'{{"norm": 1, "expectations": {{"N1": {vacuum}, "N2": {pair}, '
            f'"N3": {pair}}}, "distribution": [{{"occ": [0, 1, 1], "prob": {pair}}}, '
            f'{{"occ": [1, 0, 0], "prob": {vacuum}}}]}}\n'
        )
        assert result.stderr == ""
        return
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"error: element 1 (AnnihilationVertex) has a generator entry of modulus "
        f"{float(theta):.3g}, above 2e+06, where the numeric exponential loses "
        "precision\n"
    )


def test_vertex_at_a_large_angle_agrees_at_a_tight_tolerance(runner):
    # the vertex block's exponential is cos and sin of the angle, so the
    # routes agree far below 1e-12 even at 1e6
    args = ["run", "--experiment", "hardy_vertex:1000000.0", "--backend", "both"]
    result = invoke(runner, [*args, "--tol", "1e-12", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["comparison"]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# cutoff resolution
# ---------------------------------------------------------------------------


HOM_PROGRAM = "system bosons=2 cutoff=4\ninput create 1 2\nbs 1 2 sym\nmeasure all\n"


def _hom_coincidence(runner, path, env=None, extra=()):
    """P(1,1) after two-photon interference: 0 exactly, unless truncated."""
    result = runner.invoke(
        main,
        ["run", str(path), "--backend", "numeric", "--format", "json", *extra],
        env=env,
        catch_exceptions=False,
    )
    row = json.loads(result.output)
    dist = {tuple(d["occ"]): d["prob"] for d in row["distribution"]}
    return dist.get((1, 1), 0.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_env_cutoff_override(runner, tmp_path):
    # at cutoff 1 the bunched two-photon outputs cannot be represented, so
    # the coincidence probability is wrong; the env variable must reach the
    # evaluation and replace the file's declared cutoff
    path = tmp_path / "hom.fck"
    path.write_text(HOM_PROGRAM)
    assert _hom_coincidence(runner, path) == pytest.approx(0.0, abs=1e-10)
    broken = _hom_coincidence(runner, path, env={"FOCKBENCH_CUTOFF": "1"})
    assert broken > 0.9


def test_flag_beats_env(runner, tmp_path):
    path = tmp_path / "hom.fck"
    path.write_text(HOM_PROGRAM)
    good = _hom_coincidence(
        runner, path, env={"FOCKBENCH_CUTOFF": "1"}, extra=("--cutoff", "4")
    )
    assert good == pytest.approx(0.0, abs=1e-10)


def test_invalid_env_cutoff(runner):
    result = runner.invoke(
        main,
        ["run", "--experiment", "single_photon_bs_sym"],
        env={"FOCKBENCH_CUTOFF": "seven"},
    )
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# list-experiments / check
# ---------------------------------------------------------------------------


def test_list_experiments_contents(runner):
    result = invoke(runner, ["list-experiments"])
    assert result.exit_code == 0
    for name in (
        "single_photon_bs_sym",
        "single_photon_bs_asym",
        "cnot_dualrail",
        "hardy_vertex",
    ):
        assert name in result.output


def test_list_experiments_stable_order(runner):
    first = invoke(runner, ["list-experiments"]).output
    second = invoke(runner, ["list-experiments"]).output
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0].startswith("single_photon_bs_sym")
    assert lines[2].startswith("cnot_dualrail")


def test_importing_the_cli_leaves_the_invariant_suite_unloaded():
    # only ``check`` needs the suite, so ``run`` does not pay for loading it
    package_root = Path(fockbench.cli.__file__).resolve().parent.parent
    probe = "import sys, fockbench.cli; print('fockbench.checks' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


#: Runs the CLI on the probe's arguments.
RUN_CLI = "from fockbench.cli import main; main(sys.argv[1:])"


def _fresh_scipy_modules(statement, *args):
    """(exit code, stdout, scipy modules loaded) of ``statement`` run with
    ``args`` in a fresh interpreter."""
    probe = (
        "import sys\n"
        "try:\n"
        f"    {statement}\n"
        "finally:\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    print('scipy:', *loaded, file=sys.stderr)\n"
    )
    package_root = Path(fockbench.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True
    )
    last = done.stderr.splitlines()[-1].split()
    assert last[0] == "scipy:", done.stderr
    return done.returncode, done.stdout, last[1:]


@pytest.mark.parametrize("module", ["fockbench", "fockbench.cli"])
def test_importing_the_package_loads_no_scipy(module):
    # only a matrix exponential or a box matrix needs scipy, and imports build neither
    assert _fresh_scipy_modules(f"import {module}") == (0, "", [])


def test_symbolic_run_loads_no_scipy():
    path = ROOT / "circuits" / "cnot_dualrail.fck"
    code, stdout, loaded = _fresh_scipy_modules(
        RUN_CLI, "run", str(path), "--backend", "symbolic", "--format", "json"
    )
    assert (code, loaded) == (0, [])
    golden = ROOT / "tests" / "golden" / "cnot_dualrail.symbolic.json"
    assert stdout.encode() == golden.read_bytes()


@pytest.mark.parametrize("backend", ["numeric", "both"])
@pytest.mark.parametrize("name", ["cnot_dualrail", "mesh_m6"])
def test_numeric_run_loads_no_scipy(tmp_path, name, backend):
    # the block exponentials are numpy's; only the box matrices need scipy
    if name == "mesh_m6":
        path = tmp_path / "mesh_m6.fck"
        path.write_text(_mesh_program(*MESH_GOLDENS[name][0]))
    else:
        path = ROOT / "circuits" / f"{name}.fck"
    code, stdout, loaded = _fresh_scipy_modules(
        RUN_CLI, "run", str(path), "--backend", backend, "--format", "json"
    )
    assert (code, loaded) == (0, [])
    golden = ROOT / "tests" / "golden" / f"{name}.{backend}.json"
    assert stdout.encode() == golden.read_bytes()


def test_check_passes(runner):
    result = invoke(runner, ["check"])
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert result.output.count("ok") >= 10


def test_commutator_check_fails_a_transposed_quadratic_generator(monkeypatch):
    build = fockbench.algebra.quadratic_generator
    monkeypatch.setattr(
        fockbench.algebra,
        "quadratic_generator",
        lambda c, modes, species_of: build(c.T, modes, species_of),
    )
    worst, bound = fockbench.checks.check_commutator_identity()
    assert worst > bound


def test_check_reports_a_raising_check_and_runs_the_rest(runner, monkeypatch):
    def raises():
        raise ValueError("measurement requires a normalized state")

    monkeypatch.setattr(
        fockbench.checks,
        "ALL_CHECKS",
        [("first", lambda: (0.0, 1e-12)), ("raises", raises), ("last", lambda: (2.0, 0.0))],
    )
    result = invoke(runner, ["check"])
    assert result.exit_code == 1
    assert result.stdout.splitlines() == [
        "[  ok] first: worst 0.000e+00 (bound 1e-12)",
        "[FAIL] raises: error: measurement requires a normalized state",
        "[FAIL] last: worst 2.000e+00 (bound 0e+00)",
    ]
    assert "Traceback" not in result.output


def test_invocations_keep_no_output_streams_alive(runner):
    # click.echo without file= caches a wrapper that keeps the runner's
    # stream, and with it the whole output buffer, alive for good
    def live_streams():
        gc.collect()
        return sum(
            isinstance(obj, click.testing._NamedTextIOWrapper)
            for obj in gc.get_objects()
        )

    commands = [
        ["run", "--experiment", "single_photon_bs_sym"],
        ["run", "--experiment", "warp_drive"],
        ["list-experiments"],
    ]
    before = live_streams()
    for args in commands * 7:
        invoke(runner, args)
    assert live_streams() == before
