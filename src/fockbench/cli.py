"""Command-line front end.

Exit codes: 0 success, 1 evaluation error, 2 parse error, 3 backend
comparison failure.  The default cutoff can be overridden by the
FOCKBENCH_CUTOFF environment variable; an explicit --cutoff flag wins.
A warning raised while ``run`` evaluates, such as the numeric route's
``TruncationWarning``, prints as one ``warning: <message>`` line on stderr.

Every ``click.echo`` names its stream: without ``file=``, click caches a
wrapper keyed by the current ``sys.stdout``/``sys.stderr`` that refers
back to its key, so each in-process invocation (``CliRunner``) would keep
its output buffers alive for the life of the process.
"""

from __future__ import annotations

import math
import os
import sys
import warnings

import click

from .backends import (
    ComparisonReport,
    MeasurementReport,
    compare_reports,
    evolve_numeric,
    evolve_symbolic,
    measure,
)
from .checks import run_all_checks
from .circuit import Circuit, EXPERIMENTS, build_experiment, with_cutoff
from .dsl import CircuitParseError, parse_circuit

EXIT_OK = 0
EXIT_EVALUATION = 1
EXIT_PARSE = 2
EXIT_COMPARISON = 3


def _fmt(x: float) -> str:
    value = float(x)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".15g")


def _resolve_cutoff(flag_value: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("FOCKBENCH_CUTOFF")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise click.ClickException(f"invalid FOCKBENCH_CUTOFF value {raw!r}")


def _parse_experiment_spec(spec: str, cutoff: int | None, all_inputs: bool):
    """Return a list of (label, circuit) runs for an --experiment value.

    Parameters ride after a colon: ``cnot_dualrail:1,0`` selects the
    control/target input and ``hardy_vertex:0.785`` the vertex angle.
    """
    name, _, params = spec.partition(":")
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise click.ClickException(f"unknown experiment {name!r} (known: {known})")
    if all_inputs and name != "cnot_dualrail":
        raise click.ClickException("--all-inputs applies only to cnot_dualrail")
    if name == "cnot_dualrail":
        inputs = [(0, 0)]
        if all_inputs and params:
            raise click.ClickException(
                "--all-inputs runs every cnot_dualrail input and takes no parameters"
            )
        if all_inputs:
            inputs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        elif params:
            try:
                control, target = (int(x) for x in params.split(","))
            except ValueError:
                raise click.ClickException(
                    "cnot_dualrail parameters must look like 1,0"
                )
            inputs = [(control, target)]
        return [
            (f"{c}{t}", build_experiment(name, cutoff=cutoff, control=c, target=t))
            for c, t in inputs
        ]
    if name == "hardy_vertex" and params:
        try:
            theta = float(params)
        except ValueError:
            raise click.ClickException("hardy_vertex parameter must be a number")
        if not math.isfinite(theta):
            raise click.ClickException(
                f"hardy_vertex parameter must be finite, got {params!r}"
            )
        return [(None, build_experiment(name, cutoff=cutoff, theta=theta))]
    if params:
        raise click.ClickException(f"experiment {name!r} takes no parameters")
    return [(None, build_experiment(name, cutoff=cutoff))]


def _load_circuit_file(path: str, cutoff: int | None) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc.strerror}")
    circuit = parse_circuit(text)
    if cutoff is not None:
        circuit = with_cutoff(circuit, cutoff)
    return circuit


def _evaluate(circuit: Circuit, backend: str, tol: float):
    """Returns (report to display, comparison or None)."""
    if backend == "symbolic":
        return measure(evolve_symbolic(circuit), circuit.measured_modes), None
    report = measure(evolve_numeric(circuit), circuit.measured_modes)
    if backend == "numeric":
        return report, None
    symbolic = measure(evolve_symbolic(circuit), circuit.measured_modes)
    return report, compare_reports(report, symbolic, tol)


def _report_json(
    report: MeasurementReport, comparison: ComparisonReport | None, label: str | None
) -> str:
    parts = []
    if label is not None:
        parts.append(f'"input": "{label}"')
    parts.append(f'"norm": {_fmt(report.norm)}')
    exp = ", ".join(
        f'"N{m + 1}": {_fmt(report.expectations[m])}' for m in report.measured_modes
    )
    parts.append(f'"expectations": {{{exp}}}')
    rows = []
    for occ in sorted(report.distribution):
        occ_text = ", ".join(str(n) for n in occ)
        rows.append(f'{{"occ": [{occ_text}], "prob": {_fmt(report.distribution[occ])}}}')
    parts.append(f'"distribution": [{", ".join(rows)}]')
    if comparison is not None:
        parts.append(
            '"comparison": {"max_deviation": '
            f'{_fmt(comparison.max_deviation)}, "verdict": "{comparison.verdict}"}}'
        )
    return "{" + ", ".join(parts) + "}"


def _report_table(
    report: MeasurementReport, comparison: ComparisonReport | None, label: str | None
) -> str:
    lines = []
    if label is not None:
        lines.append(f"input {label}:")
    lines.append(f"norm: {_fmt(report.norm)}")
    lines.append("expectations:")
    for m in report.measured_modes:
        lines.append(f"  N{m + 1}  {_fmt(report.expectations[m])}")
    lines.append("distribution:")
    for occ in sorted(report.distribution):
        occ_text = ",".join(str(n) for n in occ)
        lines.append(f"  |{occ_text}>  {_fmt(report.distribution[occ])}")
    if comparison is not None:
        lines.append(
            f"comparison: max deviation {_fmt(comparison.max_deviation)} "
            f"(tol {_fmt(comparison.tolerance)}): {comparison.verdict}"
        )
    return "\n".join(lines)


@click.group()
def main():
    """Two-backend simulator for second-quantized optical circuits."""


@main.command("run")
@click.argument("circuit_file", required=False)
@click.option("--experiment", default=None, help="Built-in experiment name (see list-experiments).")
@click.option(
    "--backend",
    type=click.Choice(["numeric", "symbolic", "both"]),
    default="both",
    show_default=True,
)
@click.option("--cutoff", type=int, default=None, help="Bosonic occupation cutoff override.")
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Comparison tolerance.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json"]),
    default="table",
    show_default=True,
)
@click.option("--all-inputs", is_flag=True, help="Run all four dual-rail CNOT inputs.")
def cmd_run(circuit_file, experiment, backend, cutoff, tol, fmt, all_inputs):
    """Run a circuit file or a built-in experiment."""
    if (circuit_file is None) == (experiment is None):
        click.echo(
            "error: provide exactly one of CIRCUIT_FILE or --experiment",
            file=sys.stderr,
        )
        sys.exit(EXIT_EVALUATION)
    try:
        cutoff = _resolve_cutoff(cutoff)
        if experiment is not None:
            runs = _parse_experiment_spec(experiment, cutoff, all_inputs)
        else:
            if all_inputs:
                raise click.ClickException("--all-inputs applies only to --experiment cnot_dualrail")
            runs = [(None, _load_circuit_file(circuit_file, cutoff))]
    except CircuitParseError as exc:
        click.echo(f"parse error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    except (click.ClickException, ValueError) as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_EVALUATION)

    outputs = []
    comparison_failed = False
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: click.echo(
            f"warning: {message}", file=sys.stderr
        )
        try:
            for label, circuit in runs:
                report, comparison = _evaluate(circuit, backend, tol)
                if comparison is not None and not comparison.passed:
                    comparison_failed = True
                if fmt == "json":
                    outputs.append(_report_json(report, comparison, label))
                else:
                    outputs.append(_report_table(report, comparison, label))
        except (ValueError, RuntimeError) as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_EVALUATION)

    if fmt == "json":
        click.echo(
            "[" + ", ".join(outputs) + "]" if len(outputs) > 1 else outputs[0],
            file=sys.stdout,
        )
    else:
        click.echo("\n\n".join(outputs), file=sys.stdout)
    sys.exit(EXIT_COMPARISON if comparison_failed else EXIT_OK)


@main.command("list-experiments")
def cmd_list_experiments():
    """List built-in experiments in a stable order."""
    width = max(len(name) for name in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        click.echo(f"{name:<{width}}  {description}", file=sys.stdout)


@main.command("check")
def cmd_check():
    """Run the full invariant suite and report pass/fail per invariant."""
    failed = False
    for name, passed, detail in run_all_checks():
        status = "ok" if passed else "FAIL"
        click.echo(f"[{status:>4}] {name}: {detail}", file=sys.stdout)
        failed = failed or not passed
    sys.exit(EXIT_EVALUATION if failed else EXIT_OK)


if __name__ == "__main__":
    main()
