"""Command-line front end.

Exit codes: 0 success, 1 evaluation error, 2 parse error, 3 backend
comparison failure.  The default cutoff can be overridden by the
FOCKBENCH_CUTOFF environment variable; an explicit --cutoff flag wins.  The
override reaches every run, circuit file or experiment, through
:func:`~fockbench.circuit.with_cutoff`.  ``run`` reads a circuit file as
UTF-8, a leading byte-order mark skipped, and learns the runs of an
``--experiment`` value (with ``--all-inputs``) from
:func:`~fockbench.circuit.experiment_runs`, whose ``ValueError`` prints as
one ``error: <message>`` line.  A warning raised while ``run`` reads or
evaluates its circuits, such as the numeric route's ``TruncationWarning``,
prints as one ``warning: <message>`` line on stderr.
``run --backend both`` is one :func:`~fockbench.backends.compare_backends`
call per circuit, which refuses a bad ``--tol`` before either route runs,
so that refusal is the only line a run prints; the table or JSON shows the
numeric route's report with the comparison.

Every ``click.echo`` names its stream: without ``file=``, click caches a
wrapper keyed by the current ``sys.stdout``/``sys.stderr`` that refers
back to its key, so each in-process invocation (``CliRunner``) would keep
its output buffers alive for the life of the process.
"""

from __future__ import annotations

import os
import sys
import warnings

import click

from .algebra import evolve_symbolic
from .backends import (
    DEFAULT_TOLERANCE,
    ComparisonReport,
    MeasurementReport,
    compare_backends,
    measure,
)
from .circuit import Circuit, EXPERIMENTS, experiment_runs, with_cutoff
from .dsl import CircuitParseError, parse_circuit
from .fock import evolve_numeric

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


def _load_circuit_file(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc.strerror}")
    return parse_circuit(text)


def _evaluate(circuit: Circuit, backend: str, tol: float):
    """Returns (report to display, comparison or None).  Under ``both`` the
    numeric route's report is displayed."""
    if backend == "both":
        comparison = compare_backends(circuit, tol)
        return comparison.numeric, comparison
    evolve = evolve_numeric if backend == "numeric" else evolve_symbolic
    return measure(evolve(circuit), circuit.measured_modes), None


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
        occ_text = ", ".join(map(str, occ))
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
        occ_text = ",".join(map(str, occ))
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
@click.option(
    "--tol", type=float, default=DEFAULT_TOLERANCE, show_default=True, help="Comparison tolerance."
)
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
    outputs = []
    comparison_failed = False
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: click.echo(
            f"warning: {message}", file=sys.stderr
        )
        try:
            cutoff = _resolve_cutoff(cutoff)
            if experiment is not None:
                runs = experiment_runs(experiment, all_inputs)
            elif all_inputs:
                raise click.ClickException("--all-inputs applies only to --experiment cnot_dualrail")
            else:
                runs = [(None, _load_circuit_file(circuit_file))]
            if cutoff is not None:
                runs = [(label, with_cutoff(circuit, cutoff)) for label, circuit in runs]
            for label, circuit in runs:
                report, comparison = _evaluate(circuit, backend, tol)
                if comparison is not None and not comparison.passed:
                    comparison_failed = True
                if fmt == "json":
                    outputs.append(_report_json(report, comparison, label))
                else:
                    outputs.append(_report_table(report, comparison, label))
        except CircuitParseError as exc:
            click.echo(f"parse error: {exc}", file=sys.stderr)
            sys.exit(EXIT_PARSE)
        except (click.ClickException, ValueError, RuntimeError) as exc:
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
    from .checks import run_all_checks  # ``run`` need not load the suite

    failed = False
    for name, passed, detail in run_all_checks():
        status = "ok" if passed else "FAIL"
        click.echo(f"[{status:>4}] {name}: {detail}", file=sys.stdout)
        failed = failed or not passed
    sys.exit(EXIT_EVALUATION if failed else EXIT_OK)


if __name__ == "__main__":
    main()
