"""Command-line front end: self checks, optimum tables, simulation runs, and
report generation over persisted result records.

Exit codes: 0 success, 1 usage/config/check failure, 2 I/O failure.  Result
records are JSON with sorted keys, so write -> read -> write is byte stable.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import click
import numpy as np

from .geometry import sphere_quadrature
from .groups import dihedral_d3
from .harness import (
    STREAM,
    VOTE_REFERENCE_MAX_SHOTS,
    RunConfig,
    RunResult,
    reference_score,
    run_experiment,
)
from .multispin import attainable_spins, total_j_projector
from .optimize import chi_density, coherent_code, gauss_legendre, optimal_direction_encoding
from .povm import covariant_direction_povm, validate_povm
from .protocols import (
    PROTOCOL_KINDS,
    ProtocolSpec,
    d3_covariant_povm,
    d3_covariant_score,
    frame_two_axis_score,
)
from .spins import coherent_states
from .states import SpinJ, is_integer

SCHEMA_VERSION = 1
OUTPUT_DIR_VAR = "SPINDIR_OUTPUT_DIR"
# the batch stream of schema-1 records written before records named theirs
PHILOX_STREAM = "Philox keyed by seed and batch"

REPORT_COLUMNS = (
    "protocol",
    "N",
    "encoding",
    "decoder",
    "trials",
    "seed",
    "fidelity",
    "stderr",
    "per_axis_infidelity",
    "n_sq_infidelity",
    "stream",
)

_INT_KEYS = ("num_spins", "trials", "seed")
_STR_KEYS = ("kind", "encoding", "decoder", "tie_break")
_KNOWN_KEYS = _INT_KEYS + _STR_KEYS + ("output",)


# ---------------------------------------------------------------- records


@dataclass(frozen=True)
class ResultRecord:
    """One persisted run: schema tag, timestamp, config echo, result payload."""

    schema_version: int
    timestamp: str
    config: dict
    result: dict


def config_payload(config: RunConfig) -> dict:
    return asdict(config)


def record_from_run(config: RunConfig, result: RunResult) -> ResultRecord:
    payload = {
        "estimates": result.estimates,
        "stderrs": result.stderrs,
        "trials": config.trials,
        "wall_time": result.wall_time,
        "stream": STREAM,
    }
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return ResultRecord(
        schema_version=SCHEMA_VERSION,
        timestamp=stamp,
        config=config_payload(config),
        result=payload,
    )


def record_to_json(record: ResultRecord) -> str:
    return json.dumps(asdict(record), sort_keys=True, indent=2) + "\n"


def write_record(record: ResultRecord, path: str) -> None:
    text = record_to_json(record)  # a record that cannot serialise leaves no file
    with open(path, "w") as fh:
        fh.write(text)


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)  # bool is neither


def read_record(path: str) -> ResultRecord:
    """Load a record, refusing one whose fields a report row cannot read, or
    whose counts are not integers or whose estimates are not finite numbers
    (a bool is neither).  A frame record's per-axis estimates and stderrs,
    where present, must be two finite numbers, and its naive_failures a
    non-negative integer."""
    with open(path) as fh:
        try:
            body = json.load(fh)
            record = ResultRecord(
                schema_version=body["schema_version"],
                timestamp=body["timestamp"],
                config=body["config"],
                result=body["result"],
            )
            version = record.schema_version
            if type(version) is not int or version != SCHEMA_VERSION:  # bool is not int here
                raise ValueError(f"schema_version {version!r} is not {SCHEMA_VERSION}")
            config, result = record.config, record.result
            counts = {
                "config.protocol.num_spins": config["protocol"]["num_spins"],
                "config.trials": config["trials"],
                "config.seed": config["seed"],
            }
            for name, value in counts.items():
                if type(value) is not int:
                    raise ValueError(f"{name} {value!r} is not an integer")
            estimates, stderrs = result["estimates"], result["stderrs"]
            numbers = {
                "estimates.fidelity": estimates["fidelity"],
                "estimates.infidelity": estimates["infidelity"],
                "stderrs.fidelity": stderrs["fidelity"],
            }
            for name, value in numbers.items():
                if not _is_finite_number(value):
                    raise ValueError(f"{name} {value!r} is not a finite number")
            for name, section in (("estimates", estimates), ("stderrs", stderrs)):
                pair = section.get("per_axis", [0.0, 0.0])
                if type(pair) is not list or len(pair) != 2 or not all(map(_is_finite_number, pair)):
                    raise ValueError(f"{name}.per_axis {pair!r} is not a list of two finite numbers")
            failures = estimates.get("naive_failures", 0)
            if type(failures) is not int or failures < 0:
                raise ValueError(f"estimates.naive_failures {failures!r} is not a non-negative integer")
            _report_row(record)
            return record
        # ValueError: bad JSON or UTF-8; OverflowError: an integer past float range
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path} is not a result record ({exc})") from exc


# ----------------------------------------------------------- configuration


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key that repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} repeats in one JSON object")
        obj[key] = value
    return obj


def load_settings(path: str) -> dict:
    """Read run settings from [protocol]/[run] key = value sections, or from
    the JSON equivalent {"protocol": {...}, "run": {...}}; any other section
    or top-level key ([DEFAULT] too) is refused by name, as is a setting
    given twice, num-spins and num_spins being one."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        try:
            named = json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # JSONDecodeError is one
            raise ValueError(f"{path}: {exc}") from exc
        if not isinstance(named, dict):
            raise ValueError(f"{path}: expected a JSON object")
    else:
        # a "#" or ";" after a value starts a comment, as in the README example
        # no header parses as "", so [DEFAULT] is an ordinary section, refused below
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
        try:
            parser.read_string(text, source=path)
        except configparser.Error as exc:
            raise ValueError(str(exc)) from exc
        named = {name: dict(parser[name]) for name in parser.sections()}
    for name in named:
        if name not in ("protocol", "run"):
            raise ValueError(f"{path}: unknown section {name!r}; settings go under protocol or run")
    sections = [named.get("protocol", {}), named.get("run", {})]
    if not all(isinstance(section, dict) for section in sections):
        raise ValueError(f"{path}: the protocol and run sections must be JSON objects")
    settings: dict = {}
    for section in sections:
        for key, value in section.items():
            key = str(key).replace("-", "_")
            if key not in _KNOWN_KEYS:
                raise ValueError(f"unknown setting {key!r} in {path}")
            if key in settings:
                raise ValueError(f"{path}: {key} is set twice; give it once, under protocol or run")
            if key in _INT_KEYS and value is not None and not is_integer(value):
                try:
                    value = int(str(value), 10)
                except ValueError:
                    raise ValueError(f"{key} must be an integer, got {value!r}") from None
            if key in _STR_KEYS and value is not None and not isinstance(value, str):
                raise ValueError(f"{path}: {key} must be a string, got {value!r}")
            if key in _STR_KEYS and value == "":
                raise ValueError(f"{path}: {key} is empty; leave the key out for its default")
            if key == "output" and value is not None and not (isinstance(value, str) and value):
                raise ValueError(f"{path}: output must be a non-empty string, got {value!r}")
            settings[key] = value
    return settings


def build_run_config(settings: dict) -> RunConfig:
    missing = [k for k in ("kind", "num_spins", "trials", "seed") if settings.get(k) is None]
    if missing:
        raise ValueError("missing required settings: " + ", ".join(missing))
    # a setting left out or null takes ProtocolSpec's default
    given = {k: settings[k] for k in _STR_KEYS if settings.get(k) is not None}
    spec = ProtocolSpec(num_spins=settings["num_spins"], **given)
    return RunConfig(
        protocol=spec,
        trials=settings["trials"],
        seed=settings["seed"],
    )


def _resolve_output(config: RunConfig, path) -> str:
    """The record path, checked before the run so a bad one costs no trials."""
    if path:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output {path} is a directory; name the record file")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"output {path}: its directory does not exist")
        return path
    p = config.protocol
    name = f"{p.kind}-N{p.num_spins}-t{config.trials}-s{config.seed}.json"
    out_dir = os.environ.get(OUTPUT_DIR_VAR, ".")
    if not out_dir:
        raise ValueError(f"{OUTPUT_DIR_VAR} is empty; unset it to write to the current directory")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# ----------------------------------------------------------------- checks


def _check_group_axioms() -> tuple:
    # construction refuses a set not closed under products or without the identity first
    return f"order {dihedral_d3().order}: identity first, closed under products", True


def _check_chi_law() -> tuple:
    """The coherent chi law against the Born rule for 2j = 1..8, on
    Gauss-Legendre rules exact to degree 2j: the density
    (2j+1)/2 |<j; n(u)|j; z>|^2 of coherent_states equals pdf_cos and
    integrates to 1, and quantile_cos maps its CDF, integrated on the rule
    mapped onto [-1, u], back to each node u.  The Born side reads no
    ChiDensity."""
    dev = 0.0
    for n in range(1, 6):
        x, w = gauss_legendre(n)  # exact to degree 2n - 1: 2j = 2n - 2 and 2n - 1
        # the states along z, at the nodes, then at each node's CDF nodes
        u = np.concatenate(([1.0], x, (np.outer(x + 1.0, x + 1.0) / 2.0 - 1.0).ravel()))
        for tj in range(max(1, 2 * n - 2), min(2 * n, 9)):
            states = coherent_states(SpinJ(tj), np.arccos(u), np.zeros_like(u))
            born = (tj + 1) / 2.0 * np.abs(states[1:].conj() @ states[0]) ** 2
            cdf = born[n:].reshape(n, n) @ w * (x + 1.0) / 2.0
            law = chi_density(coherent_code(SpinJ(tj)))
            dev = max(dev, float(np.max(np.abs(born[:n] - law.pdf_cos(x)))),
                      abs(float(w @ born[:n]) - 1.0),
                      float(np.max(np.abs(law.quantile_cos(cdf) - x))))
    return f"2j = 1..8: density, norm, quantile deviation = {dev:.3e}", dev < 1e-12


def _check_povm(povm) -> tuple:
    report = validate_povm(povm)
    detail = (
        f"|sum E - 1| = {report.max_completeness_dev:.3e}, "
        f"min eigenvalue = {report.min_eigenvalue:.3e}"
    )
    return detail, report.passed


def _check_projectors(num_qubits: int) -> tuple:
    projectors = [total_j_projector(num_qubits, j) for j in attainable_spins(num_qubits)]
    dim = 2**num_qubits
    dev = float(np.max(np.abs(sum(projectors) - np.eye(dim))))
    for k, p in enumerate(projectors):
        dev = max(dev, float(np.max(np.abs(p @ p - p))))
        for q in projectors[k + 1 :]:
            dev = max(dev, float(np.max(np.abs(p @ q))))
    return f"idempotence, orthogonality, completeness deviation = {dev:.3e}", dev < 1e-10


# --------------------------------------------------------------- commands


def _refuse_empty(option: str, value) -> None:
    # "" is a value, not an option left out; falling back to the default would hide it
    if value == "":
        raise ValueError(f"{option} is empty; leave the option out for its default")


@click.group(name="spindir")
def cli():
    """Direction and frame transmission through spins: checks, covariant
    optima, Monte Carlo runs, and report tables."""


@cli.command("validate")
def cmd_validate():
    """Run the self-check suite and print one line per invariant."""
    sampled = covariant_direction_povm(SpinJ(4), sphere_quadrature(5, 9))
    checks = [
        ("group axioms", _check_group_axioms),
        ("coherent chi law", _check_chi_law),
        ("one-spin orbit POVM", lambda: _check_povm(d3_covariant_povm(1))),
        ("two-spin orbit POVM", lambda: _check_povm(d3_covariant_povm(2))),
        ("sampled direction POVM (spin 2)", lambda: _check_povm(sampled)),
        ("two-qubit spin projectors", lambda: _check_projectors(2)),
        ("three-qubit spin projectors", lambda: _check_projectors(3)),
    ]
    rows = []
    for name, fn in checks:
        try:
            detail, ok = fn()
        except (ValueError, RuntimeError) as exc:
            detail, ok = str(exc), False
        rows.append((name, detail, ok))
    width = max(len(name) for name, _, _ in rows)
    for name, detail, ok in rows:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = [name for name, _, ok in rows if not ok]
    if failed:
        click.echo(f"{len(failed)} of {len(rows)} checks failed: {', '.join(failed)}", err=True)
        raise click.exceptions.Exit(1)
    click.echo(f"all {len(rows)} checks passed")


def _direction_table(num_spins, max_spins) -> list:
    if num_spins is not None and max_spins is not None:
        raise ValueError("give --num-spins or --max-spins, not both")
    if num_spins is not None:
        spin_counts = [num_spins]
    else:
        top = 24 if max_spins is None else max_spins
        if top < 2:
            raise ValueError("--max-spins must be at least 2")
        spin_counts = list(range(2, top + 1, 2))
    lines = [f"{'N':>4}  {'F':<18}{'1-F':<18}{'N^2(1-F)':<18}amplitudes"]
    for n in spin_counts:
        if n < 2 or n % 2:
            raise ValueError(
                f"N = {n}: the code carries integer blocks j = 0..N/2, "
                "so N must be a positive even number"
            )
        code = optimal_direction_encoding(SpinJ(n))
        amps = code.amplitudes
        shown = " ".join(f"{a:.4f}" for a in amps[:4]) + (" ..." if len(amps) > 4 else "")
        lines.append(
            f"{n:>4d}  {code.fidelity:<18.12g}{code.infidelity:<18.12g}"
            f"{n * n * code.infidelity:<18.12g}{shown}"
        )
    return lines


def _dihedral_profile(num_spins) -> list:
    n = 2 if num_spins is None else num_spins
    score = d3_covariant_score(n)  # refuses any n but 1 and 2
    return [
        f"dihedral six-signal task on {n} spin(s)",
        f"F = {score.fidelity:.12g}",
        f"1-F = {score.infidelity:.12g}",
        "block coefficients (by block dimension): "
        + ", ".join(f"{c:.12g}" for c in score.coefficients),
    ]


@cli.command("optimize")
@click.argument("target", type=click.Choice(["direction", "dihedral"]))
@click.option("--num-spins", type=int, default=None, help="Single N (direction) or 1|2 (dihedral).")
@click.option("--max-spins", type=int, default=None, help="Direction rows for N = 2, 4, ... up to this value (default 24).")
@click.option("--out", "out_path", default=None, help="Also write the table to this file.")
def cmd_optimize(target, num_spins, max_spins, out_path):
    """Print covariant optima: the direction-code table or the dihedral profile."""
    _refuse_empty("--out", out_path)
    if target == "direction":
        lines = _direction_table(num_spins, max_spins)
    else:
        if max_spins is not None:
            raise ValueError("--max-spins applies to the direction table only")
        lines = _dihedral_profile(num_spins)
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


@cli.command("simulate")
@click.option("--config", "config_path", default=None, help="Settings file: [protocol]/[run] key = value sections, or JSON.")
@click.option("--kind", type=click.Choice(list(PROTOCOL_KINDS)), default=None)
@click.option("--num-spins", type=int, default=None)
@click.option("--encoding", default=None)
@click.option("--decoder", default=None)
@click.option("--tie-break", default=None)
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--output", "output", default=None, help="Record path (default: derived name in $SPINDIR_OUTPUT_DIR).")
def cmd_simulate(config_path, **flags):
    """Run one seeded experiment and persist its result record."""
    settings = load_settings(config_path) if config_path else {}
    for key, value in flags.items():
        _refuse_empty(f"--{key.replace('_', '-')}", value)
        if value is not None:
            settings[key] = value
    config = build_run_config(settings)
    path = _resolve_output(config, settings.get("output"))
    result = run_experiment(config)
    write_record(record_from_run(config, result), path)

    p = config.protocol
    est, err = result.estimates, result.stderrs
    line = (
        f"{p.kind} N={p.num_spins} {p.encoding}/{p.decoder} "
        f"trials={config.trials} seed={config.seed}: "
        f"fidelity {est['fidelity']:.6f} +- {err['fidelity']:.6f}"
    )
    ref = reference_score(config)
    if ref is not None:
        line += f" ({ref.method} reference {ref.fidelity:.6f})"
    elif p.kind == "d3-repeated":
        line += f" (no exact reference above N={VOTE_REFERENCE_MAX_SHOTS})"
    click.echo(line)
    if "per_axis" in est:
        expected = frame_two_axis_score(
            p.num_spins, encoding=p.encoding, fitter=p.decoder
        ).expected_per_axis_infidelity
        pairs = ", ".join(  # a one-trial run has no stderr, so no z
            f"{v:.6f} +- {e:.6f} (z {format((v - expected) / e, '+.2f') if e else 'n/a'})"
            for v, e in zip(est["per_axis"], err["per_axis"])
        )
        click.echo(f"per-axis infidelity: {pairs} (code reference {expected:.6f})")
    if "naive_failures" in est:
        click.echo(f"estimator clamps (|sin phi| > 1): {est['naive_failures']} of {config.trials}")
    click.echo(f"wrote {path}")


def _format_cell(value) -> str:
    return "" if value is None else f"{value:.12g}"


def _report_row(record: ResultRecord) -> list:
    proto = record.config["protocol"]
    est = record.result["estimates"]
    err = record.result["stderrs"]
    per_axis = est.get("per_axis")
    per_axis_mean = float(np.mean(per_axis)) if per_axis else None
    n = proto["num_spins"]
    return [
        proto["kind"],
        str(n),
        proto["encoding"],
        proto["decoder"],
        str(record.config["trials"]),
        str(record.config["seed"]),
        _format_cell(est["fidelity"]),
        _format_cell(err["fidelity"]),
        _format_cell(per_axis_mean),
        _format_cell(n * n * est["infidelity"]),
        record.result.get("stream", PHILOX_STREAM),
    ]


def _csv_report(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for record in records:
        writer.writerow(_report_row(record))
    return buf.getvalue()


def _json_report(records) -> str:
    return json.dumps([asdict(r) for r in records], sort_keys=True, indent=2) + "\n"


@cli.command("report")
@click.argument("records", nargs=-1)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", "out_path", default=None, help="Write here instead of stdout.")
def cmd_report(records, fmt, out_path):
    """Tabulate result records as plot-ready CSV or JSON.

    A D3 row's fidelity is its success probability.  A frame row's is 1
    minus the frame infidelity, 1 - sum over the three axes of
    sin^2(chi_i / 2), which lies in [-2, 1]: it is not a probability."""
    _refuse_empty("--out", out_path)
    if not records:
        raise click.UsageError("no input records given")
    loaded = [read_record(path) for path in records]
    text = _csv_report(loaded) if fmt == "csv" else _json_report(loaded)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


def main(argv=None) -> int:
    """Entry point mapping failures to the documented exit codes."""
    try:
        # without standalone mode, click returns the code of an Exit a command raised
        code = cli.main(args=argv, prog_name="spindir", standalone_mode=False)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0 if code is None else code


if __name__ == "__main__":
    raise SystemExit(main())
