"""Command-line experiment runner with deterministic CSV/JSON output.

Every experiment is a pure function of its configuration: rerunning the
same config reproduces the output byte for byte.  ``--workers`` is only
range-checked: no command splits its trials by it, so it never changes the
output.  Floats are printed with 12 significant digits, CSV rows end in a
line feed, and JSON mirrors the CSV columns as an array of objects.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .config import (
    KEYS,
    STDOUT_SENTINEL,
    ConfigError,
    ExperimentConfig,
    build_config,
    read_key_values,
    validate_config,
)
from .oracle import chsh_quantum, singlet_correlation
from .phase import make_phase_stream
from .register import Balanced, Definite, VirtualRegister, cnot, hadamard, initialize
from .stats import chsh_classical, correlation_curve

CURVE_FIELDS = ("delta_alpha", "m_analytic", "m_estimated", "stderr", "n")
CHSH_FIELDS = (
    "a1", "a2", "b1", "b2",
    "e11", "e12", "e21", "e22",
    "s", "s_stderr", "s_quantum", "ratio",
)
INIT_FIELDS = ("qubit", "alpha", "n_trials", "n_accepted", "p_bit0", "stderr")
GATES_FIELDS = ("gate", "input", "output")
COMPARE_FIELDS = ("delta_alpha", "m_classical", "m_estimated", "stderr", "e_singlet", "n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(format(value, ".12g"))
    return value


def _write_text(out_path: str, data: str) -> None:
    if out_path == STDOUT_SENTINEL:
        sys.stdout.write(data)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)


def emit_csv(fieldnames: Sequence[str], rows: Sequence[Sequence], out_path: str) -> None:
    """Write UTF-8 CSV: header first, LF line endings, floats at 12 digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_text(out_path, buffer.getvalue())


def emit_json(fieldnames: Sequence[str], rows: Sequence[Sequence], out_path: str) -> None:
    """Write the same table as an array of objects with identical field names."""
    payload = [
        {name: _json_value(v) for name, v in zip(fieldnames, row)} for row in rows
    ]
    _write_text(out_path, json.dumps(payload, indent=2) + "\n")


def _run_curve(config: ExperimentConfig):
    points = correlation_curve(config.model, config.angles, config.trials)
    rows = [
        (p.delta, p.analytic, p.estimated.mean, p.estimated.stderr, p.estimated.n)
        for p in points
    ]
    return CURVE_FIELDS, rows


def _run_chsh(config: ExperimentConfig):
    a1, a2, b1, b2 = config.angles
    result = chsh_classical(
        config.model, a1, a2, b1, b2, config.trials, shared_trials=config.shared_trials
    )
    s_quantum = chsh_quantum(a1, a2, b1, b2)
    # magnitude gap; the two models anchor opposite signs at equal settings
    ratio = abs(s_quantum) / abs(result.s_value) if result.s_value != 0.0 else math.inf
    e11, e12, e21, e22 = (term.mean for term in result.terms)
    row = (
        a1, a2, b1, b2,
        e11, e12, e21, e22,
        result.s_value, result.s_stderr, s_quantum, ratio,
    )
    return CHSH_FIELDS, [row]


def _run_init(config: ExperimentConfig):
    stream = make_phase_stream(config.model)
    register = VirtualRegister(
        [Balanced(a) for a in config.angles], stream, signal_index=config.signal_index
    )
    accepted = initialize(register, config.trials)
    n_accepted = len(accepted)
    ones_per_qubit = accepted.bits.sum(axis=1).tolist()
    rows = []
    for index, (q, ones) in enumerate(zip(register.qubits, ones_per_qubit)):
        if n_accepted:
            p_bit0 = (n_accepted - ones) / n_accepted
            stderr = math.sqrt(p_bit0 * (1.0 - p_bit0) / n_accepted)
        else:
            p_bit0 = math.nan
            stderr = math.nan
        rows.append((index, q.alpha, config.trials, n_accepted, p_bit0, stderr))
    return INIT_FIELDS, rows


def _qubit_label(q) -> str:
    if isinstance(q, Definite):
        return f"definite({q.bit})"
    return f"balanced({q.alpha!r})"


def _run_gates(config: ExperimentConfig):
    rows = []
    for control in (0, 1):
        for target in (0, 1):
            rows.append(
                ("cnot", f"control={control} target={target}", f"target={cnot(control, target)}")
            )
    for alpha in config.angles:
        q = Balanced(alpha)
        rows.append(("hadamard", _qubit_label(q), _qubit_label(hadamard(q))))
    for bit in (0, 1):
        q = Definite(bit)
        rows.append(("hadamard", _qubit_label(q), _qubit_label(hadamard(q))))
    return GATES_FIELDS, rows


def _run_compare(config: ExperimentConfig):
    _, rows = _run_curve(config)
    rows = [(*row[:4], singlet_correlation(0.0, row[0]), row[4]) for row in rows]
    return COMPARE_FIELDS, rows


_RUNNERS = {
    "curve": (_run_curve, "correlation vs angle separation, estimated and exact"),
    "chsh": (_run_chsh, "classical CHSH estimate next to the exact quantum value"),
    "init": (_run_init, "post-selected register initialization statistics"),
    "gates": (_run_gates, "CNOT truth table and Hadamard rules on qubit states"),
    "compare": (_run_compare, "classical triangle vs quantum cosine correlation curves"),
}


def _check_out(out_path: str) -> None:
    """Refuse an output path that cannot be written, before any trial is counted."""
    if out_path == STDOUT_SENTINEL:
        return
    path = Path(out_path)
    if path.is_dir():
        raise ConfigError(f"out path {out_path!r} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"out path {out_path!r} is not in an existing directory")


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code (0, 1 or 2)."""
    try:
        config = validate_config(config)
        _check_out(config.out)
    except ConfigError as exc:
        print(f"phasebit: config error: {exc}", file=sys.stderr)
        return 2
    try:
        fieldnames, rows = _RUNNERS[config.command][0](config)
        if config.format == "csv":
            emit_csv(fieldnames, rows, config.out)
        else:
            emit_json(fieldnames, rows, config.out)
    except Exception as exc:
        print(f"phasebit: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    for name, key in KEYS.items():
        if key.flag is None:  # set by the subcommand
            command = name
        elif key.metavar is None:  # a switch
            common.add_argument(
                key.flag, dest=name, action="store_const", const="false", help=key.help
            )
        else:
            common.add_argument(key.flag, dest=name, metavar=key.metavar, help=key.help)

    parser = argparse.ArgumentParser(
        prog="phasebit",
        description="Deterministic experiments on shared-phase dichotomic signals.",
    )
    subparsers = parser.add_subparsers(dest=command, required=True)
    for name, (_, help_text) in _RUNNERS.items():
        subparsers.add_parser(name, parents=[common], help=help_text)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        raw = read_key_values(text)
    raw.update(
        (name, value) for name, value in vars(args).items() if name in KEYS and value is not None
    )
    return build_config(raw)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"phasebit: config error: {exc}", file=sys.stderr)
        return 2
    return run(config)
