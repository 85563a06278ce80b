"""Command-line experiment runner with deterministic CSV/JSON output.

Every experiment is a pure function of its configuration: rerunning the
same config (or changing ``--workers``) reproduces the output byte for
byte.  Floats are printed with 12 significant digits, CSV rows end in a
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
    COMMANDS,
    FORMATS,
    MODEL_KINDS,
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
    points = correlation_curve(
        config.model, config.angles, config.trials, workers=config.workers
    )
    rows = [
        (p.delta, p.analytic, p.estimated.mean, p.estimated.stderr, p.estimated.n)
        for p in points
    ]
    return CURVE_FIELDS, rows


def _run_chsh(config: ExperimentConfig):
    a1, a2, b1, b2 = config.angles
    result = chsh_classical(
        config.model, a1, a2, b1, b2, config.trials,
        shared_trials=config.shared_trials, workers=config.workers,
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
    records = initialize(register, config.trials)
    n_accepted = len(records)
    rows = []
    for q, alpha in enumerate(register.angles):
        ones = sum(rec.bits[q] for rec in records)
        if n_accepted:
            p_bit0 = (n_accepted - ones) / n_accepted
            stderr = math.sqrt(p_bit0 * (1.0 - p_bit0) / n_accepted)
        else:
            p_bit0 = math.nan
            stderr = math.nan
        rows.append((q, alpha, config.trials, n_accepted, p_bit0, stderr))
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
    "curve": _run_curve,
    "chsh": _run_chsh,
    "init": _run_init,
    "gates": _run_gates,
    "compare": _run_compare,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code (0, 1 or 2)."""
    try:
        config = validate_config(config)
    except ConfigError as exc:
        print(f"phasebit: config error: {exc}", file=sys.stderr)
        return 2
    try:
        fieldnames, rows = _RUNNERS[config.command](config)
        if config.format == "csv":
            emit_csv(fieldnames, rows, config.out_path)
        else:
            emit_json(fieldnames, rows, config.out_path)
    except Exception as exc:
        print(f"phasebit: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--seed", metavar="N", help="64-bit generator seed (default: $PHASEBIT_SEED, then 0)")
    common.add_argument("--trials", metavar="N", help="samples per estimate (default 10000)")
    common.add_argument("--model", metavar="KIND", help=f"phase model kind: {' | '.join(MODEL_KINDS)}")
    common.add_argument("--angles", metavar="LIST", help="comma-separated angles; 'pi' forms allowed, e.g. 0,pi/4,pi/2")
    common.add_argument("--out", metavar="PATH", help="output file, '-' for stdout (default)")
    common.add_argument("--format", metavar="FMT", help=f"output format: {' | '.join(FORMATS)}")
    common.add_argument("--workers", metavar="N", help="substream partition count; never changes results")
    common.add_argument("--ensemble-size", metavar="N", help="oscillator count for the oscillator model")
    common.add_argument("--frequency-spread", metavar="X", help="oscillator rate upper bound")
    common.add_argument("--burn-in", metavar="N", help="oscillator samples discarded before output")
    common.add_argument("--signal-index", metavar="N", help="which qubit gates acceptance (init)")
    common.add_argument("--independent-trials", action="store_true",
                        help="estimate each CHSH correlator on its own trials")

    parser = argparse.ArgumentParser(
        prog="phasebit",
        description="Deterministic experiments on shared-phase dichotomic signals.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("curve", parents=[common],
                          help="correlation vs angle separation, estimated and exact")
    subparsers.add_parser("chsh", parents=[common],
                          help="classical CHSH estimate next to the exact quantum value")
    subparsers.add_parser("init", parents=[common],
                          help="post-selected register initialization statistics")
    subparsers.add_parser("gates", parents=[common],
                          help="CNOT truth table and Hadamard rules on qubit states")
    subparsers.add_parser("compare", parents=[common],
                          help="classical triangle vs quantum cosine correlation curves")
    return parser


_FLAG_KEYS = (
    ("seed", "seed"),
    ("trials", "trials"),
    ("model", "kind"),
    ("angles", "angles"),
    ("out", "out"),
    ("format", "format"),
    ("workers", "workers"),
    ("ensemble_size", "ensemble_size"),
    ("frequency_spread", "frequency_spread"),
    ("burn_in", "burn_in"),
    ("signal_index", "signal_index"),
)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        raw = read_key_values(text)
    raw["command"] = args.command
    for attr, key in _FLAG_KEYS:
        value = getattr(args, attr)
        if value is not None:
            raw[key] = value
    if args.independent_trials:
        raw["shared_trials"] = "false"
    return build_config(raw)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"phasebit: config error: {exc}", file=sys.stderr)
        return 2
    return run(config)
