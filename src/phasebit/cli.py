"""Command-line experiment runner with deterministic CSV/JSON output.

Every experiment is a pure function of its configuration: rerunning the
same config reproduces the output byte for byte.  ``--workers`` is only
range-checked: no command splits its trials by it, so it never changes the
output.  Floats are printed with 12 significant digits, CSV rows end in a
line feed, and JSON mirrors the CSV columns as an array of objects.

:func:`main` reads a plain command line itself, to the same values argparse
gives: one command word, the exact flags of ``KEYS`` and ``--config`` with
their values, and the ``--independent-trials`` switch.  argparse, which
loads ``gettext``, ``locale`` and ``shutil``, is imported only for every
other command line: ``--help``, abbreviations, a value that starts with
``-`` and every usage error.  No field can hold a comma, a quote or a line
break, so a CSV line is its fields joined by commas, and only JSON imports
a module to write with: :func:`emit_json` imports ``json`` itself.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence

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
from .phase import BLOCK_TRIALS, OSCILLATOR_ENSEMBLE, make_phase_stream
from .register import Balanced, Definite, VirtualRegister, cnot, hadamard, initialize
from .signals import run_counts
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

# The iid ``init`` window: its largest per-window array, 8 B x 8192 = 64 KB,
# stays below glibc's 128 KB mmap threshold, so each window reuses heap
# memory instead of faulting fresh pages in.  At 1e6 trials on 8 qubits
# (2 shared vCPUs, Python 3.11, numpy 2.4) the process's peak RSS, median
# of 14 runs, read 31.54 MB at 2**16, 29.67 MB at 2**14, 29.28 MB here and
# 29.17 MB at 2**12, against 28.80 MB for one trial; 2**12 ran about 10%
# slower.
_INIT_WINDOW = BLOCK_TRIALS // 8


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
    # a field is a field name, a number or a gates label: none needs quoting
    _write_text(out_path, "".join(",".join(map(_fmt, row)) + "\n" for row in [fieldnames, *rows]))


def emit_json(fieldnames: Sequence[str], rows: Sequence[Sequence], out_path: str) -> None:
    """Write the same table as an array of objects with identical field names."""
    import json

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
    """Post-select ``config.trials`` trials and report each qubit's bit-0 rate.

    The ``oscillator`` counts in closed form, so its trials are one
    :func:`run_counts` call over all the register's angles, a masked sum
    that draws no phase.  Let ``acc`` be the runs on which the signal qubit
    reads +1: ``n_accepted`` is the trial count on ``acc``, and a qubit's
    count of ones the trial count on those runs of ``acc`` where it reads
    -1.  That takes milliseconds at any ``--trials`` and imports no numpy.

    The ``iid`` register is post-selected by :func:`initialize` one window
    of ``_INIT_WINDOW`` (8192) trials at a time.  Each call on the same
    register advances its stream's cursor, so the windows walk the trials
    of one whole-run call in the same order.  Only each window's accepted
    count and ones per qubit are kept, as Python ints, so the command holds
    one window of accepted records and its memory is O(``_INIT_WINDOW``) at
    any ``--trials``.  The window is an eighth of ``BLOCK_TRIALS`` so that
    every per-window array fits under glibc's mmap threshold and is reused
    from the heap rather than faulted in again for each window.
    """
    stream = make_phase_stream(config.model)
    register = VirtualRegister(
        [Balanced(a) for a in config.angles], stream, signal_index=config.signal_index
    )
    if config.model.kind == OSCILLATOR_ENSEMBLE:
        ((runs, signs),) = run_counts([(stream, config.angles, config.trials)])
        acc = [i for i, green in enumerate(signs[config.signal_index]) if green > 0]
        n_accepted = sum(runs[i] for i in acc)
        ones_per_qubit = [sum(runs[i] for i in acc if q_signs[i] < 0) for q_signs in signs]
    else:
        n_accepted = 0
        ones_per_qubit = [0] * len(register.qubits)
        for done in range(0, config.trials, _INIT_WINDOW):
            accepted = initialize(register, min(_INIT_WINDOW, config.trials - done))
            n_accepted += len(accepted)
            ones_per_qubit = [
                total + ones
                for total, ones in zip(ones_per_qubit, accepted.sum(axis=0).tolist())
            ]
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
    try:  # a name the OS rejects: too long a component, or a NUL byte
        os.stat(out_path)
    except (FileNotFoundError, NotADirectoryError):
        pass  # no file yet, or no directory to hold it: the checks below
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", exc)  # an OSError's message repeats the path
        raise ConfigError(f"out path {out_path!r} cannot be used: {reason}") from None
    if os.path.isdir(out_path):
        raise ConfigError(f"out path {out_path!r} is a directory")
    directory = os.path.dirname(out_path) or os.curdir
    if not os.path.isdir(directory):
        raise ConfigError(f"out path {out_path!r} is not in an existing directory")
    if not os.access(out_path if os.path.exists(out_path) else directory, os.W_OK):
        raise ConfigError(f"out path {out_path!r} is not writable")


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
    import argparse

    parser = argparse.ArgumentParser(
        prog="phasebit",
        description="Deterministic experiments on shared-phase dichotomic signals.",
        epilog="commands:" + "".join(f"\n  {n:<9} {h}" for n, (_, h) in _RUNNERS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    for name, key in KEYS.items():
        if key.flag is None:  # the command: a positional, else the config file's key
            parser.add_argument(
                name, nargs="?", choices=_RUNNERS,
                help="the command to run; without it, the config file's command key",
            )
        elif key.metavar is None:  # a switch
            parser.add_argument(
                key.flag, dest=name, action="store_const", const="false", help=key.help
            )
        else:
            parser.add_argument(key.flag, dest=name, metavar=key.metavar, help=key.help)
    return parser


# Each option flag of the command line: its name in ``KEYS`` (or ``config``) and
# whether it takes a value; a flag without one is a switch that sets its key to false.
_OPTIONS = {
    "--config": ("config", True),
    **{key.flag: (name, key.metavar is not None) for name, key in KEYS.items() if key.flag},
}


def _scan(argv: Sequence[str]) -> dict[str, str] | None:
    """The options of a plain command line, as argparse would read them; else None.

    Plain is: at most one command word; ``--config`` or an exact ``KEYS`` flag,
    followed by a separate value that does not start with ``-`` or joined to
    its value by ``=``; and the ``--independent-trials`` switch without ``=``.
    A command line without a command word needs a non-empty ``--config``.
    argparse reads every other command line (help, abbreviations, a value that
    starts with ``-``, ``--``, every error), so it stays the one source of help
    text and usage errors.
    """
    options: dict[str, str] = {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if "command" in options or token not in _RUNNERS:
                return None
            options["command"] = token
            continue
        flag, equals, value = token.partition("=")
        if flag not in _OPTIONS:
            return None
        name, takes_value = _OPTIONS[flag]
        if not takes_value:
            if equals:
                return None
            value = "false"
        elif not equals:
            value = next(tokens, "-")  # a missing value reads as one argparse declines
            if value.startswith("-"):
                return None
        options[name] = value
    if "command" not in options and not options.get("config"):
        return None
    return options


def _config_from_args(options: dict[str, str | None]) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if options.get("config"):
        try:
            with open(options["config"], encoding="utf-8-sig") as fh:  # a leading BOM is no key
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise ConfigError(f"cannot read config file: {exc}") from None
        raw = read_key_values(text)
    raw.update(
        (name, value) for name, value in options.items() if name in KEYS and value is not None
    )
    return build_config(raw)


def main(argv: Sequence[str] | None = None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no BLAS call here; its pool only spins
    options = _scan(sys.argv[1:] if argv is None else argv)
    if options is None:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command is None and not args.config:
            parser.error("the following arguments are required: command")
        options = vars(args)
    try:
        config = _config_from_args(options)
    except ConfigError as exc:
        print(f"phasebit: config error: {exc}", file=sys.stderr)
        return 2
    return run(config)
