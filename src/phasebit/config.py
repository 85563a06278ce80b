"""Experiment configuration: flat key-value files plus override merging.

Config files are plain ``key = value`` lines (``#`` comments allowed).
Angles accept decimal radians or small pi expressions such as ``pi/2``,
``3pi/4`` and ``-pi``.  ``serialize_config`` emits a canonical form that
round-trips exactly through ``parse_config``.  ``KEYS`` lists every key once.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Mapping, NamedTuple

from .phase import IID_UNIFORM, OSCILLATOR_ENSEMBLE, PhaseModel, checked_int


class ConfigError(ValueError):
    """Invalid experiment configuration or config-file syntax."""


COMMANDS = ("curve", "chsh", "init", "gates", "compare")
FORMATS = ("csv", "json")
MODEL_KINDS = (IID_UNIFORM, OSCILLATOR_ENSEMBLE)
STDOUT_SENTINEL = "-"
# Bound of the ``workers`` key, which no command partitions its trials by.
MAX_WORKERS = 256

_GRID_17 = tuple(k * math.pi / 16 for k in range(17))
_DEFAULT_ANGLES = {
    "curve": _GRID_17,
    "compare": _GRID_17,
    "chsh": (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4),
    "init": (0.0, math.pi / 4),
    "gates": (0.0, math.pi / 4),
}

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+\.?\d*|\.\d+)?\s*pi\s*(?:/\s*(\d+\.?\d*|\.\d+))?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    model: PhaseModel
    trials: int
    angles: tuple[float, ...]
    out: str = STDOUT_SENTINEL
    format: str = "csv"
    workers: int = 1
    signal_index: int = 0
    shared_trials: bool = True


def parse_angle(text: str) -> float:
    """Parse one angle: a float literal or a pi expression like ``3pi/4``."""
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise ConfigError(f"zero divisor in angle {text!r}")
        return sign * coef * math.pi / div
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"angle must be finite, got {text!r}")
    return value


def parse_angles(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError("empty angle list")
    return tuple(parse_angle(item) for item in items)


def default_angles(command: str) -> tuple[float, ...]:
    try:
        return _DEFAULT_ANGLES[command]
    except KeyError:
        raise ConfigError(f"unknown command {command!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


# What a text parser's ValueError says the text should have been.
_EXPECTED = {int: "an integer", float: "a number", _parse_bool: "true or false"}


class Key(NamedTuple):
    """How one config key is read from text and set on the command line.

    A key without a flag is set by the subcommand; a flag without a
    metavar is a switch that sets its key to false.
    """

    parse: Callable[[str], Any]
    flag: str | None = None
    metavar: str | None = None
    help: str | None = None


# Every config key in canonical order, the order of the dataclass fields.
KEYS = {
    "command": Key(str),
    "kind": Key(str, "--model", "KIND", f"phase model kind: {' | '.join(MODEL_KINDS)}"),
    "seed": Key(int, "--seed", "N", "64-bit generator seed (default 0)"),
    "ensemble_size": Key(int, "--ensemble-size", "N", "oscillator count for the oscillator model"),
    "frequency_spread": Key(float, "--frequency-spread", "X", "oscillator rate upper bound"),
    "burn_in": Key(int, "--burn-in", "N", "oscillator samples discarded before output"),
    "trials": Key(int, "--trials", "N", "samples per estimate (default 10000)"),
    "angles": Key(parse_angles, "--angles", "LIST",
                  "comma-separated angles; 'pi' forms allowed, e.g. 0,pi/4,pi/2"),
    "out": Key(str, "--out", "PATH", "output file, '-' for stdout (default)"),
    "format": Key(str, "--format", "FMT", f"output format: {' | '.join(FORMATS)}"),
    "workers": Key(int, "--workers", "N",
                   f"1..{MAX_WORKERS}; validated here only: no command splits its trials "
                   "by it, so it never changes results"),
    "signal_index": Key(int, "--signal-index", "N", "which qubit gates acceptance (init)"),
    "shared_trials": Key(_parse_bool, "--independent-trials",
                         help="estimate each CHSH correlator on its own trials"),
}


def read_key_values(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later occurrences of a key win."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_config(raw: Mapping[str, str]) -> ExperimentConfig:
    """Assemble and validate a config from merged key-value text."""
    unknown = sorted(set(raw) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for name, key in KEYS.items():
        text = raw.get(name)
        if text is None:
            continue
        try:
            values[name] = key.parse(text)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{name} must be {_EXPECTED[key.parse]}, got {text!r}") from None
    model_values = {f.name: values.pop(f.name) for f in fields(PhaseModel) if f.name in values}
    try:
        model = PhaseModel(**model_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return validate_config(_experiment(model=model, **values))


def _experiment(*, command=None, trials=10_000, angles=None, **values) -> ExperimentConfig:
    """The config from parsed fields, plus the two fallbacks no dataclass default gives."""
    if command is None:
        raise ConfigError("missing 'command'")
    angles = angles or default_angles(command)
    return ExperimentConfig(command, trials=trials, angles=angles, **values)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check field types and cross-field constraints; returns the config unchanged."""
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.format not in FORMATS:
        raise ConfigError(f"unknown format {config.format!r}; expected one of {FORMATS}")
    if not isinstance(config.model, PhaseModel):
        raise ConfigError(f"model must be a PhaseModel, got {config.model!r}")
    if not isinstance(config.out, str):
        raise ConfigError(f"out path must be a string, got {config.out!r}")
    if not config.out:
        raise ConfigError(f"out path must not be empty; use {STDOUT_SENTINEL!r} for stdout")
    if not isinstance(config.shared_trials, bool):
        raise ConfigError(f"shared_trials must be true or false, got {config.shared_trials!r}")
    if not config.angles:
        raise ConfigError("angle list must not be empty")
    if any(not isinstance(a, numbers.Real) for a in config.angles):
        raise ConfigError("angles must be real numbers")
    if any(not math.isfinite(a) for a in config.angles):
        raise ConfigError("angles must be finite")
    # only init reads signal_index: the qubit of its register that gates acceptance
    last_qubit = len(config.angles) - 1 if config.command == "init" else None
    try:
        trials = checked_int("trials", config.trials, 1)
        checked_int("workers", config.workers, 1, MAX_WORKERS)
        checked_int("signal_index", config.signal_index, 0, last_qubit)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    # the oscillator wraps burn_in mod 2**64, so only the trial count can overflow
    if trials * len(config.angles) > 2**63 - 1:
        raise ConfigError("trials * len(angles) exceeds the int64 trial index")
    if config.command == "chsh" and len(config.angles) != 4:
        raise ConfigError(
            f"chsh needs exactly 4 angles (a1, a2, b1, b2), got {len(config.angles)}"
        )
    return config


def parse_config(text: str) -> ExperimentConfig:
    return build_config(read_key_values(text))


def _text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(a) for a in value)
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical config text; ``parse_config`` inverts it exactly."""
    values = asdict(config)
    values.update(values.pop("model"))
    return "".join(f"{name} = {_text(values[name])}\n" for name in KEYS)
