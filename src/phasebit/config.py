"""Experiment configuration: flat key-value files plus override merging.

Config files are plain ``key = value`` lines (``#`` comments allowed).
Angles accept decimal radians or small pi expressions such as ``pi/2``,
``3pi/4`` and ``-pi``.  ``serialize_config`` emits a canonical form that
round-trips exactly through ``parse_config``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Mapping

from .phase import IID_UNIFORM, OSCILLATOR_ENSEMBLE, PhaseModel


class ConfigError(ValueError):
    """Invalid experiment configuration or config-file syntax."""


COMMANDS = ("curve", "chsh", "init", "gates", "compare")
FORMATS = ("csv", "json")
MODEL_KINDS = (IID_UNIFORM, OSCILLATOR_ENSEMBLE)
STDOUT_SENTINEL = "-"
ENV_SEED = "PHASEBIT_SEED"

_KEYS = (
    "command",
    "kind",
    "seed",
    "ensemble_size",
    "frequency_spread",
    "burn_in",
    "trials",
    "angles",
    "out",
    "format",
    "workers",
    "signal_index",
    "shared_trials",
)

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
    out_path: str = STDOUT_SENTINEL
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


def _parse_int(raw: Mapping[str, str], key: str, default: int) -> int:
    text = raw.get(key)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


def _parse_float(raw: Mapping[str, str], key: str, default: float) -> float:
    text = raw.get(key)
    if text is None:
        return default
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def _parse_bool(raw: Mapping[str, str], key: str, default: bool) -> bool:
    text = raw.get(key)
    if text is None:
        return default
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {text!r}")


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
    """Assemble and validate a config from merged key-value text.

    The seed falls back to the ``PHASEBIT_SEED`` environment variable when
    absent from ``raw``, and to 0 after that.
    """
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    command = raw.get("command")
    if command is None:
        raise ConfigError("missing 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")

    kind = raw.get("kind", IID_UNIFORM)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    seed_text = raw.get("seed", os.environ.get(ENV_SEED))
    seed = 0
    if seed_text is not None:
        try:
            seed = int(seed_text)
        except ValueError:
            raise ConfigError(f"seed must be an integer, got {seed_text!r}") from None
    try:
        model = PhaseModel(
            kind=kind,
            seed=seed,
            ensemble_size=_parse_int(raw, "ensemble_size", 32),
            frequency_spread=_parse_float(raw, "frequency_spread", 1.0),
            burn_in=_parse_int(raw, "burn_in", 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    angles_text = raw.get("angles")
    angles = parse_angles(angles_text) if angles_text else default_angles(command)
    config = ExperimentConfig(
        command=command,
        model=model,
        trials=_parse_int(raw, "trials", 10_000),
        angles=angles,
        out_path=raw.get("out", STDOUT_SENTINEL),
        format=raw.get("format", "csv"),
        workers=_parse_int(raw, "workers", 1),
        signal_index=_parse_int(raw, "signal_index", 0),
        shared_trials=_parse_bool(raw, "shared_trials", True),
    )
    return validate_config(config)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check cross-field constraints; returns the config unchanged."""
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.format not in FORMATS:
        raise ConfigError(f"unknown format {config.format!r}; expected one of {FORMATS}")
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if not config.angles:
        raise ConfigError("angle list must not be empty")
    if any(not math.isfinite(a) for a in config.angles):
        raise ConfigError("angles must be finite")
    if config.model.burn_in + config.trials * len(config.angles) > 2**63 - 1:
        raise ConfigError("burn_in + trials * len(angles) exceeds the int64 trial index")
    if config.command == "chsh" and len(config.angles) != 4:
        raise ConfigError(
            f"chsh needs exactly 4 angles (a1, a2, b1, b2), got {len(config.angles)}"
        )
    if config.command == "init" and not 0 <= config.signal_index < len(config.angles):
        raise ConfigError(
            f"signal_index {config.signal_index} outside the {len(config.angles)}-qubit register"
        )
    return config


def parse_config(text: str) -> ExperimentConfig:
    return build_config(read_key_values(text))


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical config text; ``parse_config`` inverts it exactly."""
    lines = [
        f"command = {config.command}",
        f"kind = {config.model.kind}",
        f"seed = {config.model.seed}",
        f"ensemble_size = {config.model.ensemble_size}",
        f"frequency_spread = {config.model.frequency_spread!r}",
        f"burn_in = {config.model.burn_in}",
        f"trials = {config.trials}",
        "angles = " + ", ".join(repr(a) for a in config.angles),
        f"out = {config.out_path}",
        f"format = {config.format}",
        f"workers = {config.workers}",
        f"signal_index = {config.signal_index}",
        f"shared_trials = {'true' if config.shared_trials else 'false'}",
    ]
    return "\n".join(lines) + "\n"
