import math
import re
from pathlib import Path

import pytest

from phasebit import (
    ConfigError,
    ExperimentConfig,
    PhaseModel,
    parse_angle,
    parse_angles,
    parse_config,
    serialize_config,
    validate_config,
)
from phasebit.config import KEYS, build_config, read_key_values


# ------------------------------------------------------------ angle parsing

@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", 0.0),
        ("1.5", 1.5),
        ("-0.25", -0.25),
        ("1e-3", 1e-3),
        ("pi", math.pi),
        ("PI", math.pi),
        ("-pi", -math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("2pi", 2 * math.pi),
        ("0.5pi", 0.5 * math.pi),
        (" pi / 8 ", math.pi / 8),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == expected


@pytest.mark.parametrize("bad", ["", "tau", "pi/0", "2x", "nan", "inf"])
def test_parse_angle_rejects(bad):
    with pytest.raises(ConfigError):
        parse_angle(bad)


def test_parse_angles_list():
    assert parse_angles("0, pi/2,pi") == (0.0, math.pi / 2, math.pi)
    with pytest.raises(ConfigError):
        parse_angles(" , ,")


# -------------------------------------------------------------- key=value

def test_read_key_values_comments_and_precedence():
    text = """
    # an experiment
    command = curve
    trials = 10   # inline comment
    trials = 20
    """
    assert read_key_values(text) == {"command": "curve", "trials": "20"}


def test_read_key_values_rejects_bare_words():
    with pytest.raises(ConfigError):
        read_key_values("just a line\n")


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        build_config({"command": "curve", "tirals": "10"})


def test_build_config_requires_command():
    with pytest.raises(ConfigError):
        build_config({"trials": "10"})


def test_build_config_defaults():
    config = build_config({"command": "chsh"})
    assert config.trials == 10_000
    assert config.format == "csv"
    assert config.workers == 1
    assert config.model.kind == "iid"
    assert len(config.angles) == 4


def test_env_seed_fallback(monkeypatch):
    # PHASEBIT_SEED is not read: without a seed key the seed falls back to 0
    monkeypatch.setenv("PHASEBIT_SEED", "991")
    assert build_config({"command": "curve"}).model.seed == 0
    assert build_config({"command": "curve", "seed": "5"}).model.seed == 5
    monkeypatch.delenv("PHASEBIT_SEED")
    assert build_config({"command": "curve"}).model.seed == 0


# --------------------------------------------------------------- validation

def make_config(**overrides):
    base = dict(
        command="curve",
        model=PhaseModel(seed=1),
        trials=100,
        angles=(0.0, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_validate_rejects_bad_fields():
    with pytest.raises(ConfigError):
        validate_config(make_config(trials=0))
    with pytest.raises(ConfigError):
        validate_config(make_config(workers=0))
    with pytest.raises(ConfigError):
        validate_config(make_config(workers=257))
    validate_config(make_config(workers=256))
    with pytest.raises(ConfigError):
        validate_config(make_config(format="yaml"))
    with pytest.raises(ConfigError):
        validate_config(make_config(angles=()))
    with pytest.raises(ConfigError):
        validate_config(make_config(command="teleport"))


def test_validate_trial_index_fits_int64():
    # curve over 2 angles touches trial indices below trials * 2
    validate_config(make_config(trials=2**62 - 1))
    with pytest.raises(ConfigError):
        validate_config(make_config(trials=2**62))
    # the oscillator wraps burn_in mod 2**64, so it has no upper bound
    validate_config(make_config(model=PhaseModel(kind="oscillator", burn_in=2**64 + 5)))


def test_build_config_accepts_the_largest_ensemble():
    config = build_config({"command": "curve", "kind": "oscillator", "ensemble_size": str(2**20)})
    assert config.model.ensemble_size == 2**20


def test_validate_chsh_arity():
    with pytest.raises(ConfigError):
        validate_config(make_config(command="chsh", angles=(0.0, 1.0)))
    validate_config(make_config(command="chsh", angles=(0.0, 1.0, 2.0, 3.0)))


def test_validate_init_signal_index():
    with pytest.raises(ConfigError):
        validate_config(make_config(command="init", signal_index=2))
    validate_config(make_config(command="init", signal_index=1))
    # a negative index names no qubit, whichever command reads it
    with pytest.raises(ConfigError, match="signal_index"):
        validate_config(make_config(command="curve", signal_index=-1))


# --------------------------------------------------------------- round-trip

SAMPLE_CONFIGS = [
    {"command": "curve"},
    {"command": "chsh", "seed": "42", "trials": "777", "format": "json"},
    {
        "command": "init",
        "kind": "oscillator",
        "ensemble_size": "16",
        "frequency_spread": "0.25",
        "burn_in": "100",
        "angles": "0, pi/4, pi/2",
        "signal_index": "2",
        "workers": "3",
    },
    {"command": "gates", "angles": "-pi, 0.1, 3pi/4", "out": "gates.csv"},
    {"command": "compare", "shared_trials": "false", "trials": "12345"},
    {
        "command": "chsh",
        "kind": "oscillator",
        "seed": "18446744073709551615",
        "frequency_spread": "2",
        "burn_in": "4611686018427387904",
        "angles": "0, pi/2, pi/4, 3pi/4",
        "out": "-",
        "shared_trials": "yes",
    },
]

_GRID_17 = (
    "0.0, 0.19634954084936207, 0.39269908169872414, 0.5890486225480862, "
    "0.7853981633974483, 0.9817477042468103, 1.1780972450961724, 1.3744467859455345, "
    "1.5707963267948966, 1.7671458676442586, 1.9634954084936207, 2.1598449493429825, "
    "2.356194490192345, 2.552544031041707, 2.748893571891069, 2.945243112740431, "
    "3.141592653589793"
)
_CHSH = "0.0, 1.5707963267948966, 0.7853981633974483, 2.356194490192345"


def _config_text(*pairs):
    return "".join(f"{key} = {value}\n" for key, value in pairs)


# serialize_config's bytes for each sample, as the hand-written serializer printed them
SERIALIZED = [
    _config_text(("command", "curve"), ("kind", "iid"), ("seed", 0), ("ensemble_size", 32),
          ("frequency_spread", 1.0), ("burn_in", 0), ("trials", 10000), ("angles", _GRID_17),
          ("out", "-"), ("format", "csv"), ("workers", 1), ("signal_index", 0),
          ("shared_trials", "true")),
    _config_text(("command", "chsh"), ("kind", "iid"), ("seed", 42), ("ensemble_size", 32),
          ("frequency_spread", 1.0), ("burn_in", 0), ("trials", 777), ("angles", _CHSH),
          ("out", "-"), ("format", "json"), ("workers", 1), ("signal_index", 0),
          ("shared_trials", "true")),
    _config_text(("command", "init"), ("kind", "oscillator"), ("seed", 0), ("ensemble_size", 16),
          ("frequency_spread", 0.25), ("burn_in", 100), ("trials", 10000),
          ("angles", "0.0, 0.7853981633974483, 1.5707963267948966"), ("out", "-"),
          ("format", "csv"), ("workers", 3), ("signal_index", 2), ("shared_trials", "true")),
    _config_text(("command", "gates"), ("kind", "iid"), ("seed", 0), ("ensemble_size", 32),
          ("frequency_spread", 1.0), ("burn_in", 0), ("trials", 10000),
          ("angles", "-3.141592653589793, 0.1, 2.356194490192345"), ("out", "gates.csv"),
          ("format", "csv"), ("workers", 1), ("signal_index", 0), ("shared_trials", "true")),
    _config_text(("command", "compare"), ("kind", "iid"), ("seed", 0), ("ensemble_size", 32),
          ("frequency_spread", 1.0), ("burn_in", 0), ("trials", 12345), ("angles", _GRID_17),
          ("out", "-"), ("format", "csv"), ("workers", 1), ("signal_index", 0),
          ("shared_trials", "false")),
    _config_text(("command", "chsh"), ("kind", "oscillator"), ("seed", 18446744073709551615),
          ("ensemble_size", 32), ("frequency_spread", 2.0), ("burn_in", 4611686018427387904),
          ("trials", 10000), ("angles", _CHSH), ("out", "-"), ("format", "csv"),
          ("workers", 1), ("signal_index", 0), ("shared_trials", "true")),
]


def test_samples_cover_every_key():
    assert set().union(*SAMPLE_CONFIGS) == set(KEYS)


@pytest.mark.parametrize("raw,text", zip(SAMPLE_CONFIGS, SERIALIZED))
def test_serialize_config_bytes(raw, text):
    assert serialize_config(build_config(dict(raw))) == text


@pytest.mark.parametrize("raw", SAMPLE_CONFIGS)
def test_serialize_parse_round_trip(raw):
    config = build_config(dict(raw))
    text = serialize_config(config)
    assert parse_config(text) == config
    # canonical form is a fixed point
    assert serialize_config(parse_config(text)) == text


def test_readme_lists_every_key_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    keys = re.search(r"\(keys: ([^)]*)\)", readme).group(1)
    assert re.findall(r"`(\w+)`", keys) == list(KEYS)
    synopsis = readme.split("## Command line", 1)[1].split("```")[1]
    assert all(key.flag in synopsis for key in KEYS.values() if key.flag)
