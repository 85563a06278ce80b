import math

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
from phasebit.config import build_config, read_key_values


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
    monkeypatch.setenv("PHASEBIT_SEED", "991")
    assert build_config({"command": "curve"}).model.seed == 991
    # explicit seed wins
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
        validate_config(make_config(format="yaml"))
    with pytest.raises(ConfigError):
        validate_config(make_config(angles=()))
    with pytest.raises(ConfigError):
        validate_config(make_config(command="teleport"))


def test_validate_trial_index_fits_int64():
    # curve over 2 angles touches trial indices below trials * 2, each offset by burn_in
    last = 2**63 - 1 - 100 * 2
    validate_config(make_config(model=PhaseModel(kind="oscillator", burn_in=last)))
    with pytest.raises(ConfigError):
        validate_config(make_config(model=PhaseModel(kind="oscillator", burn_in=last + 1)))
    with pytest.raises(ConfigError):
        validate_config(make_config(trials=2**62))


def test_validate_chsh_arity():
    with pytest.raises(ConfigError):
        validate_config(make_config(command="chsh", angles=(0.0, 1.0)))
    validate_config(make_config(command="chsh", angles=(0.0, 1.0, 2.0, 3.0)))


def test_validate_init_signal_index():
    with pytest.raises(ConfigError):
        validate_config(make_config(command="init", signal_index=2))
    validate_config(make_config(command="init", signal_index=1))


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
]


@pytest.mark.parametrize("raw", SAMPLE_CONFIGS)
def test_serialize_parse_round_trip(raw):
    config = build_config(dict(raw))
    text = serialize_config(config)
    assert parse_config(text) == config
    # canonical form is a fixed point
    assert serialize_config(parse_config(text)) == text
