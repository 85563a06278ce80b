import json
import math
import os
import subprocess
import sys

import pytest

from phasebit import ExperimentConfig, PhaseModel, cli
from phasebit.cli import emit_csv, main, run
from phasebit.config import COMMANDS, KEYS, build_config

CANONICAL_ANGLES = "0,pi/2,pi/4,3pi/4"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- curve

def test_curve_three_rows_exact_analytic_column(capsys):
    code, out, _ = run_cli(
        ["curve", "--angles", "0,pi/2,pi", "--trials", "10000", "--seed", "42"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta_alpha,m_analytic,m_estimated,stderr,n"
    assert len(lines) == 4
    analytic = [line.split(",")[1] for line in lines[1:]]
    assert analytic == ["1", "0", "-1"]


def test_curve_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["curve", "--trials", "2000", "--seed", "5", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_curve_workers_byte_identical(tmp_path):
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    base = ["curve", "--trials", "3001", "--seed", "8"]
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -------------------------------------------------------------------- chsh

def test_chsh_report_contains_quantum_value_and_ratio(capsys):
    code, out, _ = run_cli(
        ["chsh", "--angles", CANONICAL_ANGLES, "--trials", "100000", "--seed", "42"],
        capsys,
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "a1,a2,b1,b2,e11,e12,e21,e22,s,s_stderr,s_quantum,ratio"
    fields = dict(zip(header.split(","), row.split(",")))
    s = float(fields["s"])
    s_stderr = float(fields["s_stderr"])
    assert abs(s - 2.0) <= 4 * s_stderr
    assert abs(abs(float(fields["s_quantum"])) - 2 * math.sqrt(2)) < 1e-11
    assert float(fields["ratio"]) == pytest.approx(math.sqrt(2), abs=2e-2)


def test_chsh_json_mirrors_csv_fields(capsys):
    code, out, _ = run_cli(
        ["chsh", "--trials", "1000", "--seed", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert list(payload[0]) == [
        "a1", "a2", "b1", "b2",
        "e11", "e12", "e21", "e22",
        "s", "s_stderr", "s_quantum", "ratio",
    ]


def test_chsh_rejects_wrong_arity(capsys):
    code, _, err = run_cli(["chsh", "--angles", "0,pi"], capsys)
    assert code == 2
    assert "config error" in err


# -------------------------------------------------------------- init, gates

def test_init_signal_row_is_pure_zero(capsys):
    code, out, _ = run_cli(
        ["init", "--angles", "0,pi/4", "--trials", "20000", "--seed", "3"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "qubit,alpha,n_trials,n_accepted,p_bit0,stderr"
    signal = lines[1].split(",")
    assert signal[0] == "0" and signal[4] == "1" and signal[5] == "0"


def test_gates_truth_table(capsys):
    code, out, _ = run_cli(["gates", "--angles", "0.7"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gate,input,output"
    assert "cnot,control=1 target=0,target=1" in lines
    assert "cnot,control=0 target=1,target=1" in lines
    assert "hadamard,balanced(0.7),definite(0)" in lines
    assert "hadamard,definite(1),balanced(0.0)" in lines


# ----------------------------------------------------------------- compare

def test_compare_has_both_model_columns(capsys):
    code, out, _ = run_cli(
        ["compare", "--angles", "0,pi", "--trials", "2000", "--seed", "2"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta_alpha,m_classical,m_estimated,stderr,e_singlet,n"
    first = lines[1].split(",")
    assert first[1] == "1" and first[4] == "-1"  # opposite sign conventions at 0


# ------------------------------------------------------------ config files

def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "command = curve\nseed = 42\ntrials = 1000\nangles = 0, pi\n",
        encoding="utf-8",
    )
    code, out_file, _ = run_cli(["curve", "--config", str(cfg)], capsys)
    assert code == 0
    code, out_flag, _ = run_cli(
        ["curve", "--config", str(cfg), "--trials", "500"], capsys
    )
    assert code == 0
    assert out_file != out_flag
    assert out_flag.strip().split("\n")[1].endswith(",500")


def test_missing_config_file_is_a_config_error(capsys):
    code, _, err = run_cli(["curve", "--config", "/no/such/file.cfg"], capsys)
    assert code == 2
    assert err.startswith("phasebit: config error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("angles", ["", " ", ","])
def test_empty_angle_flag_is_a_config_error(angles, capsys):
    code, out, err = run_cli(["curve", "--trials", "10", "--angles", angles], capsys)
    assert code == 2 and out == ""
    assert err == "phasebit: config error: empty angle list\n"


def test_empty_angle_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = curve\ntrials = 10\nangles =\n", encoding="utf-8")
    code, out, err = run_cli(["curve", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err == "phasebit: config error: empty angle list\n"


def test_env_seed_matches_explicit_seed(tmp_path, monkeypatch):
    # PHASEBIT_SEED is not read: a run under it matches the explicit default seed,
    # and only --seed (or a config file's seed key) changes the output
    out_env, out_zero, out_flag = (tmp_path / f"{name}.csv" for name in ("env", "zero", "flag"))
    monkeypatch.setenv("PHASEBIT_SEED", "77")
    assert main(["curve", "--trials", "300", "--out", str(out_env)]) == 0
    monkeypatch.delenv("PHASEBIT_SEED")
    assert main(["curve", "--trials", "300", "--seed", "0", "--out", str(out_zero)]) == 0
    assert main(["curve", "--trials", "300", "--seed", "77", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_zero.read_bytes() != out_flag.read_bytes()


# -------------------------------------------------------------- exit codes

def test_out_path_in_a_missing_directory_is_a_config_error(capsys):
    code, out, err = run_cli(
        ["curve", "--trials", "100", "--out", "/nonexistent-dir/x.csv"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("phasebit: config error:") and "out path" in err


def test_empty_out_path_is_config_error(capsys):
    code, out, err = run_cli(["init", "--trials", "5", "--out", ""], capsys)
    assert code == 2 and out == ""
    assert err.startswith("phasebit: config error:") and "out path" in err


@pytest.mark.parametrize(
    "spread,size", [("1e20", "32"), ("1e-300", "32"), ("5e-324", "32"), ("1e308", "4")]
)
def test_oscillator_that_cannot_turn_is_config_error(spread, size, capsys):
    code, out, err = run_cli(
        ["curve", "--model", "oscillator", "--frequency-spread", spread, "--ensemble-size", size,
         "--trials", "20000", "--angles", "0,pi/2,pi", "--seed", "3"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("phasebit: config error:") and "frequency_spread" in err


def test_bad_seed_is_config_error(capsys):
    code, _, err = run_cli(["curve", "--seed", "not-a-number"], capsys)
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize(
    "burn_in",
    [
        "9223372036854775000",  # past the int64 range
        "10000000000000000000",  # past int64, within uint64
    ],
)
def test_burn_in_past_int64_runs(burn_in, capsys):
    code, out, err = run_cli(
        ["curve", "--model", "oscillator", "--burn-in", burn_in,
         "--angles", "0,pi/2", "--trials", "2000"],
        capsys,
    )
    assert code == 0 and err == ""
    assert out.startswith("delta_alpha,")


def test_burn_in_wraps_mod_2pow64(capsys):
    base = ["chsh", "--model", "oscillator", "--trials", "2000", "--seed", "3"]
    code, wrapped, _ = run_cli(base + ["--burn-in", str(2**64 + 5)], capsys)
    assert code == 0
    assert wrapped == run_cli(base + ["--burn-in", "5"], capsys)[1]


def test_trial_index_past_int64_is_config_error(capsys):
    # two angles draw 2 * 2**62 = 2**63 trial indices, one past int64
    code, out, err = run_cli(
        ["curve", "--angles", "0,pi/2", "--trials", str(2**62)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("phasebit: config error:") and "trials" in err


@pytest.mark.parametrize("workers", ["0", "257"])
def test_workers_outside_1_to_256_is_config_error(workers, capsys):
    code, out, err = run_cli(["curve", "--trials", "10", "--workers", workers], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("phasebit: config error:") and "workers" in err


def test_oversized_ensemble_is_config_error(capsys):
    code, out, err = run_cli(
        ["curve", "--model", "oscillator", "--ensemble-size", "1048577", "--trials", "10"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("phasebit: config error:") and "ensemble_size" in err


def test_run_validates_its_config(capsys):
    config = ExperimentConfig(
        command="chsh", model=PhaseModel(seed=0), trials=10, angles=(0.0,)
    )
    assert run(config) == 2


@pytest.mark.parametrize(
    "fields",
    [
        {"trials": 100.5},
        {"trials": 100.0},
        {"command": "init", "angles": (0.0, 1.0), "signal_index": 0.5},
        {"workers": 1.5},
        {"angles": (0.0, "x")},
        {"shared_trials": "false"},
        {"out": 5},
        {"model": "iid"},
    ],
    ids=["trials", "trials-float", "signal_index", "workers", "angle", "shared_trials", "out",
         "model"],
)
def test_run_refuses_a_library_config_with_a_non_integer_or_non_real_field(fields, capsys):
    config = ExperimentConfig(
        **{"command": "curve", "model": PhaseModel(seed=0), "trials": 10, "angles": (0.0,),
           **fields}
    )
    assert run(config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("phasebit: config error:")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_out_path_is_refused_before_any_trial(where, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(cli._RUNNERS, "curve", (lambda config: ran.append(config), "curve"))
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    code, stdout, err = run_cli(["curve", "--trials", "2000000", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == "" and err.startswith("phasebit: config error:")
    assert ran == []
    assert list(tmp_path.iterdir()) == []


# A valid value for each key that differs from its default under `init`.
FLAG_VALUES = {
    "kind": "oscillator",
    "seed": "7",
    "ensemble_size": "16",
    "frequency_spread": "0.5",
    "burn_in": "9",
    "trials": "123",
    "angles": "0, pi/4, pi/2",
    "out": "x.csv",
    "format": "json",
    "workers": "3",
    "signal_index": "1",
    "shared_trials": "false",
}


@pytest.mark.parametrize("name", [name for name, key in KEYS.items() if key.flag])
def test_flag_and_config_file_build_equal_configs(name, tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "run", lambda config: built.append(config) or 0)
    key, value = KEYS[name], FLAG_VALUES[name]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{name} = {value}\n", encoding="utf-8")
    assert main(["init", key.flag] + ([value] if key.metavar else [])) == 0
    assert main(["init", "--config", str(cfg)]) == 0
    from_flag, from_file = built
    assert from_flag == from_file != build_config({"command": "init"})


# ---------------------------------------------------------------- emitters

def test_emit_csv_empty_rows_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(("a", "b"), [], str(path))
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_emit_csv_uses_12_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    emit_csv(("x",), [(math.pi,)], str(path))
    assert path.read_text(encoding="utf-8") == "x\n3.14159265359\n"


# ------------------------------------------------------------- module entry

def test_python_m_phasebit_subprocess():
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, "-m", "phasebit", "curve", "--angles", "0,pi",
         "--trials", "100", "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("delta_alpha,")


def test_oscillator_chsh_runs_at_the_largest_trial_count_the_guard_admits():
    # 4 angles * (2**61 - 1) trials is the last count under the int64 trial index
    trials = str(2**61 - 1)
    result = subprocess.run(
        [sys.executable, "-m", "phasebit", "chsh", "--model", "oscillator",
         "--trials", trials, "--seed", "1", "--format", "json"],
        capture_output=True, text=True, env=dict(os.environ), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert abs(json.loads(result.stdout)[0]["s"]) <= 2.0


def test_importing_the_cli_loads_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, phasebit.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_every_command_has_one_runner():
    assert tuple(cli._RUNNERS) == COMMANDS
