import csv
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import argv_grid
from phasebit import ExperimentConfig, PhaseModel, cli
from phasebit.cli import emit_csv, main, run
from phasebit.config import COMMANDS, KEYS, build_config
from phasebit.phase import BLOCK_TRIALS
from phasebit.register import Balanced, VirtualRegister, initialize

CANONICAL_ANGLES = "0,pi/2,pi/4,3pi/4"
GOLDEN = Path(__file__).parent / "golden"


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


def _whole_run_init_rows(config):
    """The init rows from one ``initialize`` call over every trial.

    The reference for both of the CLI's paths: the iid windows and the
    oscillator's masked sum over the run histogram.
    """
    register = VirtualRegister(
        [Balanced(a) for a in config.angles],
        cli.make_phase_stream(config.model),
        signal_index=config.signal_index,
    )
    accepted = initialize(register, config.trials)
    n = len(accepted)
    rows = []
    for index, (q, ones) in enumerate(zip(register.qubits, accepted.sum(axis=0).tolist())):
        p_bit0 = (n - ones) / n if n else math.nan
        stderr = math.sqrt(p_bit0 * (1.0 - p_bit0) / n) if n else math.nan
        rows.append((index, q.alpha, config.trials, n, p_bit0, stderr))
    return rows


INIT_MODELS = {
    "iid": PhaseModel(kind="iid", seed=17),
    "oscillator": PhaseModel(kind="oscillator", seed=17),
    "oscillator-burn-in": PhaseModel(kind="oscillator", seed=17, burn_in=2**62 + 12345),
}


@pytest.mark.parametrize("signal_index", [0, 2], ids=["first-signal", "last-signal"])
@pytest.mark.parametrize(
    "trials",
    [
        1, 2, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 70001, 2 * BLOCK_TRIALS + 5,
        cli._INIT_WINDOW - 1, cli._INIT_WINDOW, cli._INIT_WINDOW + 1, 2 * cli._INIT_WINDOW + 5,
    ],
)
@pytest.mark.parametrize("model", INIT_MODELS.values(), ids=INIT_MODELS.keys())
def test_init_windows_give_the_rows_of_one_whole_run(model, trials, signal_index, capsys):
    config = ExperimentConfig(
        command="init", model=model, trials=trials, angles=(0.3, 2.1, -1.2),
        signal_index=signal_index,
    )
    assert run(config) == 0
    out = capsys.readouterr().out
    emit_csv(cli.INIT_FIELDS, _whole_run_init_rows(config), "-")
    assert out == capsys.readouterr().out


def test_init_holds_one_small_window():
    angles = tuple(0.4 * k for k in range(8))
    # a first run loads numpy, so the traced run allocates only what a run holds
    assert run(ExperimentConfig(command="init", model=PhaseModel(), trials=1, angles=angles)) == 0
    config = ExperimentConfig(command="init", model=PhaseModel(), trials=10**6, angles=angles)
    tracemalloc.start()
    try:
        assert run(config) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an _INIT_WINDOW window's arrays are ~0.27 MB; BLOCK_TRIALS windows took ~2.1 MB
    assert peak < 8 * BLOCK_TRIALS


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize(
    "argv, trials, bound_mb",
    [
        (["init", "--angles", "0,pi/8,pi/4,3pi/8,pi/2,5pi/8,3pi/4,7pi/8"], ("1", "2000000"), 1.5),
        # the iid curve's count kernel holds one fixed set of block buffers
        (["curve"], ("300000", "2000000"), 0.5),
    ],
    ids=["init", "curve"],
)
def test_peak_rss_does_not_grow_with_trials(argv, trials, bound_mb):
    # A child's maxrss starts at its parent's, and RUSAGE_CHILDREN reports the largest
    # child's, so each command runs under a small python -S parent of its own.
    script = (
        "import resource, subprocess, sys\n"
        "for trials in sys.argv[1:3]:\n"
        "    command = [sys.executable, '-m', 'phasebit', *sys.argv[3:], '--trials', trials]\n"
        "    subprocess.run(command, stdout=subprocess.DEVNULL, check=True)\n"
        "    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *trials, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    small, large = map(float, done.stdout.split())
    assert large - small <= bound_mb, f"{small:.2f} MB, then {large:.2f} MB"


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


def test_the_config_file_gives_the_command_when_no_positional_does(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = curve\ntrials = 100\n", encoding="utf-8")
    code, out, _ = run_cli(["--config", str(cfg)], capsys)
    assert code == 0
    assert (0, out) == run_cli(["curve", "--trials", "100"], capsys)[:2]
    # the positional wins over the key
    assert run_cli(["gates", "--config", str(cfg)], capsys)[:2] == run_cli(["gates"], capsys)[:2]


def test_a_config_file_that_starts_with_a_utf8_bom_runs(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfcommand = gates\n")
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "gates-iid.csv").read_text(encoding="utf-8")


def test_a_config_file_without_a_command_key_and_no_positional_is_a_config_error(
    tmp_path, capsys
):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials = 100\n", encoding="utf-8")
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err == "phasebit: config error: missing 'command'\n"


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"command = chsh\nseed = \xff\n")
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("phasebit: config error: cannot read config file: 'utf-8' codec")
    assert err.count("\n") == 1


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


def test_a_list_that_starts_with_a_minus_sign_is_read_after_an_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("angles = -pi/4, pi/4\n", encoding="utf-8")
    code, out_flag, _ = run_cli(["curve", "--trials", "1000", "--angles=-pi/4,pi/4"], capsys)
    assert code == 0
    assert (0, out_flag) == run_cli(["curve", "--trials", "1000", "--config", str(cfg)], capsys)[:2]


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


# ------------------------------------------------------------- the parser

OPTIONS = ["--seed", "3", "--trials", "2000", "--format", "json"]


@pytest.mark.parametrize("command", COMMANDS)
def test_options_before_the_command_give_the_bytes_of_options_after_it(command, capsys):
    code, after, _ = run_cli([command, *OPTIONS], capsys)
    assert code == 0
    assert (0, after) == run_cli([*OPTIONS, command], capsys)[:2]


@pytest.mark.parametrize("columns", [None, "40", "200"], ids=["unset", "40", "200"])
def test_help_text_wraps_to_the_terminal_width(columns, monkeypatch, capsys):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    # argparse's width: COLUMNS, else the terminal on sys.__stdout__, else 80; less 2
    width = shutil.get_terminal_size().columns - 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # the description and the command list after it are printed raw, unwrapped
    usage, _, rest = out.partition("\n\n" + cli._build_parser().description + "\n\n")
    options = rest.partition("\ncommands:\n")[0].split("\n")
    assert options[0] == "positional arguments:"
    for line in usage.split("\n") + options:
        assert len(line) <= width or len(line.split()) == 1, line  # a word is never broken
    # and filled: a help line never ends where the next line's first word would fit
    for line, following in zip(options, options[1:]):
        indent = len(following) - len(following.lstrip())
        if following and indent > 2 and indent == len(line) - len(line.lstrip()):
            assert len(line) + 1 + len(following.split()[0]) > width, (line, following)


def test_help_names_every_command_and_its_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, (_, help_text) in cli._RUNNERS.items():
        assert re.search(rf"^ +{name} +{re.escape(help_text)}$", out, re.MULTILINE)


# -------------------------------------------- the scanner against argparse

FLAGS = ["--config", *(key.flag for key in KEYS.values() if key.flag)]
VALUES = ["", "-", "-1", "pi/4", "1", "json", "iid", "0,pi/2", "a=b", " -x", "chsh"]
# argvs built from plain units (a command, a flag and its value, '--flag=value', the
# switch) and, one unit in five, a token only argparse reads or any short text
UNITS = st.one_of(
    st.tuples(st.sampled_from(COMMANDS)),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.tuples(st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES))),
    st.just(("--independent-trials",)),
    st.tuples(st.one_of(
        st.sampled_from(["--", "-h", "--help", "--tri", "--see", "--indep", "--nope", "run",
                         *FLAGS, *VALUES]),
        st.text(max_size=3),
    )),
)
ARGVS = st.lists(UNITS, max_size=5).map(lambda units: [token for unit in units for token in unit])


@settings(max_examples=600, deadline=None)
@given(ARGVS)
def test_the_scanner_reads_what_argparse_reads(argv):
    assert argv_grid.disagreement(argv) is None


def test_the_scanner_reads_what_argparse_reads_on_every_argv_of_up_to_4_tokens():
    tried, read, failures = argv_grid.check(4)
    assert (tried, failures) == (sum(len(argv_grid.ALPHABET) ** n for n in range(5)), [])
    assert read > 500


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-1", "chsh"],  # a value that starts with '-'
        ["--out", "-", "chsh"],
        ["chsh", "--tri", "5"],  # an abbreviation
        ["chsh", "curve"],  # a second command word
        ["chsh", "--trials"],  # a missing value
        ["chsh", "--independent-trials=yes"],  # a switch given '=value'
        ["--seed", "1"],  # no command and no config file
        ["--config", "", "--seed", "1"],
        ["chsh", "--", "--seed", "1"],
        ["-h"],
    ],
)
def test_the_scanner_leaves_other_command_lines_to_argparse(argv):
    assert cli._scan(argv) is None


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses reads the annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCH_ARGVS = {
    f"{name}:{inv.label}": inv.argv(seed=401)
    for name, workload in _bench_workloads().items()
    for inv in workload.invocations
}


@pytest.mark.parametrize("label", sorted(BENCH_ARGVS))
def test_the_scanner_reads_every_benchmark_command_line(label):
    argv = BENCH_ARGVS[label]
    assert cli._scan(argv) is not None
    assert argv_grid.disagreement(argv) is None


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "phasebit: error: the following arguments are required: command\n"),
        (["run", "--trials", "10"], "phasebit: error: argument command: invalid choice: 'run' "),
    ],
)
def test_a_missing_or_unknown_command_exits_2_with_the_argparse_message(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: phasebit ")
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["--tri", "100", "--seed", "1", "--format", "json", "chsh"], 0,
         ["chsh", "--trials", "100", "--seed", "1", "--format", "json"]),
        (["chsh", "--seed", "-1"], 2, "phasebit: config error: seed must be in 0.."),
        (["chsh", "--trials"], 2, "phasebit: error: argument --trials: expected one argument"),
    ],
    ids=["abbreviation", "negative-value", "missing-value"],
)
def test_command_lines_left_to_argparse_run_end_to_end(argv, code, expected, capsys):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    if code:  # the error is the last line, after argparse's usage
        assert captured.out == "" and captured.err.splitlines()[-1].startswith(expected)
    else:  # the command line reads as the one spelled out in full
        assert captured.err == ""
        assert (0, captured.out) == run_cli(expected, capsys)[:2]


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


def test_oscillator_chsh_runs_at_the_largest_ensemble(capsys):
    code, out, err = run_cli(
        ["chsh", "--model", "oscillator", "--ensemble-size", str(2**20), "--trials", "1000",
         "--seed", "1", "--format", "json"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert abs(json.loads(out)[0]["s"]) <= 2.0


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
        {"angles": 5},
        {"shared_trials": "false"},
        {"out": 5},
        {"model": "iid"},
    ],
    ids=["trials", "trials-float", "signal_index", "workers", "angle", "angles", "shared_trials",
         "out", "model"],
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


@pytest.mark.parametrize("where", ["missing-directory", "directory", "no-write-permission"])
def test_an_unwritable_out_path_is_refused_before_any_trial(where, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(cli._RUNNERS, "curve", (lambda config: ran.append(config), "curve"))
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    if where == "no-write-permission":  # root may write anywhere, so os.access is made to refuse
        monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: mode != os.W_OK)
        out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["curve", "--trials", "2000000", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == "" and err.startswith("phasebit: config error:")
    assert ran == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["name-too-long", "null-byte"])
def test_an_out_path_the_os_rejects_by_name_is_refused_before_any_trial(
    where, tmp_path, monkeypatch, capsys
):
    ran = []
    monkeypatch.setitem(cli._RUNNERS, "curve", (lambda config: ran.append(config), "curve"))
    if where == "name-too-long":  # one component past NAME_MAX, 255 bytes on Linux and macOS
        out = str(tmp_path / ("x" * 300))
        argv = ["curve", "--out", out]
    else:  # no command line can carry a NUL byte, but a config file can
        out = str(tmp_path / "a\0b.csv")
        (tmp_path / "nul.cfg").write_text(f"command = curve\nout = {out}\n", encoding="utf-8")
        argv = ["--config", str(tmp_path / "nul.cfg")]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2 and stdout == "" and ran == []
    assert err.startswith(f"phasebit: config error: out path {out!r} cannot be used: ")
    assert err.count("\n") == 1


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


# The keys that only the oscillator model reads; the iid model refuses them.
OSCILLATOR_KEYS = ("ensemble_size", "frequency_spread", "burn_in")


@pytest.mark.parametrize("name", [name for name, key in KEYS.items() if key.flag])
def test_flag_and_config_file_build_equal_configs(name, tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "run", lambda config: built.append(config) or 0)
    key, value = KEYS[name], FLAG_VALUES[name]
    model = {"kind": "oscillator"} if name in OSCILLATOR_KEYS else {}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**model, name: value}.items()),
                   encoding="utf-8")
    model_flags = ["--model", "oscillator"] if model else []
    assert main(["init", *model_flags, key.flag] + ([value] if key.metavar else [])) == 0
    assert main(["init", "--config", str(cfg)]) == 0
    from_flag, from_file = built
    assert from_flag == from_file != build_config({"command": "init", **model})


@pytest.mark.parametrize("name", OSCILLATOR_KEYS)
def test_an_oscillator_key_off_its_default_under_iid_is_config_error(name, capsys):
    argv = ["curve", "--trials", "100", "--angles", "0,1", "--seed", "1"]
    code, out, err = run_cli([*argv, KEYS[name].flag, FLAG_VALUES[name]], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"phasebit: config error: {name} applies to the oscillator model only")
    # the defaults are no error, so a serialized iid config still parses
    defaults = [f"{KEYS[n].flag}={getattr(PhaseModel(), n)}" for n in OSCILLATOR_KEYS]
    assert run_cli([*argv, *defaults], capsys)[:2] == run_cli(argv, capsys)[:2]


# ---------------------------------------------------------------- emitters

def test_emit_csv_empty_rows_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(("a", "b"), [], str(path))
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_emit_csv_uses_12_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    emit_csv(("x",), [(math.pi,)], str(path))
    assert path.read_text(encoding="utf-8") == "x\n3.14159265359\n"


def _csv_writer_text(fieldnames, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([cli._fmt(v) for v in row] for row in rows)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "--model", model, "--trials", "300", "--seed", "5"]
          for command in COMMANDS for model in ("iid", "oscillator")),
        ["gates", "--angles", "1e300,-pi,5e-324"],
        ["init", "--trials", "1", "--seed", "1"],  # nan
        ["chsh", "--angles", "0,pi/2,0,0", "--trials", "4", "--seed", "1"],  # inf
    ],
    ids=" ".join,
)
def test_emit_csv_writes_the_bytes_of_csv_writer(argv, capsys):
    config = cli._config_from_args(cli._scan(argv))
    fieldnames, rows = cli._RUNNERS[config.command][0](config)
    emit_csv(fieldnames, rows, "-")
    assert capsys.readouterr().out == _csv_writer_text(fieldnames, rows)


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_the_cli_asks_openblas_for_one_thread_unless_the_user_set_it():
    script = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import phasebit, phasebit.cli\n"
        "assert dict(os.environ) == before\n"
        "assert phasebit.cli.main(['curve', '--trials', '100000', '--out', os.devnull]) == 0\n"
        "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )

    def numpy_loaded_threads_and_variable(env):
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert numpy_loaded_threads_and_variable(env) == ["True", "1", "1"]
    assert numpy_loaded_threads_and_variable({**env, "OPENBLAS_NUM_THREADS": "2"})[2] == "2"


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


def test_oscillator_init_counts_10_to_the_15_trials_in_closed_form():
    trials = 10**15
    result = subprocess.run(
        [sys.executable, "-m", "phasebit", "init", "--model", "oscillator",
         "--trials", str(trials), "--seed", "1", "--format", "json"],
        capture_output=True, text=True, env=dict(os.environ), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)
    assert [row["n_trials"] for row in rows] == [trials, trials]
    assert 0.49 * trials < rows[0]["n_accepted"] < 0.51 * trials


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
