"""Byte-for-byte regression of every command and demo against checked-in outputs.

Each file directly under ``tests/golden/`` is the output of one CLI
invocation at a fixed seed, with ``--trials 70001`` so that every estimate
spans more than one 2**16-trial block.  Each file under
``tests/golden/demos/`` is the standard output of one script in ``demos/``,
run with numpy's ``RuntimeWarning``s as errors.  A change to any estimator
must reproduce these bytes for every worker count; an intended output change
regenerates them with ``PYTHONPATH=src python tests/test_golden.py`` and
says why.  The commands that import no numpy, because they hash no trial or
at most ``4 * BLOCK_TRIALS`` of them, must reproduce their files with
site-packages, and so numpy, out of reach.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from phasebit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SEED = "20030101"
TRIALS = "70001"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for model in ("iid", "oscillator"):
        for fmt in ("csv", "json"):
            common = ["--model", model, "--seed", SEED, "--trials", TRIALS, "--format", fmt]
            for command in ("curve", "chsh", "init", "gates", "compare"):
                cases[f"{command}-{model}.{fmt}"] = [command, *common]
            cases[f"chsh-independent-{model}.{fmt}"] = ["chsh", *common, "--independent-trials"]
    return cases


CASES = _cases()


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, workers, tmp_path):
    out = tmp_path / name
    assert main([*CASES[name], "--workers", workers, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# the golden configs that import no numpy: they hash no trial, or at most 4 * BLOCK_TRIALS
NUMPY_FREE = [
    f"{stem}.{fmt}"
    for stem in (
        "gates-iid", "gates-oscillator", "curve-oscillator", "chsh-oscillator",
        "chsh-independent-oscillator", "compare-oscillator", "init-oscillator", "chsh-iid",
        "init-iid",
    )
    for fmt in ("csv", "json")
]


def run_without_site(args: list[str]) -> subprocess.CompletedProcess:
    """``python -S args`` with only ``src`` on the path: numpy cannot be imported."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, env=env, timeout=120
    )


def test_package_imports_without_numpy():
    done = run_without_site(["-c", "import sys, phasebit; sys.exit('numpy' in sys.modules)"])
    assert done.returncode == 0, done.stderr


def test_the_cli_loads_no_dataclasses_inspect_pathlib_or_typing():
    # dataclasses alone would pull in inspect, ast, dis and tokenize at every start-up
    done = run_without_site(["-c", (
        "import sys\n"
        "heavy = ('dataclasses', 'inspect', 'pathlib', 'typing')\n"
        "import phasebit.cli\n"
        "print('after import:', [m for m in heavy if m in sys.modules], file=sys.stderr)\n"
        "assert phasebit.cli.main(['chsh', '--model', 'oscillator', '--trials', '1']) == 0\n"
        "print('after chsh:', [m for m in heavy if m in sys.modules], file=sys.stderr)\n"
    )])
    assert done.returncode == 0, done.stderr
    assert done.stderr == b"after import: []\nafter chsh: []\n"


def test_the_cli_loads_no_shutil_bz2_or_lzma():
    # argparse imports shutil, and with it bz2 and lzma, for a formatter without a width
    done = run_without_site(["-c", (
        "import sys\n"
        "import phasebit.cli\n"
        "assert phasebit.cli.main(['chsh', '--model', 'oscillator', '--trials', '1']) == 0\n"
        "heavy = ('shutil', 'bz2', 'lzma')\n"
        "print('after chsh:', [m for m in heavy if m in sys.modules], file=sys.stderr)\n"
    )])
    assert done.returncode == 0, done.stderr
    assert done.stderr == b"after chsh: []\n"


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["curve", "--trials", "100"], ("argparse", "gettext", "locale", "csv", "json"), ()),
        (["chsh", "--format", "json", "--trials", "100"], ("argparse", "csv"), ()),
        (["--help"], (), ("argparse",)),
    ],
    ids=["curve-csv", "chsh-json", "help"],
)
def test_a_command_loads_argparse_only_for_help_and_only_its_emitters_module(
    argv, absent, present
):
    # a plain command line is read without argparse, which loads gettext and locale
    done = run_without_site(["-c", (
        "import sys\n"
        "import phasebit.cli\n"
        "try:\n"
        f"    code = phasebit.cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "assert code == 0, code\n"
        f"print('loaded:', [m for m in {absent + present!r} if m in sys.modules], file=sys.stderr)\n"
    )])
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"loaded: {list(present)}\n".encode()


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_numpy_free_commands_match_golden_bytes_without_numpy(name):
    done = run_without_site(["-m", "phasebit", *CASES[name]])
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / name).read_bytes()


INIT8_TEXT = "0,pi/8,pi/4,3pi/8,pi/2,5pi/8,3pi/4,7pi/8"
# iid commands whose hashed windows total at most 4 * BLOCK_TRIALS = 262144 trials hash them
# in Python-int lanes; a curve hashes 15 of its 17 windows, as the products at delta = 0 and
# pi never change sign
NUMPY_FREE_IID = {
    "chsh": ["chsh", "--model", "iid", "--seed", SEED, "--trials", "65536"],
    "curve-17x3855": ["curve", "--model", "iid", "--seed", SEED, "--trials", "3855"],
    "curve-17x15420": ["curve", "--model", "iid", "--seed", SEED, "--trials", "15420"],
    "curve-17x17476": ["curve", "--model", "iid", "--seed", SEED, "--trials", "17476"],
    "compare-json": ["compare", "--model", "iid", "--seed", SEED, "--trials", "100",
                     "--format", "json"],
    "chsh-independent": ["chsh", "--model", "iid", "--seed", SEED, "--trials", "16384",
                         "--independent-trials"],
    "init-8x262144": ["init", "--model", "iid", "--seed", SEED, "--angles", INIT8_TEXT,
                      "--trials", "262144"],
}


@pytest.mark.parametrize("name", sorted(NUMPY_FREE_IID))
def test_one_block_iid_commands_print_the_numpy_bytes_without_numpy(name, tmp_path):
    out = tmp_path / name
    assert main([*NUMPY_FREE_IID[name], "--out", str(out)]) == 0  # numpy is loaded in here
    done = run_without_site(["-m", "phasebit", *NUMPY_FREE_IID[name]])
    assert done.returncode == 0, done.stderr
    assert done.stdout == out.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        # 15 hashed points * 17477 trials = 262155 trials, 11 past 4 * BLOCK_TRIALS
        ["curve", "--model", "iid", "--seed", SEED, "--trials", "17477"],
        # init hashes its one window of trials once for all its angles
        ["init", "--model", "iid", "--seed", SEED, "--angles", INIT8_TEXT, "--trials", "262145"],
    ],
    ids=["curve-17x17477", "init-8x262145"],
)
def test_an_iid_command_past_one_block_counts_with_numpy(argv, tmp_path):
    argv = [*argv, "--out", str(tmp_path / "out.csv")]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from phasebit.cli import main; "
         "assert 'numpy' not in sys.modules; assert main(sys.argv[1:]) == 0; "
         "sys.exit('numpy' not in sys.modules)", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "workload, size",
    [("short-runs", "bench"), ("short-runs", "1"), ("init-reg8", "1")],
    # a size of 1 runs each invocation at one trial, as the benchmark's set-up probe does
    ids=["short-runs-bench-trials", "short-runs-one-trial", "init-reg8-setup-probe"],
)
def test_the_workload_loads_no_numpy(workload, size):
    script = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from workloads import WORKLOADS\n"
        "from phasebit.cli import main\n"
        "trials = None if sys.argv[3] == 'bench' else int(sys.argv[3])\n"
        "for inv in WORKLOADS[sys.argv[2]].invocations:\n"
        "    assert main([*inv.argv(seed=7, trials=trials), '--out', os.devnull]) == 0\n"
        "    assert 'numpy' not in sys.modules, inv.label\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), workload, size],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def run_demo(demo: Path) -> bytes:
    """The demo's standard output; a ``RuntimeWarning`` or a failure raises."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, check=True, env=env, timeout=120,
    ).stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden_bytes(demo):
    assert run_demo(demo) == (GOLDEN / "demos" / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        if main([*argv, "--out", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"{name}: phasebit failed")
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / "demos" / f"{demo.stem}.txt").write_bytes(run_demo(demo))
