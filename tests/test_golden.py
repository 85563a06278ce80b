"""Byte-for-byte regression of every command and demo against checked-in outputs.

Each file directly under ``tests/golden/`` is the output of one CLI
invocation at a fixed seed, with ``--trials 70001`` so that every estimate
spans more than one 2**16-trial block.  Each file under
``tests/golden/demos/`` is the standard output of one script in ``demos/``,
run with numpy's ``RuntimeWarning``s as errors.  A change to any estimator
must reproduce these bytes for every worker count; an intended output change
regenerates them with ``PYTHONPATH=src python tests/test_golden.py`` and
says why.  The commands that hash no trial must reproduce their files with
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


# the golden configs that hash no trial
NUMPY_FREE = [
    f"{stem}.{fmt}"
    for stem in (
        "gates-iid", "gates-oscillator", "curve-oscillator", "chsh-oscillator",
        "chsh-independent-oscillator", "compare-oscillator",
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


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_numpy_free_commands_match_golden_bytes_without_numpy(name):
    done = run_without_site(["-m", "phasebit", *CASES[name]])
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / name).read_bytes()


# iid commands whose windows total at most BLOCK_TRIALS = 65536 trials hash them in Python ints
ONE_BLOCK_IID = {
    "chsh": ["chsh", "--model", "iid", "--seed", SEED, "--trials", "65536"],
    "curve-17x3855": ["curve", "--model", "iid", "--seed", SEED, "--trials", "3855"],
    "compare-json": ["compare", "--model", "iid", "--seed", SEED, "--trials", "100",
                     "--format", "json"],
    "chsh-independent": ["chsh", "--model", "iid", "--seed", SEED, "--trials", "16384",
                         "--independent-trials"],
}


@pytest.mark.parametrize("name", sorted(ONE_BLOCK_IID))
def test_one_block_iid_commands_print_the_numpy_bytes_without_numpy(name, tmp_path):
    out = tmp_path / name
    assert main([*ONE_BLOCK_IID[name], "--out", str(out)]) == 0  # numpy is loaded in here
    done = run_without_site(["-m", "phasebit", *ONE_BLOCK_IID[name]])
    assert done.returncode == 0, done.stderr
    assert done.stdout == out.read_bytes()


def test_an_iid_command_past_one_block_counts_with_numpy(tmp_path):
    # 17 points * 3856 trials = 65552 trials, one block and 16 trials
    argv = ["curve", "--model", "iid", "--seed", SEED, "--trials", "3856",
            "--out", str(tmp_path / "curve.csv")]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from phasebit.cli import main; "
         "assert 'numpy' not in sys.modules; assert main(sys.argv[1:]) == 0; "
         "sys.exit('numpy' not in sys.modules)", *argv],
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
