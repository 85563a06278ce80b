"""Byte-for-byte regression of every command against checked-in outputs.

Each file under ``tests/golden/`` is the output of one CLI invocation at a
fixed seed, with ``--trials 70001`` so that every estimate spans more than
one 2**16-trial block.  A change to any estimator must reproduce these
bytes for every worker count; an intended output change regenerates them
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from pathlib import Path

import pytest

from phasebit.cli import main

GOLDEN = Path(__file__).parent / "golden"
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        if main([*argv, "--out", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"{name}: phasebit failed")
