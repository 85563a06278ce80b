"""The benchmark's workloads: fixed phasebit command lines, minus the seed.

Each workload is a closed loop of one or more CLI invocations run one after
another.  Sizes are fixed here; only the seed varies between runs, so the
work per run is the same for every seed.  ``BENCHMARK.json`` says why each
workload is in the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GRID_17 = tuple(k * math.pi / 16 for k in range(17))
CHSH_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
INIT8_TEXT = "0,pi/8,pi/4,3pi/8,pi/2,5pi/8,3pi/4,7pi/8"
INIT8_ANGLES = tuple(k * math.pi / 8 for k in range(8))
PAIR_ANGLES = (0.0, math.pi / 4)


@dataclass(frozen=True)
class Invocation:
    """One ``python -m phasebit`` command line and what its output must hold."""

    command: str
    options: tuple[str, ...] = ()
    trials: int | None = None
    fmt: str = "csv"
    angles: tuple[float, ...] = ()

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        """Arguments after ``-m phasebit``; ``trials`` overrides the size."""
        trials = self.trials if trials is None else trials
        args = [self.command, *self.options, "--seed", str(seed), "--format", self.fmt]
        if trials is not None:
            args += ["--trials", str(trials)]
        return args

    @property
    def label(self) -> str:
        return " ".join([self.command, *self.options])


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curve-iid",
            (
                Invocation(
                    "curve", ("--model", "iid", "--workers", "2"),
                    trials=2_000_000, angles=GRID_17,
                ),
            ),
        ),
        Workload(
            "chsh-osc",
            (
                Invocation(
                    "chsh", ("--model", "oscillator", "--workers", "1"),
                    trials=20_000_000, fmt="json", angles=CHSH_ANGLES,
                ),
            ),
        ),
        Workload(
            "init-reg8",
            (
                Invocation(
                    "init", ("--model", "iid", "--angles", INIT8_TEXT),
                    trials=1_000_000, angles=INIT8_ANGLES,
                ),
            ),
        ),
        Workload(
            "short-runs",
            (
                Invocation("gates", angles=PAIR_ANGLES),
                Invocation(
                    "curve", ("--model", "oscillator"),
                    trials=10_000, fmt="json", angles=GRID_17,
                ),
                Invocation("chsh", trials=10_000, angles=CHSH_ANGLES),
                Invocation(
                    "init", ("--model", "oscillator"),
                    trials=10_000, fmt="json", angles=PAIR_ANGLES,
                ),
                Invocation("compare", trials=10_000, angles=GRID_17),
            ),
        ),
    )
}
