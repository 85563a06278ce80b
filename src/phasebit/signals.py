"""Dichotomic signals and their correlation, exact and estimated.

The signal read off phase ``phi`` at detector angle ``alpha`` is
``sign(cos(phi + alpha))`` with the measure-zero tie ``cos(.) == 0`` mapped
to ``+1``.  Two signals sharing the same phase, with detector angles
``delta`` apart, have the triangular correlation ``1 - 2*|delta|/pi`` once
``delta`` is wrapped to ``(-pi, pi]``: fully correlated at ``delta = 0``,
uncorrelated at ``+-pi/2``, anticorrelated at ``pi``.

Estimates keep their ``+-1`` product sums in integer arithmetic, so a
partitioned (multi-worker) evaluation reproduces the serial result exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import PhaseStream, chunk_quota, substream, wrap_angle

# Trials per array pass; bounds memory at O(block) without changing a sum.
BLOCK_TRIALS = 1 << 16
# The kernel visits every chunk, empty or not, so the partition count is bounded.
MAX_WORKERS = 256


def dichotomic(phi: float, alpha: float) -> int:
    """Signal value in ``{+1, -1}`` for one phase and detector angle.

    Ties (``cos(phi + alpha) == 0``) count as ``+1`` so the map is total.
    """
    return 1 if math.cos(phi + alpha) >= 0.0 else -1


def dichotomic_array(phi: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized :func:`dichotomic` over an array of phases (int8 output)."""
    c = np.cos(np.asarray(phi, dtype=np.float64) + alpha)
    return np.where(c >= 0.0, 1, -1).astype(np.int8)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo mean of ``+-1`` products with its normal-approximation error."""

    mean: float
    stderr: float
    n: int

    @classmethod
    def from_product_sum(cls, total: int, n: int) -> "CorrelationEstimate":
        """Build the estimate from an exact integer sum of ``n`` products."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if abs(total) > n:
            raise ValueError("product sum cannot exceed the sample count")
        mean = total / n
        return cls(mean=mean, stderr=math.sqrt((1.0 - mean * mean) / n), n=n)


def analytic_correlation(delta: float) -> float:
    """Exact correlation of two signals whose detector angles differ by ``delta``.

    ``delta`` is wrapped to ``(-pi, pi]`` first, making the correlator an
    even, 2*pi-periodic triangle wave with values in ``[-1, 1]``.
    """
    return 1.0 - 2.0 * abs(wrap_angle(delta)) / math.pi


def conditional_same_color_probability(delta: float) -> float:
    """Probability that the two signals agree; equals ``(1 + correlation) / 2``."""
    return 1.0 - abs(wrap_angle(delta)) / math.pi


def sign_product_sums(
    stream: PhaseStream, pairs: tuple[tuple[float, float], ...], n: int, *, workers: int = 1
) -> list[int]:
    """Exact sums of ``s(x) * s(y)`` over the next ``n`` trials, one per pair ``(x, y)``.

    The stream's cursor advances by ``n``.  ``workers`` splits the trials
    into leapfrog substreams, walked in blocks of ``BLOCK_TRIALS`` that
    evaluate each distinct angle once; integer sums make the result
    independent of both the partition and the blocking.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}")
    angles = dict.fromkeys(a for pair in pairs for a in pair)
    totals = [0] * len(pairs)
    for chunk in range(workers):
        sub = substream(stream, chunk, workers)
        quota = chunk_quota(n, chunk, workers)
        while sub.position < quota:
            _, phi = sub.take(min(BLOCK_TRIALS, quota - sub.position))
            signs = {a: dichotomic_array(phi, a) for a in angles}
            for k, (x, y) in enumerate(pairs):
                totals[k] += int((signs[x] * signs[y]).sum(dtype=np.int64))
    stream.skip(n)
    return totals


def estimate_correlation(
    stream: PhaseStream,
    alpha1: float,
    alpha2: float,
    n: int,
    *,
    workers: int = 1,
) -> CorrelationEstimate:
    """Estimate the signal correlation from ``n`` shared-phase trials.

    The trials are consumed from ``stream`` (its cursor advances by ``n``).
    ``workers`` only controls how the trial range is partitioned into
    leapfrog substreams; product sums are integers, so the result is
    bit-identical for every worker count.
    """
    (total,) = sign_product_sums(stream, ((alpha1, alpha2),), n, workers=workers)
    return CorrelationEstimate.from_product_sum(total, n)
