"""Dichotomic signals and their correlation, exact and estimated.

The signal read off phase ``phi`` at detector angle ``alpha`` is
``sign(cos(phi + alpha))`` with the measure-zero tie ``cos(.) == 0`` mapped
to ``+1``.  Two signals sharing the same phase, with detector angles
``delta`` apart, have the triangular correlation ``1 - 2*|delta|/pi`` once
``delta`` is wrapped to ``(-pi, pi]``: fully correlated at ``delta = 0``,
uncorrelated at ``+-pi/2``, anticorrelated at ``pi``.

:func:`dichotomic_array` reads that sign without a cosine wherever
``phi + alpha`` lies in ``(-pi, 3pi)``, which holds every phase in
``[0, 2*pi)`` plus a wrapped angle.  There the cosine changes sign only at
the four floats of ``COS_SIGN_EDGES``, one next to each odd multiple of
``pi/2``, so the signal is the parity of the edges the sum has reached.
Elements outside that range, NaN and infinities are read from ``np.cos``.

The estimator evaluates no cosine per trial.  A phase is one of
``PHASE_STEPS`` steps of a turn, and the signal at a fixed angle is constant
on a few whole runs of steps.  The runs' edges are found once per angle by
bisecting on the step.  The phase never decreases as the step grows, and it
differs across each edge because the signal does, so a trial's step lies
below an edge exactly when its phase lies below the edge's phase.  For the
``iid`` model each block of phases drawn with :meth:`PhaseStream.take` then
only counts how many fall below each edge's phase.  The ``oscillator``'s
turns are an arithmetic progression mod ``2**64``, so its count of steps
below each edge is a closed-form floor sum
(:func:`~phasebit.phase.oscillator_steps_below`) and no phase is generated,
at any trial count.  The signal on each run is read from
:func:`dichotomic_array` at the run's first phase, so that predicate stays
the authority for every estimate.  Counts and ``+-1`` product sums are
integers, so the result does not depend on the blocking or the counting
method.  The ``workers`` arguments are validated but partition no work:
both models count the serial trial range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .phase import (
    OSCILLATOR_ENSEMBLE,
    PHASE_STEPS,
    PhaseStream,
    oscillator_steps_below,
    step_phase,
    wrap_angle,
)
from .phase import chunk_quota, substream  # unused here; bench/layer_trace.py wraps them by these names

# Trials per array pass; bounds memory at O(block) without changing a sum.
BLOCK_TRIALS = 1 << 16
# Bound of the validated ``workers`` argument, which no longer partitions any work.
MAX_WORKERS = 256
# The floats at which the cosine's sign differs from the float just below,
# near -pi/2, pi/2, 3pi/2 and 5pi/2: the only ones in COS_SIGN_RANGE.  The
# cosine there is about 1e-16 from 0, far above a faithful cosine's error.
COS_SIGN_EDGES = (-1.5707963267948966, 1.5707963267948968, 4.712388980384691, 7.853981633974484)
COS_SIGN_RANGE = (-math.pi, 3 * math.pi)


def dichotomic(phi: float, alpha: float) -> int:
    """Signal value in ``{+1, -1}`` for one phase and detector angle.

    Ties (``cos(phi + alpha) == 0``) count as ``+1`` so the map is total.
    """
    return 1 if math.cos(phi + alpha) >= 0.0 else -1


def dichotomic_array(phi: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized :func:`dichotomic` over an array of phases (int8 output).

    The cosine is negative at ``-pi``, so on ``COS_SIGN_RANGE`` the signal is
    ``+1`` exactly when ``phi + alpha`` has reached an odd number of
    ``COS_SIGN_EDGES``.  Elements outside that range, NaN and infinities are
    read from ``np.cos``.
    """
    x = np.asarray(np.asarray(phi, dtype=np.float64) + alpha)  # a 0-d input stays an array
    odd = x >= COS_SIGN_EDGES[0]
    for edge in COS_SIGN_EDGES[1:]:
        odd ^= x >= edge
    signal = np.asarray(odd).view(np.int8)  # odd is a fresh array, so edit it in place
    signal *= 2
    signal -= 1
    lo, hi = COS_SIGN_RANGE
    if x.size and not (lo < x.min() and x.max() < hi):
        far = ~((x > lo) & (x < hi))  # NaN is far too
        signal[far] = np.where(np.cos(x[far]) >= 0.0, 1, -1)
    return signal


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


@functools.lru_cache(maxsize=256)
def sign_edges(alpha: float) -> tuple[int, ...]:
    """The sorted steps ``k`` whose signal at ``alpha`` differs from the signal at ``k - 1``.

    ``step_phase(k) + alpha`` never decreases as ``k`` grows, and the cosine
    changes sign only at its roots, which lie ``pi`` apart.  The step range
    is split until each piece spans less than 3 radians or one step, so it
    holds at most one edge, and each piece whose end signals differ is
    bisected to that edge.  Pure-Python floats round as numpy's float64 does.
    """

    def signal(k: int) -> int:
        return dichotomic(step_phase(k), alpha)

    edges = []
    pieces = [(0, PHASE_STEPS - 1)]
    while pieces:
        lo, hi = pieces.pop()
        if hi - lo > 1 and (step_phase(hi) + alpha) - (step_phase(lo) + alpha) >= 3.0:
            mid = (lo + hi) // 2
            pieces += [(mid, hi), (lo, mid)]
            continue
        low_signal = signal(lo)
        if signal(hi) == low_signal:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if signal(mid) == low_signal:
                lo = mid
            else:
                hi = mid
        edges.append(hi)
    return tuple(sorted(edges))


def sign_product_sums(
    stream: PhaseStream, pairs: tuple[tuple[float, float], ...], n: int, *, workers: int = 1
) -> list[int]:
    """Exact sums of ``s(x) * s(y)`` over the next ``n`` trials, one per pair ``(x, y)``.

    Angles are wrapped to ``(-pi, pi]`` first.  The union of the angles'
    :func:`sign_edges` cuts the steps into runs on which every signal is
    constant.  For the ``iid`` model one serial loop draws the trials in
    blocks of ``BLOCK_TRIALS`` and counts the phases below each edge's
    :func:`step_phase`, which is exactly the count of steps below the edge.
    For the ``oscillator`` the counts come in closed form from
    :func:`~phasebit.phase.oscillator_steps_below`, in O(log) big-integer
    steps per edge and no phase drawn.  ``workers`` is validated but splits
    no work.  One :func:`dichotomic_array` call per angle on the runs' first
    phases gives the signals, and each sum is the run counts weighted by
    ``s(x) * s(y)``.  Integer counts make the result independent of the
    blocking and the counting method.  The stream's cursor advances by
    ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}")
    pairs = [(wrap_angle(x), wrap_angle(y)) for x, y in pairs]
    angles = dict.fromkeys(a for pair in pairs for a in pair)
    edges = sorted(set().union(*(sign_edges(a) for a in angles)))
    bounds = [step_phase(k) for k in edges]
    if stream.model.kind == OSCILLATOR_ENSEMBLE:
        below = oscillator_steps_below(stream, n, edges)
        stream.skip(n)
    else:
        below = [0] * len(bounds)
        end = stream.position + n
        while stream.position < end:
            # no `del phi`: freeing each block lets glibc trim the heap and fault it back in
            phi = stream.take(min(BLOCK_TRIALS, end - stream.position))[1]
            for j, bound in enumerate(bounds):
                below[j] += int(np.count_nonzero(phi < bound))
    runs = np.diff(np.array([0, *below, n], dtype=np.int64))
    first_phases = np.array([0.0, *bounds])
    signs = {a: dichotomic_array(first_phases, a).astype(np.int64) for a in angles}
    return [int((runs * signs[x] * signs[y]).sum()) for x, y in pairs]


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
    ``workers`` is validated but partitions no work, so the result is
    bit-identical for every worker count.
    """
    (total,) = sign_product_sums(stream, ((alpha1, alpha2),), n, workers=workers)
    return CorrelationEstimate.from_product_sum(total, n)
