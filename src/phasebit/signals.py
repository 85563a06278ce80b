"""Dichotomic signals and their correlation, exact and estimated.

The signal read off phase ``phi`` at detector angle ``alpha`` is
``sign(cos(phi + alpha))`` with the measure-zero tie ``cos(.) == 0`` mapped
to ``+1``.  Two signals sharing the same phase, with detector angles
``delta`` apart, have the triangular correlation ``1 - 2*|delta|/pi`` once
``delta`` is wrapped to ``(-pi, pi]``: fully correlated at ``delta = 0``,
uncorrelated at ``+-pi/2``, anticorrelated at ``pi``.

:func:`dichotomic` and :func:`dichotomic_array` read that sign without a
cosine wherever ``phi + alpha`` lies in ``(-pi, 3pi)``, which holds every
phase in ``[0, 2*pi)`` plus a wrapped angle.  There the cosine changes sign
only at the four floats of ``COS_SIGN_EDGES``, one next to each odd multiple
of ``pi/2``, so the signal is the parity of the edges the sum has reached.
Sums outside that range are read from the cosine; NaN and infinities read
``-1``, as the NaN that ``np.cos`` gives them does.

The estimator evaluates no cosine per trial.  A phase is one of
``PHASE_STEPS`` steps of a turn, and the signal at a fixed angle is constant
on a few whole runs of steps.  The phase plus the angle never decreases as
the step grows, so each run starts at the first step whose sum reaches one
of ``COS_SIGN_EDGES``, found once per angle by bisecting on the step.  A
trial's step is below edge ``e`` exactly when its uint64 turns are below
``e << 11``, so :func:`~phasebit.phase.steps_below` counts the trials below
each edge in turns, for both models: in hashed counters for ``iid``, in
closed form for the ``oscillator``, at any trial count.
:func:`run_counts` turns each window it is given into a run histogram, the
trial count of each run and every angle's signal on it, all in one such
call; the signal on each run is read from :func:`dichotomic` at the run's
first phase.  :func:`sign_product_sums` weights the runs by a pair's
product; a pair whose two angles have equal edges, such as ``delta = 0``
or ``pi``, has one product on every run, so a window of such pairs is
summed as ``+-n`` per pair and counts no trial.
:func:`~phasebit.register.initialize` sizes its output from the runs on
which the signal qubit reads ``+1``; the CLI's oscillator ``init`` is that
sum alone, with each qubit's ones summed over the accepted runs on which
it reads ``-1``.  Counts and ``+-1`` product sums are Python ints, so the
result does not depend on the blocking or the counting method.  The
kernel itself needs no numpy: only :func:`dichotomic_array` imports it,
and the ``iid`` count does when its counted windows total more than
``4 * BLOCK_TRIALS`` trials or numpy is already loaded.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Sequence

from .phase import PHASE_STEPS, PhaseStream, _Record, checked_int, step_phase, steps_below
from .phase import wrap_angle
from .phase import chunk_quota, substream  # unused here; bench/layer_trace.py wraps them by these names

# The floats at which the cosine's sign differs from the float just below,
# near -pi/2, pi/2, 3pi/2 and 5pi/2: the only ones in COS_SIGN_RANGE.  The
# cosine there is about 1e-16 from 0, far above a faithful cosine's error.
COS_SIGN_EDGES = (-1.5707963267948966, 1.5707963267948968, 4.712388980384691, 7.853981633974484)
COS_SIGN_RANGE = (-math.pi, 3 * math.pi)


def dichotomic(phi: float, alpha: float) -> int:
    """Signal value in ``{+1, -1}`` for one phase and detector angle.

    Ties (``cos(phi + alpha) == 0``) count as ``+1`` so the map is total.
    On ``COS_SIGN_RANGE`` the signal is ``+1`` exactly when ``phi + alpha``
    has reached an odd number of ``COS_SIGN_EDGES``; elsewhere it is read
    from ``math.cos``, and NaN and infinities read ``-1``.  This is the rule
    of :func:`dichotomic_array`, one element at a time.
    """
    x = phi + alpha
    lo, hi = COS_SIGN_RANGE
    if lo < x < hi:
        positive = bisect.bisect_right(COS_SIGN_EDGES, x) % 2
    else:
        positive = math.isfinite(x) and math.cos(x) >= 0.0
    return 1 if positive else -1


def dichotomic_array(phi: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized :func:`dichotomic` over an array of phases (int8 output).

    The cosine is negative at ``-pi``, so on ``COS_SIGN_RANGE`` the signal is
    ``+1`` exactly when ``phi + alpha`` has reached an odd number of
    ``COS_SIGN_EDGES``.  Elements outside that range, NaN and infinities are
    read from ``np.cos``.
    """
    import numpy as np

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


class CorrelationEstimate(_Record):
    """Monte Carlo ``mean`` of ``n`` ``+-1`` products with its normal-approximation ``stderr``."""

    __slots__ = ("mean", "stderr", "n")

    @classmethod
    def from_product_sum(cls, total: int, n: int) -> "CorrelationEstimate":
        """Build the estimate from an exact integer sum of ``n`` products."""
        n = checked_int("n", n, 1)
        mean = checked_int("total", total, -n, n) / n
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

    ``step_phase(k) + alpha`` never decreases as ``k`` grows and stays in
    ``(-pi, 3pi]``, where the signal is the parity of the
    ``COS_SIGN_EDGES`` reached, so it changes exactly at the first step
    reaching each edge.  Pure-Python floats round as numpy's float64 does.
    Raises ``ValueError`` for ``alpha`` outside ``(-pi, pi]``.
    """
    if not -math.pi < alpha <= math.pi:
        raise ValueError(f"alpha must be wrapped to (-pi, pi], got {alpha!r}")
    first_reaching = (
        bisect.bisect_left(range(PHASE_STEPS), e, key=lambda k: step_phase(k) + alpha)
        for e in COS_SIGN_EDGES
    )
    return tuple(k for k in first_reaching if 0 < k < PHASE_STEPS)


def run_counts(
    windows: Sequence[tuple[PhaseStream, Sequence[float], int]],
) -> list[tuple[list[int], list[list[int]]]]:
    """The run histogram of each window ``(stream, angles, n)``: ``(runs, signs)``.

    The union of the angles' :func:`sign_edges` cuts the steps into runs on
    which every signal is constant.  ``runs`` holds the number of the
    stream's next ``n`` trials on each run, in step order, so it sums to
    ``n``; ``signs`` holds, per angle in the order given, its ``+-1`` on each
    run, read by :func:`dichotomic` at the run's first phase.  Angles are
    wrapped to ``(-pi, pi]`` first.  One :func:`~phasebit.phase.steps_below`
    call counts every window: hashed counters for ``iid``, O(log)
    big-integer steps per edge for the ``oscillator``.  Every window is
    checked before any work: one whose trial indices would reach ``2**63``
    raises ``ValueError``.  No cursor moves.
    """
    checked = []
    for stream, angles, n in windows:
        n = checked_int("n", n, 1)
        angles = [wrap_angle(a) for a in angles]
        edges = sorted(set().union(*(sign_edges(a) for a in angles)))
        checked.append((stream, angles, n, edges))
    counts = steps_below([(stream, n, edges) for stream, _, n, edges in checked])
    histograms = []
    for (_, angles, n, edges), below in zip(checked, counts):
        runs = [hi - lo for lo, hi in zip([0, *below], [*below, n])]
        first_phases = [0.0, *(step_phase(k) for k in edges)]
        histograms.append((runs, [[dichotomic(phi, a) for phi in first_phases] for a in angles]))
    return histograms


def sign_product_sums(
    windows: Sequence[tuple[PhaseStream, Sequence[tuple[float, float]], int]],
) -> list[list[int]]:
    """Exact sums of ``s(x) * s(y)`` per window ``(stream, pairs, n)``: one per pair ``(x, y)``.

    Each window sums over its stream's next ``n`` trials: the
    :func:`run_counts` of the window's angles, weighted by ``s(x) * s(y)``
    on each run.  A pair whose two angles have equal :func:`sign_edges`
    has one product on every run, its product at phase 0, so a window of
    such pairs sums ``+-n`` per pair and counts no trial.  Integer counts
    make the result independent of the blocking and the counting method.
    Every window is checked before any work: ``n`` below 1 or trial
    indices that would reach ``2**63`` raise ``ValueError``.  Each stream's
    cursor then advances by its ``n``.
    """
    checked = []
    for stream, pairs, n in windows:
        n = checked_int("n", n, 1)
        stream._window(n)  # a window that counts no trial is checked too
        pairs = [(wrap_angle(x), wrap_angle(y)) for x, y in pairs]
        if all(sign_edges(x) == sign_edges(y) for x, y in pairs):
            angles = None
        else:
            angles = list(dict.fromkeys(a for pair in pairs for a in pair))
        checked.append((stream, pairs, n, angles))
    counted = [(stream, angles, n) for stream, _, n, angles in checked if angles is not None]
    histograms = iter(run_counts(counted))
    sums = []
    for stream, pairs, n, angles in checked:
        stream.skip(n)
        if angles is None:
            sums.append([n * dichotomic(0.0, x) * dichotomic(0.0, y) for x, y in pairs])
            continue
        runs, signs = next(histograms)
        sign = dict(zip(angles, signs))
        sums.append(
            [sum(r * sx * sy for r, sx, sy in zip(runs, sign[x], sign[y])) for x, y in pairs]
        )
    return sums


def estimate_correlation(
    stream: PhaseStream,
    alpha1: float,
    alpha2: float,
    n: int,
) -> CorrelationEstimate:
    """Estimate the signal correlation from ``n`` shared-phase trials.

    The trials are consumed from ``stream`` (its cursor advances by ``n``).
    """
    ((total,),) = sign_product_sums([(stream, ((alpha1, alpha2),), n)])
    return CorrelationEstimate.from_product_sum(total, n)
