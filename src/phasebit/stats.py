"""Correlation curves, CHSH assembly, and uniformity testing.

The CHSH combination used throughout is
``S = E(a1,b1) - E(a1,b2) + E(a2,b1) + E(a2,b2)``.  For the shared-phase
signal model every term is the triangular correlator evaluated at the
setting difference, which caps ``|S|`` at 2; the exact quantum value for
the same settings lives in :mod:`phasebit.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .phase import TWO_PI, PhaseModel, checked_int, make_phase_stream, substream
from .phase import chunk_quota  # unused here; bench/layer_trace.py wraps it by this name
from .signals import CorrelationEstimate, analytic_correlation, sign_product_sums
# unused here; bench/layer_trace.py wraps them by these names
from .signals import dichotomic_array, estimate_correlation


@dataclass(frozen=True)
class CurvePoint:
    """One grid point of the correlation curve: exact value next to estimate."""

    delta: float
    analytic: float
    estimated: CorrelationEstimate


@dataclass(frozen=True)
class ChshResult:
    """Four-correlator CHSH estimate.

    ``terms`` holds ``E(a1,b1), E(a1,b2), E(a2,b1), E(a2,b2)`` in that
    order, and ``s_value`` combines them with signs ``+ - + +``.  On shared
    trials each trial's ``s_a1*(s_b1 - s_b2) + s_a2*(s_b1 + s_b2)`` is exactly
    ``+-2``, so ``s_stderr`` is the standard error of that per-trial value;
    on independent trials it adds the terms' errors in quadrature.
    """

    angles: tuple[float, float, float, float]
    terms: tuple[
        CorrelationEstimate,
        CorrelationEstimate,
        CorrelationEstimate,
        CorrelationEstimate,
    ]
    s_value: float
    s_stderr: float


class KsResult(NamedTuple):
    statistic: float
    critical_1pct: float


def correlation_curve(model: PhaseModel, deltas: Sequence[float], n: int) -> list[CurvePoint]:
    """Estimated vs analytic correlation over a grid of angle separations.

    Each grid point runs on its own leapfrog substream of one base stream,
    so the whole curve is reproducible from the model alone.  All points are
    counted in one :func:`~phasebit.signals.sign_product_sums` call.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("deltas must be non-empty")
    base = make_phase_stream(model)
    windows = [(substream(base, i, len(deltas)), ((0.0, d),), n) for i, d in enumerate(deltas)]
    return [
        CurvePoint(d, analytic_correlation(d), CorrelationEstimate.from_product_sum(total, n))
        for d, (total,) in zip(deltas, sign_product_sums(windows))
    ]


def chsh_classical(
    model: PhaseModel,
    a1: float,
    a2: float,
    b1: float,
    b2: float,
    n: int,
    *,
    shared_trials: bool = True,
) -> ChshResult:
    """CHSH estimate on the shared-phase signal model.

    With ``shared_trials`` every trial evaluates all four correlators from
    the same phase draw (the model assigns every setting a value at once);
    otherwise each correlator runs on its own substream of ``n`` fresh
    trials.  Either way each term uses ``n`` samples.
    """
    n = checked_int("n", n, 1)  # an int64 n would overflow n**3
    angles = (float(a1), float(a2), float(b1), float(b2))
    pairs = tuple((a, b) for a in angles[:2] for b in angles[2:])
    base = make_phase_stream(model)
    if shared_trials:
        (totals,) = sign_product_sums([(base, pairs, n)])
        terms = tuple(CorrelationEstimate.from_product_sum(tot, n) for tot in totals)
        # the four terms share every phase, so their errors do not add in quadrature
        s_total = totals[0] - totals[1] + totals[2] + totals[3]
        s_stderr = math.sqrt((4 * n * n - s_total * s_total) / n**3)
    else:
        sums = sign_product_sums(
            [(substream(base, k, 4), (pair,), n) for k, pair in enumerate(pairs)]
        )
        terms = tuple(CorrelationEstimate.from_product_sum(total, n) for (total,) in sums)
        s_stderr = math.sqrt(sum(t.stderr**2 for t in terms))
    s_value = terms[0].mean - terms[1].mean + terms[2].mean + terms[3].mean
    return ChshResult(angles, terms, s_value, s_stderr)


def analytic_chsh(a1: float, a2: float, b1: float, b2: float) -> float:
    """CHSH value assembled from the exact triangular correlator.

    Bounded by 2 in absolute value for every choice of settings.
    """
    m = analytic_correlation
    return m(a1 - b1) - m(a1 - b2) + m(a2 - b1) + m(a2 - b2)


def ks_uniformity(samples: Sequence[float]) -> KsResult:
    """Kolmogorov-Smirnov statistic against the uniform law on ``[0, 2*pi)``.

    Returns the exact two-sided statistic together with the asymptotic 1%
    critical value ``1.63 / sqrt(n)``.
    """
    import numpy as np

    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    if x.size < 100:
        raise ValueError("need at least 100 samples")
    if not np.all(np.isfinite(x)) or float(x.min()) < 0.0 or float(x.max()) >= TWO_PI:
        raise ValueError("samples must lie in [0, 2*pi)")
    cdf = np.sort(x) / TWO_PI
    ranks = np.arange(x.size + 1.0) / x.size
    statistic = float(max((ranks[1:] - cdf).max(), (cdf - ranks[:-1]).max()))
    return KsResult(statistic, 1.63 / math.sqrt(x.size))
