import math
import tracemalloc

import numpy as np
import pytest

from phasebit import (
    IID_UNIFORM,
    OSCILLATOR_ENSEMBLE,
    PhaseModel,
    TWO_PI,
    analytic_chsh,
    analytic_correlation,
    chsh_classical,
    correlation_curve,
    estimate_correlation,
    ks_uniformity,
    make_phase_stream,
)

CANONICAL = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


# ---------------------------------------------------------- correlation_curve

def test_curve_at_zero_and_pi():
    points = correlation_curve(PhaseModel(seed=1), [0.0, math.pi], 5000)
    assert points[0].analytic == 1.0
    assert points[0].estimated.mean == 1.0
    assert points[1].analytic == -1.0
    assert points[1].estimated.mean == -1.0


def test_curve_17_point_grid_tracks_analytic():
    deltas = [k * math.pi / 16 for k in range(17)]
    points = correlation_curve(PhaseModel(seed=42), deltas, 100_000)
    worst = max(
        abs(p.estimated.mean - p.analytic) for p in points if p.estimated.stderr > 0
    )
    max_stderr = max(p.estimated.stderr for p in points)
    assert worst <= 4 * max_stderr
    for p in points:
        assert p.analytic == analytic_correlation(p.delta)


def test_curve_rejects_empty_grid():
    with pytest.raises(ValueError):
        correlation_curve(PhaseModel(seed=0), [], 100)


def test_curve_workers_do_not_change_results():
    deltas = [0.0, 0.4, 1.1, 2.8]
    a = correlation_curve(PhaseModel(seed=9), deltas, 5003)
    b = correlation_curve(PhaseModel(seed=9), deltas, 5003, workers=4)
    assert a == b


# ---------------------------------------------------------------- analytic S

def test_analytic_chsh_canonical_angles():
    assert analytic_chsh(*CANONICAL) == pytest.approx(2.0, abs=1e-12)


def test_analytic_chsh_equal_angles():
    assert analytic_chsh(0.3, 0.3, 0.3, 0.3) == pytest.approx(2.0, abs=1e-12)


def test_analytic_chsh_boundary_values():
    # M(0) - M(-pi) + M(0) + M(-pi) = 1 + 1 + 1 - 1
    assert analytic_chsh(0.0, 0.0, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_analytic_chsh_bound_over_random_quadruples():
    rng = np.random.default_rng(1234)
    quadruples = rng.uniform(-math.pi, math.pi, size=(1000, 4))
    worst = max(abs(analytic_chsh(*q)) for q in quadruples)
    assert worst <= 2.0 + 1e-12


# ------------------------------------------------------------ chsh_classical

def test_chsh_classical_near_two_at_canonical_angles():
    result = chsh_classical(PhaseModel(seed=42), *CANONICAL, 100_000)
    assert abs(result.s_value - 2.0) <= 4 * result.s_stderr
    # stored value and stderr recombine from the terms
    e = [t.mean for t in result.terms]
    assert abs(result.s_value - (e[0] - e[1] + e[2] + e[3])) <= 1e-12
    quad = math.sqrt(sum(t.stderr**2 for t in result.terms))
    assert abs(result.s_stderr - quad) <= 1e-12


def test_chsh_classical_matches_analytic_assembly():
    a1 = 0.6
    a2, b1, b2 = a1 + math.pi / 2, a1, a1 + math.pi / 2
    expected = analytic_chsh(a1, a2, b1, b2)
    assert expected == pytest.approx(2.0, abs=1e-12)
    result = chsh_classical(PhaseModel(seed=11), a1, a2, b1, b2, 100_000)
    assert abs(result.s_value - expected) <= 4 * result.s_stderr


def test_chsh_classical_independent_trials_mode():
    result = chsh_classical(
        PhaseModel(seed=13), *CANONICAL, 50_000, shared_trials=False
    )
    assert abs(result.s_value - 2.0) <= 4 * result.s_stderr


def test_chsh_classical_workers_do_not_change_results():
    for shared in (True, False):
        one = chsh_classical(PhaseModel(seed=21), *CANONICAL, 10_007, shared_trials=shared)
        four = chsh_classical(
            PhaseModel(seed=21), *CANONICAL, 10_007, shared_trials=shared, workers=4
        )
        assert one == four


def test_chsh_classical_validation():
    with pytest.raises(ValueError):
        chsh_classical(PhaseModel(seed=0), *CANONICAL, 0)
    with pytest.raises(ValueError):
        chsh_classical(PhaseModel(seed=0), *CANONICAL, 10, workers=0)


@pytest.mark.parametrize("kind", [IID_UNIFORM, OSCILLATOR_ENSEMBLE])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda model, n: chsh_classical(model, *CANONICAL, n),
        lambda model, n: estimate_correlation(
            make_phase_stream(model), 0.0, 1.0, n, workers=3
        ),
    ],
    ids=["chsh_classical", "estimate_correlation"],
)
def test_estimator_memory_is_bounded_by_the_block(kind, estimate):
    tracemalloc.start()
    try:
        estimate(PhaseModel(kind=kind, seed=3), 2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


# ------------------------------------------------------------- ks_uniformity

def test_ks_exact_grid_is_tiny():
    n = 1000
    grid = np.arange(n) / n * TWO_PI
    result = ks_uniformity(grid)
    assert result.statistic <= 1.0 / n + 1e-12
    assert result.critical_1pct == pytest.approx(1.63 / math.sqrt(n))


def test_ks_degenerate_samples_maximal():
    n = 500
    result = ks_uniformity(np.zeros(n))
    assert result.statistic >= 1.0 - 1.0 / n


def test_ks_iid_stream_passes():
    _, phi = make_phase_stream(PhaseModel(kind=IID_UNIFORM, seed=42)).take(100_000)
    result = ks_uniformity(phi)
    assert result.statistic < result.critical_1pct


def test_ks_rejects_small_or_out_of_range_input():
    with pytest.raises(ValueError):
        ks_uniformity(np.zeros(99))
    with pytest.raises(ValueError):
        ks_uniformity(np.full(200, TWO_PI))
    with pytest.raises(ValueError):
        ks_uniformity(np.full(200, -0.1))


def test_ks_oscillator_model_passes():
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=7, ensemble_size=32, burn_in=500)
    _, phi = make_phase_stream(model).take(100_000)
    result = ks_uniformity(phi)
    assert result.statistic < result.critical_1pct
