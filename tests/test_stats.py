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
    dichotomic_array,
    estimate_correlation,
    ks_uniformity,
    make_phase_stream,
)
from phasebit.phase import BLOCK_TRIALS

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
    # the stored value recombines from the terms
    e = [t.mean for t in result.terms]
    assert abs(result.s_value - (e[0] - e[1] + e[2] + e[3])) <= 1e-12
    # every shared trial has S = +2 at these settings, so S does not scatter
    assert result.s_stderr == 0.0


def test_shared_trial_s_stderr_is_the_spread_of_the_per_trial_s():
    angles = (0.3, 2.9, -1.2, 0.4)
    model = PhaseModel(seed=20030101)
    n = 70_001
    result = chsh_classical(model, *angles, n)
    _, phi = make_phase_stream(model).take(n)
    a1, a2, b1, b2 = (dichotomic_array(phi, a).astype(np.int64) for a in angles)
    per_trial = a1 * (b1 - b2) + a2 * (b1 + b2)
    assert set(np.unique(per_trial).tolist()) == {-2, 2}
    assert abs(result.s_stderr - per_trial.std() / math.sqrt(n)) <= 1e-12
    # quadrature treats the four terms as independent and overstates the error
    assert math.sqrt(sum(t.stderr**2 for t in result.terms)) > 2 * result.s_stderr


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
    quad = math.sqrt(sum(t.stderr**2 for t in result.terms))
    assert abs(result.s_stderr - quad) <= 1e-12


def test_chsh_classical_validation():
    with pytest.raises(ValueError):
        chsh_classical(PhaseModel(seed=0), *CANONICAL, 0)


@pytest.mark.parametrize("shared_trials", [True, False])
def test_curve_and_chsh_take_integer_trial_counts(shared_trials):
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=3)
    for n in (100.0, 100.5, np.float64(100.0)):
        with pytest.raises(TypeError):
            chsh_classical(model, *CANONICAL, n, shared_trials=shared_trials)
        with pytest.raises(TypeError):
            correlation_curve(model, [0.0, 1.0], n)
    # an int64 count would overflow the oscillator's closed-form count and n**3
    n = 2**21
    result = chsh_classical(model, *CANONICAL, np.int64(n), shared_trials=shared_trials)
    assert result == chsh_classical(model, *CANONICAL, n, shared_trials=shared_trials)
    assert type(result.s_value) is float and type(result.s_stderr) is float
    assert [type(t.n) for t in result.terms] == [int] * 4
    curve = correlation_curve(model, [0.0, 1.0], np.int64(n))
    assert curve == correlation_curve(model, [0.0, 1.0], n)


@pytest.mark.parametrize("kind", [IID_UNIFORM, OSCILLATOR_ENSEMBLE])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda model, n: chsh_classical(model, *CANONICAL, n),
        lambda model, n: estimate_correlation(make_phase_stream(model), 0.0, 1.0, n),
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


def test_iid_curve_working_set_stays_under_6_block_sizes():
    # numpy is loaded, so the 15 windows of 300000 trials whose product changes sign are
    # hashed in the numpy kernel, whose buffers (z and scratch at 128 KB, a 32 KB row) are
    # its whole working set
    deltas = [k * math.pi / 16 for k in range(17)]
    tracemalloc.start()
    try:
        correlation_curve(PhaseModel(seed=5), deltas, 300_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * BLOCK_TRIALS


def test_oscillator_chsh_memory_does_not_grow_with_the_trial_count():
    tracemalloc.start()
    try:
        chsh_classical(PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=3), *CANONICAL, 2**61 - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
