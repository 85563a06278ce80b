import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phasebit import (
    CorrelationEstimate,
    PhaseModel,
    TWO_PI,
    analytic_correlation,
    conditional_same_color_probability,
    dichotomic,
    dichotomic_array,
    estimate_correlation,
    make_phase_stream,
    wrap_angle,
)
from phasebit import phase as phase_module
from phasebit import signals
from phasebit.phase import BLOCK_TRIALS, OSCILLATOR_ENSEMBLE, PHASE_STEPS, PhaseStream, step_phase
from phasebit.signals import run_counts, sign_edges, sign_product_sums


def agreement_probability_quadrature(delta, n=2_000_001):
    """Independent oracle: midpoint integration of the agreement set over
    one uniform phase period. Error is O(1/n) from the four sign crossings."""
    phi = (np.arange(n) + 0.5) * (TWO_PI / n)
    s1 = np.where(np.cos(phi) >= 0, 1, -1)
    s2 = np.where(np.cos(phi + delta) >= 0, 1, -1)
    return float((s1 == s2).mean())


# ---------------------------------------------------------------- dichotomic

def test_dichotomic_basic_values():
    assert dichotomic(0.0, 0.0) == 1
    assert dichotomic(math.pi, 0.0) == -1
    assert dichotomic(0.0, math.pi / 4) == 1
    # tie rule sign(0) := +1; at the float pi/2 the cosine is already >= 0
    assert dichotomic(math.pi / 2, 0.0) == 1


def cosine_signal(phi, alpha):
    """The signal read from ``np.cos``: the reference for ``dichotomic_array``."""
    with np.errstate(invalid="ignore", over="ignore"):
        c = np.cos(np.asarray(phi, dtype=np.float64) + alpha)
    return np.where(c >= 0.0, 1, -1).astype(np.int8)


def floats_around(x, ulps):
    """``x`` and the ``ulps`` floats on either side of it, ascending."""
    below, above, lo, hi = [], [], x, x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        below.append(lo)
        above.append(hi)
    return np.array([*reversed(below), x, *above])


def test_dichotomic_array_matches_scalar():
    phi = np.linspace(0.0, TWO_PI, 101, endpoint=False)
    vec = dichotomic_array(phi, 0.3)
    assert vec.tolist() == [dichotomic(p, 0.3) for p in phi]
    # both sides of every edge, also where an angle of +-pi or +-2pi moves the
    # sum to the edge, and the sums that neither edge rule reads
    near = [x for e in signals.COS_SIGN_EDGES for x in floats_around(e, 5).tolist()]
    special = [math.nan, math.inf, -math.inf, 1e300, -1e300]
    for shift in (0.0, math.pi, -math.pi, TWO_PI, -TWO_PI):
        phi = [x - shift for x in near] + special
        with np.errstate(invalid="ignore"):
            vec = dichotomic_array(np.array(phi), shift)
        assert vec.tolist() == [dichotomic(p, shift) for p in phi]
        assert vec.tolist() == cosine_signal(np.array(phi) + shift, 0.0).tolist()


def test_cos_sign_edges_are_the_sign_changes_of_both_cosines():
    lo, hi = signals.COS_SIGN_RANGE
    edges = signals.COS_SIGN_EDGES
    assert lo < edges[0] and list(edges) == sorted(edges) and edges[-1] < hi
    # the parity rule starts from a negative cosine at the low end of the range
    assert math.cos(lo) < 0.0 and np.cos(lo) < 0.0
    for k, e in enumerate(edges):
        below = math.nextafter(e, -math.inf)
        assert abs(e - (2 * k - 1) * math.pi / 2) <= 4 * math.ulp(e)
        assert (math.cos(below) >= 0.0) != (math.cos(e) >= 0.0)
        both = np.cos(np.array([below, e] * 64)) >= 0.0  # long enough for numpy's SIMD loop
        assert set(both[0::2].tolist()) == {math.cos(below) >= 0.0}
        assert set(both[1::2].tolist()) == {math.cos(e) >= 0.0}


def test_dichotomic_array_equals_the_cosine_within_4096_ulps_of_each_edge():
    lo, hi = signals.COS_SIGN_RANGE
    for x in (*signals.COS_SIGN_EDGES, lo, hi):
        near = floats_around(x, 4096)
        assert np.array_equal(dichotomic_array(near, 0.0), cosine_signal(near, 0.0))


@pytest.mark.parametrize(
    "alpha", [0.0, math.pi, -math.pi, 1e-300, 0.3, -2.9, 7.5, -7.5, 100.0, 1e16]
)
def test_dichotomic_array_equals_the_cosine_on_random_phases(alpha):
    phi = np.random.default_rng(20030101).random(1_000_000) * TWO_PI
    assert np.array_equal(dichotomic_array(phi, alpha), cosine_signal(phi, alpha))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), st.floats()),
        min_size=1,
        max_size=8,
    ),
    st.one_of(st.floats(min_value=-math.pi, max_value=math.pi), st.floats()),
)
@example([math.nextafter(TWO_PI, 0.0)], math.pi)
@example([0.0], -math.pi)
def test_dichotomic_array_equals_the_cosine_on_any_floats(phi, alpha):
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.array_equal(dichotomic_array(phi, alpha), cosine_signal(phi, alpha))


@pytest.mark.parametrize(
    "phi",
    [
        [math.nan, math.inf, -math.inf, 1e300, -1e300],
        [0.5, math.nan, 2.0, 1e300, 6.0, -math.inf],
        np.array([]),
        [0.1, 3.0, 4.0],
        0.5,
        100.0,
        [[0.1, 2.0], [3.0, 40.0]],
    ],
    ids=["non-finite", "mixed", "empty", "list", "scalar", "far-scalar", "2d"],
)
def test_dichotomic_array_keeps_the_cosine_outside_the_edge_range(phi):
    with np.errstate(invalid="ignore"):
        got = dichotomic_array(phi, 0.25)
    expected = cosine_signal(phi, 0.25)
    assert type(got) is type(expected)
    assert got.dtype == expected.dtype == np.int8
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@given(
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_dichotomic_antisymmetry(phi, alpha):
    # exact away from the sign boundary; a guard band excludes the
    # measure-zero tie set where float cosines can straddle zero
    assume(abs(math.cos(phi + alpha)) > 1e-9)
    assert dichotomic(phi, alpha + math.pi) == -dichotomic(phi, alpha)
    assert dichotomic(phi, alpha - math.pi) == -dichotomic(phi, alpha)


@given(
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=-100, max_value=100),
)
def test_dichotomic_shift_invariance(phi, alpha, k):
    assume(abs(math.cos(phi + alpha)) > 1e-9)
    assert dichotomic(phi, alpha + TWO_PI * k) == dichotomic(phi, alpha)


# ------------------------------------------------------- analytic correlator

def test_analytic_correlation_anchors():
    assert analytic_correlation(0.0) == 1.0
    assert analytic_correlation(math.pi) == -1.0
    assert analytic_correlation(math.pi / 2) == 0.0
    assert analytic_correlation(math.pi / 4) == 0.5
    # 3pi/2 wraps to -pi/2
    assert analytic_correlation(3 * math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_analytic_correlation_rejects_nonfinite():
    with pytest.raises(ValueError):
        analytic_correlation(math.nan)


def test_analytic_correlation_shape():
    rng = np.random.default_rng(2024)
    deltas = rng.uniform(-20, 20, size=1000)
    for d in deltas:
        m = analytic_correlation(d)
        assert -1.0 <= m <= 1.0
        # even and 2pi-periodic
        assert analytic_correlation(-d) == m
        assert analytic_correlation(d + TWO_PI) == pytest.approx(m, abs=1e-12)
    # piecewise linear with slope -2/pi on [0, pi]
    xs = np.linspace(0.0, math.pi, 50)
    for x in xs:
        assert analytic_correlation(x) == pytest.approx(1.0 - 2.0 * x / math.pi, abs=1e-12)


def test_analytic_correlation_against_monte_carlo_at_wrapped_delta():
    # brute-force confirmation that 3pi/2 behaves like -pi/2
    stream = make_phase_stream(PhaseModel(seed=2))
    est = estimate_correlation(stream, 0.0, 3 * math.pi / 2, 100_000)
    assert abs(est.mean - 0.0) <= 4 * est.stderr


# ----------------------------------------------- same-color probability

def test_same_color_probability_anchors():
    assert conditional_same_color_probability(0.0) == 1.0
    assert conditional_same_color_probability(math.pi) == 0.0
    assert conditional_same_color_probability(math.pi / 4) == 0.75


@pytest.mark.parametrize("delta", [0.1, math.pi / 4, 1.0, math.pi / 2, 2.5, 3.0])
def test_same_color_probability_matches_quadrature_oracle(delta):
    oracle = agreement_probability_quadrature(delta)
    assert conditional_same_color_probability(delta) == pytest.approx(oracle, abs=1e-5)


def test_correlation_probability_identity():
    # M = 2P - 1 everywhere
    rng = np.random.default_rng(7)
    for d in rng.uniform(-15, 15, size=1000):
        m = analytic_correlation(d)
        p = conditional_same_color_probability(d)
        assert abs(m - (2.0 * p - 1.0)) <= 1e-12


# ----------------------------------------------------------- estimation

def test_estimate_identical_angles():
    stream = make_phase_stream(PhaseModel(seed=1))
    est = estimate_correlation(stream, 0.3, 0.3, 500)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.n == 500


def test_estimate_anticorrelated_angles():
    stream = make_phase_stream(PhaseModel(seed=1))
    est = estimate_correlation(stream, 0.4, 0.4 + math.pi, 10_000)
    assert est.mean == -1.0
    assert est.stderr == 0.0


def test_estimate_quarter_turn():
    stream = make_phase_stream(PhaseModel(seed=42))
    est = estimate_correlation(stream, 0.0, math.pi / 4, 1_000_000)
    assert abs(est.mean - 0.5) <= 3 * est.stderr


def test_estimate_rejects_zero_samples():
    stream = make_phase_stream(PhaseModel(seed=0))
    with pytest.raises(ValueError):
        estimate_correlation(stream, 0.0, 1.0, 0)


# one full block, one trial past it, and several blocks with a short tail
@pytest.mark.parametrize(
    "n", [BLOCK_TRIALS, BLOCK_TRIALS + 1, 3 * BLOCK_TRIALS + 5], ids=["1b", "1b+1", "3b+5"]
)
@pytest.mark.parametrize("kind", ["iid", "oscillator"])
def test_kernel_sums_equal_one_take_across_block_boundaries(kind, n):
    model = PhaseModel(kind=kind, seed=31)
    pairs = ((0.0, 0.7), (0.7, 2.5), (0.0, 0.0), (-1.0, math.pi))
    stream = make_phase_stream(model)
    stream.skip(11)  # start mid-sequence, off any block boundary
    (sums,) = sign_product_sums([(stream, pairs, n)])
    assert stream.position == 11 + n

    reference = make_phase_stream(model)
    reference.skip(11)
    _, phi = reference.take(n)
    expected = [
        int((dichotomic_array(phi, x).astype(np.int64) * dichotomic_array(phi, y)).sum())
        for x, y in pairs
    ]
    assert sums == expected


KERNEL_MODELS = [
    PhaseModel(seed=31),
    PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=31, burn_in=2**62 + 12345),
]


@pytest.mark.parametrize("n", [1, 2 * BLOCK_TRIALS + 7], ids=["1", "2b+7"])
@pytest.mark.parametrize("model", KERNEL_MODELS, ids=["iid", "oscillator"])
def test_run_counts_equal_a_per_trial_histogram(model, n):
    angles = [0.7, -1.0, 4.0, 0.7]  # 4.0 is read at its wrapped angle
    stream = make_phase_stream(model)
    stream.skip(11)
    other = make_phase_stream(model)
    ((runs, signs), (other_runs, _)) = run_counts([(stream, angles, n), (other, [0.0], 3)])
    assert stream.position == 11 and other.position == 0  # no cursor moves
    assert sum(runs) == n and sum(other_runs) == 3

    wrapped = [wrap_angle(a) for a in angles]
    edges = sorted(set().union(*(sign_edges(a) for a in wrapped)))
    assert len(runs) == len(edges) + 1 and [len(s) for s in signs] == [len(runs)] * 4
    _, phi = PhaseStream(model, start=11).take(n)
    # a trial's step reaches edge e exactly when its phase reaches step_phase(e)
    run_of = np.searchsorted([step_phase(e) for e in edges], phi, side="right")
    assert runs == np.bincount(run_of, minlength=len(runs)).tolist()
    for a, sign in zip(wrapped, signs):
        assert np.array_equal(dichotomic_array(phi, a), np.array(sign)[run_of])

ANGLES = st.one_of(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KERNEL_MODELS),
    st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=4),
)
def test_kernel_sums_equal_one_unblocked_take(model, pairs):
    n = 2 * BLOCK_TRIALS + 7
    stream = make_phase_stream(model)
    stream.skip(1234)
    (sums,) = sign_product_sums([(stream, tuple(pairs), n)])

    reference = make_phase_stream(model)
    reference.skip(1234)
    _, phi = reference.take(n)
    signs = {a: dichotomic_array(phi, wrap_angle(a)).astype(np.int64) for p in pairs for a in p}
    assert sums == [int((signs[x] * signs[y]).sum()) for x, y in pairs]


@settings(max_examples=300, deadline=None)
@given(ANGLES)
@example(math.pi)
@example(-math.pi)
@example(math.nextafter(-math.pi, 0.0))
@example(5e-324)
@example(-5e-324)
@example(math.pi / 2)
@example(math.nextafter(math.pi / 2, 0.0))
def test_each_sign_edge_flips_the_reference_signal(alpha):
    alpha = wrap_angle(alpha)
    edges = sign_edges(alpha)
    assert edges
    assert list(edges) == sorted(set(edges))
    assert all(0 < e < PHASE_STEPS for e in edges)
    before = dichotomic_array(np.array([step_phase(e - 1) for e in edges]), alpha)
    at = dichotomic_array(np.array([step_phase(e) for e in edges]), alpha)
    assert (before != at).all()
    # the scalar cosine reads one signal at both ends of every run
    for first, last in zip((0, *edges), (*(e - 1 for e in edges), PHASE_STEPS - 1)):
        assert dichotomic(step_phase(first), alpha) == dichotomic(step_phase(last), alpha)


@pytest.mark.parametrize("alpha", [2.0**55, -math.pi, 4.0])
def test_sign_edges_rejects_an_unwrapped_angle(alpha):
    with pytest.raises(ValueError):
        sign_edges(alpha)


def test_sign_edges_give_the_exact_correlation_over_every_step():
    # each run of steps between edges holds one signal per angle, so the run
    # lengths weight the full-turn average without drawing a single phase
    special = [math.pi, -math.pi, math.pi / 2, -math.pi / 2, 1e-300, 0.3]
    special = [wrap_angle(a) for a in special]  # as the kernel wraps them
    pairs = [(x, y) for x in special for y in special]
    pairs += np.random.default_rng(7).uniform(-math.pi, math.pi, size=(300, 2)).tolist()
    worst = 0.0
    for x, y in pairs:
        edges = sorted(set(sign_edges(x)) | set(sign_edges(y)))
        runs = np.diff(np.array([0, *edges, PHASE_STEPS], dtype=np.int64))
        first = np.array([0.0, *(step_phase(k) for k in edges)])
        sx = dichotomic_array(first, x).astype(np.int64)
        sy = dichotomic_array(first, y).astype(np.int64)
        exact = int((runs * sx * sy).sum()) / PHASE_STEPS
        worst = max(worst, abs(exact - analytic_correlation(x - y)))
    assert worst <= 1e-15


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=["iid", "oscillator"])
def test_kernel_evaluates_no_signal_per_trial(model, monkeypatch):
    evaluated = []
    reference = signals.dichotomic

    def counting(phi, alpha):
        evaluated.append(1)
        return reference(phi, alpha)

    monkeypatch.setattr(signals, "dichotomic", counting)
    pairs = ((0.0, 0.7), (0.7, 2.5), (-1.0, math.pi))
    per_call = []
    for n in (1, 3 * BLOCK_TRIALS + 5):
        evaluated.clear()
        sign_product_sums([(make_phase_stream(model), pairs, n)])
        per_call.append(sum(evaluated))
    assert per_call[0] == per_call[1] > 0


GAMMA = 0x9E3779B97F4A7C15
GAMMA_INVERSE = pow(GAMMA, -1, 2**64)  # GAMMA is odd, so it is invertible mod 2**64


def record_hashed_trials(monkeypatch, seed):
    """Spy on ``phase._mix``: per call, the trial indices whose counters it mixes.

    splitmix64 mixes ``(t + 1)*GAMMA + seed`` for trial ``t``, so ``t`` is
    recovered exactly.
    """
    calls = []
    reference = phase_module._mix

    def recording(z, scratch):
        calls.append([((c - seed) * GAMMA_INVERSE - 1) % 2**64 for c in z.tolist()])
        return reference(z, scratch)

    monkeypatch.setattr(phase_module, "_mix", recording)
    return calls


@pytest.mark.parametrize("n", [BLOCK_TRIALS, 3 * BLOCK_TRIALS + 5], ids=["1b", "3b+5"])
@pytest.mark.parametrize("model", KERNEL_MODELS, ids=["iid", "oscillator"])
def test_kernel_hashes_each_trial_once_per_block(model, n, monkeypatch):
    if model.kind == OSCILLATOR_ENSEMBLE:
        phase_module._rate_turns(model)  # its one-off rate draw hashes too
    hashed = record_hashed_trials(monkeypatch, model.seed)
    estimate_correlation(make_phase_stream(model), 0.0, 0.7, n)
    # the oscillator is counted in closed form and hashes no trial at all
    assert sum(map(len, hashed)) == (0 if model.kind == OSCILLATOR_ENSEMBLE else n)
    assert all(0 < len(trials) <= BLOCK_TRIALS for trials in hashed)  # memory stays one block


@pytest.mark.parametrize("n", [BLOCK_TRIALS, 2 * BLOCK_TRIALS + 7], ids=["1b", "2b+7"])
def test_iid_kernel_draws_the_serial_range_in_order(n, monkeypatch):
    hashed = record_hashed_trials(monkeypatch, seed=31)
    start, stride, cursor = 5, 3, 17
    stream = PhaseStream(PhaseModel(seed=31), start=start, stride=stride)
    stream.skip(cursor)
    sign_product_sums([(stream, ((0.0, 0.7),), n)])
    in_order = [t for trials in hashed for t in trials]
    assert in_order == [start + stride * (cursor + j) for j in range(n)]


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=["iid", "oscillator"])
@pytest.mark.parametrize("alpha", [1e16, 1e300, -1e17, 0.5 + TWO_PI * 1e6])
def test_angles_outside_the_canonical_range_read_their_wrapped_signal(model, alpha):
    n = 100_000
    est = estimate_correlation(make_phase_stream(model), 0.0, alpha, n)
    assert est == estimate_correlation(make_phase_stream(model), 0.0, wrap_angle(alpha), n)
    assert abs(est.mean - analytic_correlation(alpha)) <= 4 * est.stderr


def test_estimate_advances_the_stream():
    model = PhaseModel(seed=5)
    stream = make_phase_stream(model)
    first = estimate_correlation(stream, 0.0, 1.0, 2000)
    second = estimate_correlation(stream, 0.0, 1.0, 2000)
    assert stream.position == 4000
    assert first.mean != second.mean  # fresh trials, overwhelmingly


def test_estimator_consistency_on_grid():
    # seed recorded as passing the 4-sigma band at every grid point
    model = PhaseModel(seed=42)
    n = 100_000
    for k in range(9):
        delta = k * math.pi / 8
        stream = make_phase_stream(PhaseModel(seed=model.seed + k))
        est = estimate_correlation(stream, 0.0, delta, n)
        target = analytic_correlation(delta)
        if est.stderr == 0.0:
            assert est.mean == target
        else:
            assert abs(est.mean - target) <= 4 * est.stderr


def test_dichotomic_mean_zero():
    n = 100_000
    _, phi = make_phase_stream(PhaseModel(seed=42)).take(n)
    mean = dichotomic_array(phi, 1.2).astype(np.int64).mean()
    assert abs(mean) <= 4.0 / math.sqrt(n)


# --------------------------------------------------- CorrelationEstimate

def test_estimate_mean_is_average_of_unit_products():
    stream = make_phase_stream(PhaseModel(seed=6))
    est = estimate_correlation(stream, 0.0, 0.7, 12_345)
    agreements = (est.n + est.n * est.mean) / 2
    assert agreements == pytest.approx(round(agreements), abs=1e-9)
    assert abs(est.mean) <= 1.0
    assert est.stderr == pytest.approx(
        math.sqrt((1 - est.mean**2) / est.n), abs=1e-12
    )


def test_kernel_rejects_bad_counts():
    stream = make_phase_stream(PhaseModel(seed=0))
    with pytest.raises(ValueError):
        sign_product_sums([(stream, ((0.0, 1.0),), 0)])
    assert stream.position == 0


def test_from_product_sum_validation():
    with pytest.raises(ValueError):
        CorrelationEstimate.from_product_sum(0, 0)
    with pytest.raises(ValueError):
        CorrelationEstimate.from_product_sum(11, 10)
    with pytest.raises(ValueError):
        CorrelationEstimate.from_product_sum(-11, 10)
    with pytest.raises(TypeError):
        CorrelationEstimate.from_product_sum(4.0, 10)


@pytest.mark.parametrize("kind", ["iid", "oscillator"])
def test_estimate_counts_must_be_integers(kind):
    model = PhaseModel(kind=kind, seed=4)
    stream = make_phase_stream(model)
    for n in (10.0, 10.5, np.float64(10.0)):
        with pytest.raises(TypeError):
            estimate_correlation(stream, 0.0, 0.5, n)
        with pytest.raises(TypeError):
            sign_product_sums([(stream, ((0.0, 0.5),), n)])
        with pytest.raises(TypeError):
            CorrelationEstimate.from_product_sum(4, n)
    assert stream.position == 0
    # a numpy integer count gives the estimate of the equal int, in Python numbers
    est = estimate_correlation(stream, 0.0, 0.5, np.int64(10))
    assert est == estimate_correlation(make_phase_stream(model), 0.0, 0.5, 10)
    assert [type(v) for v in (est.mean, est.stderr, est.n)] == [float, float, int]
    assert stream.position == 10 and type(stream.position) is int
