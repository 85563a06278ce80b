import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasebit import (
    IID_UNIFORM,
    OSCILLATOR_ENSEMBLE,
    TWO_PI,
    PhaseModel,
    PhaseStream,
    chunk_quota,
    ensemble_frequencies,
    make_phase_stream,
    phases_at,
    substream,
    wrap_angle,
)
from phasebit import phase as phase_module
from phasebit.phase import PHASE_STEPS, floor_sum, oscillator_steps_below
from phasebit.signals import BLOCK_TRIALS, sign_edges, sign_product_sums
from phasebit.stats import ks_uniformity


# ---------------------------------------------------------------- wrap_angle

def test_wrap_identity():
    assert wrap_angle(0.0) == 0.0


def test_wrap_modular_reduction_boundary():
    assert wrap_angle(3 * math.pi) == math.pi


def test_wrap_already_canonical():
    assert wrap_angle(-math.pi / 2) == -math.pi / 2


@pytest.mark.parametrize(
    "x,expected",
    [
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (2 * math.pi, 0.0),
        (-3 * math.pi / 2, math.pi / 2),
    ],
)
def test_wrap_boundaries(x, expected):
    assert wrap_angle(x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wrap_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        wrap_angle(bad)


@given(st.floats(min_value=-1e4, max_value=1e4))
def test_wrap_range_and_idempotence(x):
    r = wrap_angle(x)
    assert -math.pi < r <= math.pi
    assert wrap_angle(r) == r


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=-50, max_value=50),
)
def test_wrap_is_2pi_periodic(x, k):
    assert wrap_angle(x + TWO_PI * k) == pytest.approx(wrap_angle(x), abs=1e-12)


# ---------------------------------------------------------------- PhaseModel

def test_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PhaseModel(kind="gaussian")


def test_model_rejects_bad_seed():
    with pytest.raises(ValueError):
        PhaseModel(seed=-1)
    with pytest.raises(ValueError):
        PhaseModel(seed=2**64)


def test_model_rejects_bad_ensemble():
    with pytest.raises(ValueError):
        PhaseModel(kind=OSCILLATOR_ENSEMBLE, ensemble_size=0)
    with pytest.raises(ValueError, match="ensemble_size"):
        PhaseModel(kind=OSCILLATOR_ENSEMBLE, ensemble_size=2**20 + 1)
    with pytest.raises(ValueError):
        PhaseModel(kind=OSCILLATOR_ENSEMBLE, frequency_spread=0.0)
    with pytest.raises(ValueError):
        PhaseModel(kind=OSCILLATOR_ENSEMBLE, burn_in=-1)


# rates so large or so small that the phase cannot turn, or a rate sum past the float range
@pytest.mark.parametrize("spread,size", [(1e20, 32), (1e-300, 32), (5e-324, 32), (1e308, 4)])
def test_model_rejects_an_oscillator_that_cannot_turn(spread, size):
    with pytest.raises(ValueError, match="frequency_spread"):
        PhaseModel(kind=OSCILLATOR_ENSEMBLE, frequency_spread=spread, ensemble_size=size)
    # the iid model ignores the spread
    PhaseModel(frequency_spread=spread, ensemble_size=size)


# ---------------------------------------------------------------- streams

def test_stream_determinism_exact():
    model = PhaseModel(kind=IID_UNIFORM, seed=123)
    t1, p1 = make_phase_stream(model).take(5000)
    t2, p2 = make_phase_stream(model).take(5000)
    assert np.array_equal(t1, t2)
    assert np.array_equal(p1, p2)


def test_stream_trial_indices_count_up():
    stream = make_phase_stream(PhaseModel(seed=1))
    t, _ = stream.take(10)
    assert t.tolist() == list(range(10))
    t2, _ = stream.take(3)
    assert t2.tolist() == [10, 11, 12]
    assert stream.position == 13


def test_iid_phases_in_range():
    _, phi = make_phase_stream(PhaseModel(seed=42)).take(100_000)
    assert phi.min() >= 0.0
    assert phi.max() < TWO_PI


def test_iid_mean_sign_near_zero():
    # <sign(cos(phi))> = 0 under the uniform phase law
    n = 100_000
    _, phi = make_phase_stream(PhaseModel(seed=42)).take(n)
    mean = np.where(np.cos(phi) >= 0, 1, -1).mean()
    assert abs(mean) <= 3.0 / math.sqrt(n)


def test_iid_passes_ks_uniformity():
    _, phi = make_phase_stream(PhaseModel(seed=42)).take(100_000)
    result = ks_uniformity(phi)
    assert result.statistic < result.critical_1pct


def test_oscillator_phases_in_range_and_uniform():
    model = PhaseModel(
        kind=OSCILLATOR_ENSEMBLE, seed=42, ensemble_size=32, burn_in=1000
    )
    _, phi = make_phase_stream(model).take(100_000)
    assert phi.min() >= 0.0
    assert phi.max() < TWO_PI
    result = ks_uniformity(phi)
    assert result.statistic < result.critical_1pct


def test_oscillator_frequencies_positive_and_bounded():
    model = PhaseModel(
        kind=OSCILLATOR_ENSEMBLE, seed=5, ensemble_size=64, frequency_spread=2.5
    )
    freqs = ensemble_frequencies(model)
    assert freqs.shape == (64,)
    assert np.all(freqs > 0.0)
    assert np.all(freqs <= 2.5)


def test_oscillator_burn_in_shifts_the_sequence():
    base = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=11, burn_in=0)
    burned = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=11, burn_in=7)
    _, phi_base = make_phase_stream(base).take(20)
    _, phi_burned = make_phase_stream(burned).take(13)
    assert np.array_equal(phi_burned, phi_base[7:])


@pytest.mark.parametrize("burn_in", [0, 2**62, 2**64 + 5])
def test_oscillator_phase_is_exact_at_any_burn_in(burn_in):
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=13, burn_in=burn_in)
    # the summed angular rate as a 64-bit fraction of a turn
    r = int(math.ldexp(math.fsum(ensemble_frequencies(model).tolist()) / TWO_PI % 1.0, 64))
    expected = [
        ((r * (t + burn_in)) % 2**64 >> 11) * 2**-53 * TWO_PI for t in range(2000)
    ]
    assert phases_at(model, np.arange(2000)).tolist() == expected


def test_floor_sum_equals_brute_force():
    # a and b up to 3*m, so both of the loop's reductions run
    for m in range(1, 13):
        for a in range(3 * m + 1):
            for b in range(3 * m + 1):
                for n in range(13):
                    expected = sum((a * j + b) // m for j in range(n))
                    assert floor_sum(n, m, a, b) == expected, (n, m, a, b)


OSCILLATOR_EDGES = sorted(
    {0, 1, 2, 2**52, PHASE_STEPS - 1, PHASE_STEPS}
    | {e for alpha in (0.0, 0.7, -1.0, math.pi, 1e16) for e in sign_edges(alpha)}
)


@pytest.mark.parametrize("burn_in", [0, 2**62 + 12345, 2**64 + 5])
@pytest.mark.parametrize("stride,chunk", [(1, 0), (4, 3), (51, 50)])
@pytest.mark.parametrize("cursor", [0, 2**62 - 3])
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_oscillator_steps_below_match_a_big_int_enumeration(burn_in, stride, chunk, cursor, n):
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=13, burn_in=burn_in)
    # the summed angular rate as a 64-bit fraction of a turn
    r = int(math.ldexp(math.fsum(ensemble_frequencies(model).tolist()) / TWO_PI % 1.0, 64))
    stream = substream(make_phase_stream(model), chunk, stride)
    stream.skip(cursor)
    steps = [
        (r * (chunk + stride * (cursor + j) + burn_in)) % 2**64 >> 11 for j in range(n)
    ]
    expected = [sum(k < e for k in steps) for e in OSCILLATOR_EDGES]
    assert oscillator_steps_below(stream, n, OSCILLATOR_EDGES) == expected
    assert stream.position == cursor


def test_oscillator_steps_below_rejects_the_iid_model():
    with pytest.raises(ValueError):
        oscillator_steps_below(make_phase_stream(PhaseModel(seed=1)), 10, [1])


def test_oscillator_phases_stay_distinct_past_2pow53():
    # a float64 trial index past 2**53 collapses neighbouring trials onto one phase
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=13, burn_in=2**62)
    _, phi = make_phase_stream(model).take(100_000)
    assert np.unique(phi).size == 100_000


def test_oscillator_rates_are_drawn_once_per_model(monkeypatch):
    calls = []
    draw = phase_module.ensemble_frequencies
    monkeypatch.setattr(
        phase_module, "ensemble_frequencies", lambda model: calls.append(model) or draw(model)
    )
    stream = make_phase_stream(PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=20261018))
    sign_product_sums(stream, ((0.0, 1.0),), 3 * BLOCK_TRIALS)
    assert len(calls) <= 1


def _splitmix64(seed, counter):
    """Pure-Python splitmix64 on ints: the reference for ``phase._hash64``."""
    mask = 2**64 - 1
    z = ((counter + 1) * 0x9E3779B97F4A7C15 + seed) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize(
    "seed,counter,expected",
    [
        # seed 0, counter 0 is splitmix64's published first output for seed 0
        (0, 0, 0xE220A8397B1DCDAF),
        (0, 1, 0x6E789E6AA1B965F4),
        (42, 123456789, 0x3DB9D96568CDF223),
        (2**64 - 1, 0, 0xE4D971771B652C20),
        (2**64 - 1, 2**62 + 12345, 0x835ECA2D5F5B5EF9),
        # the far end of int64; seed 2**64 - 1 wraps the folded GAMMA + seed
        (0, 2**31, 0x706EDE5CFCDC9A1C),
        (0, 2**53 - 1, 0xAB29BC09EEA9E507),
        (2**64 - 1, 2**53 + 1, 0x7DF56C28D5577CBA),
        (0, 2**63 - 1, 0x25C26EA579CEA98A),
        (2**64 - 1, 2**63 - 1, 0x5A682AFE7965DEBD),
    ],
)
def test_hash64_pinned_values(seed, counter, expected):
    out = phase_module._hash64(seed, np.array([counter, counter], dtype=np.int64))
    assert out.dtype == np.uint64
    assert out.tolist() == [expected, expected]
    assert _splitmix64(seed, counter) == expected


@pytest.mark.parametrize(
    "model",
    [
        PhaseModel(seed=2**64 - 1),
        PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=9, burn_in=2**62 + 12345),
    ],
    ids=["iid", "oscillator"],
)
def test_phase_steps_give_the_phases_of_take(model):
    stream = make_phase_stream(model)
    stream.skip(7)
    t, phi = stream.take(2000)
    assert t.tolist() == list(range(7, 2007))
    trials, phases = t.tolist(), phi.tolist()
    # single trials out to the last int64 index, where the float and int64 views must stay exact
    for i in (0, 1, 2**31, 2**53 - 1, 2**53 + 1, 2**62 + 12345, 2**63 - 1):
        t, phi = PhaseStream(model, start=i).take(1)
        assert t.tolist() == [i]
        trials += t.tolist()
        phases += phi.tolist()
    if model.kind == IID_UNIFORM:
        turns = [_splitmix64(model.seed, i) for i in trials]
    else:
        r = int(math.ldexp(math.fsum(ensemble_frequencies(model).tolist()) / TWO_PI % 1.0, 64))
        turns = [r * (i + model.burn_in) % 2**64 for i in trials]
    steps = [z >> 11 for z in turns]
    assert max(steps) < phase_module.PHASE_STEPS
    assert [phase_module.step_phase(k) for k in steps] == phases


def test_phases_at_rejects_negative_trials():
    with pytest.raises(ValueError):
        phases_at(PhaseModel(seed=0), np.array([-1]))


# ---------------------------------------------------------------- substreams

def test_single_chunk_is_the_serial_stream():
    model = PhaseModel(seed=77)
    serial = make_phase_stream(model)
    sub = substream(make_phase_stream(model), 0, 1)
    ts, ps = serial.take(1000)
    tc, pc = sub.take(1000)
    assert np.array_equal(ts, tc)
    assert np.array_equal(ps, pc)


def test_four_chunks_partition_1000_trials():
    model = PhaseModel(seed=77)
    pieces = []
    for c in range(4):
        sub = substream(make_phase_stream(model), c, 4)
        quota = chunk_quota(1000, c, 4)
        assert quota == 250
        t, phi = sub.take(quota)
        pieces.append((t, phi))
    all_t = np.concatenate([t for t, _ in pieces])
    all_phi = np.concatenate([p for _, p in pieces])
    assert sorted(all_t.tolist()) == list(range(1000))
    # the union is the serial stream as a multiset of (t, phi) pairs
    order = np.argsort(all_t)
    _, serial_phi = make_phase_stream(model).take(1000)
    assert np.array_equal(all_phi[order], serial_phi)


def test_substream_respects_parent_position():
    model = PhaseModel(seed=3)
    parent = make_phase_stream(model)
    parent.take(10)
    sub = substream(parent, 1, 3)
    t, _ = sub.take(4)
    assert t.tolist() == [11, 14, 17, 20]


def test_substream_rejects_out_of_range_chunk():
    stream = make_phase_stream(PhaseModel(seed=0))
    with pytest.raises(ValueError):
        substream(stream, 4, 4)
    with pytest.raises(ValueError):
        substream(stream, -1, 4)
    with pytest.raises(ValueError):
        substream(stream, 0, 0)


def test_chunk_quota_sums_to_total():
    for total in (0, 1, 7, 100, 1001):
        for chunks in (1, 2, 3, 4, 7):
            quotas = [chunk_quota(total, c, chunks) for c in range(chunks)]
            assert sum(quotas) == total


def test_stream_rejects_bad_construction():
    with pytest.raises(ValueError):
        PhaseStream(PhaseModel(seed=0), start=-1)
    with pytest.raises(ValueError):
        PhaseStream(PhaseModel(seed=0), stride=0)
    stream = make_phase_stream(PhaseModel(seed=0))
    with pytest.raises(ValueError):
        stream.take(-1)
    with pytest.raises(ValueError):
        stream.skip(-1)
    # a window whose trial indices cross 2**63 is refused, not wrapped
    for start, stride, count in ((2**63 - 10, 1, 20), (0, 2**62, 3)):
        window = PhaseStream(PhaseModel(seed=0), start=start, stride=stride)
        with pytest.raises(ValueError):
            window.take(count)
        assert window.position == 0
