import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phasebit import (
    IID_UNIFORM,
    OSCILLATOR_ENSEMBLE,
    TWO_PI,
    Balanced,
    CorrelationEstimate,
    Definite,
    PhaseModel,
    PhaseStream,
    VirtualRegister,
    apply_cnot,
    apply_hadamard,
    basis_state,
    chunk_quota,
    initialize,
    make_phase_stream,
    phases_at,
    substream,
    wrap_angle,
)
from phasebit import phase as phase_module
from phasebit.phase import _LANES, BLOCK_TRIALS, PHASE_STEPS, floor_sum, step_phase, steps_below
from phasebit.signals import sign_edges, sign_product_sums
from phasebit.stats import ks_uniformity


def ensemble_frequencies(model):
    """The oscillator's rates in numpy: the reference ``phase._rates`` is pinned to."""
    steps = phase_module._steps(
        phase_module._hash64(model.seed ^ phase_module._FREQ_TAG, np.arange(model.ensemble_size))
    )
    return model.frequency_spread * ((steps + 1.0) * 2.0**-53)  # exact: steps + 1 <= 2**53


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


@pytest.mark.parametrize("kind", [IID_UNIFORM, OSCILLATOR_ENSEMBLE])
@pytest.mark.parametrize("field", ["seed", "ensemble_size", "burn_in"])
def test_model_takes_only_integer_seed_size_and_burn_in(field, kind):
    # a float seed would hash in float arithmetic and give another stream
    with pytest.raises(TypeError):
        PhaseModel(kind=kind, **{field: 5.0})
    model = PhaseModel(kind=kind, **{field: np.int64(5)})
    assert type(getattr(model, field)) is int and getattr(model, field) == 5


@pytest.mark.parametrize("kind", [IID_UNIFORM, OSCILLATOR_ENSEMBLE])
@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_numpy_integer_seed_gives_the_stream_of_the_equal_int(kind, seed):
    model = PhaseModel(kind=kind, seed=np.uint64(seed))
    assert model == PhaseModel(kind=kind, seed=seed)
    assert type(model.seed) is int
    t = np.arange(4)
    assert phases_at(model, t).tolist() == phases_at(PhaseModel(kind=kind, seed=seed), t).tolist()


@pytest.mark.parametrize("kind", [IID_UNIFORM, OSCILLATOR_ENSEMBLE])
@pytest.mark.parametrize("spread", [np.float32(0.1), "0.10000000149011612"])
def test_model_stores_the_spread_as_a_python_float(spread, kind):
    model = PhaseModel(kind=kind, seed=20261018, frequency_spread=spread)
    assert type(model.frequency_spread) is float
    assert model.frequency_spread == float(np.float32(0.1))
    if kind == OSCILLATOR_ENSEMBLE:
        # the stream numpy gave a float32 spread by multiplying it into float64 rates;
        # a float32 spread times a Python float stays float32 under NEP 50
        expected = ["0x0.0p+0", "0x1.ce7235bb9a286p+0", "0x1.ce7235bb9a286p+1", "0x1.5ad5a84cb39e4p+2"]
        assert [x.hex() for x in phases_at(model, np.arange(4)).tolist()] == expected


@pytest.mark.parametrize(
    "size,spread",
    [
        *itertools.product(
            [1, 32, _LANES - 1, _LANES, _LANES + 1, 4096, 2**16 + 1],
            [1e-3, 1.0, 1e12, 1e15, 1e300, 1e308],
        ),
        (2**20, 1.0),
    ],
)
def test_rates_from_python_ints_equal_the_numpy_rates(size, spread):
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=20261018, ensemble_size=size)
    # the model refuses the spreads whose phase cannot turn, so the spread is set
    # past that check here to compare the rates themselves
    object.__setattr__(model, "frequency_spread", spread)
    python = [r.hex() for r in phase_module._rates(model)]
    assert python == [r.hex() for r in ensemble_frequencies(model).tolist()]
    assert len(python) == size and all(0.0 < float.fromhex(r) <= spread for r in python)


# rates so large or so small that the phase cannot turn, or a rate sum past the float range
@pytest.mark.parametrize(
    "spread,size", [(1e20, 32), (1e-300, 32), (5e-324, 32), (1e308, 4), (1e308, 4096)]
)
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
    freqs = list(phase_module._rates(model))
    assert len(freqs) == 64
    assert all(0.0 < f <= 2.5 for f in freqs)


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


BOTH_MODELS = [
    PhaseModel(seed=31),
    PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=31, burn_in=2**62 + 12345),
]
OSCILLATOR_EDGES = sorted(
    {0, 1, 2, 2**52, PHASE_STEPS - 1, PHASE_STEPS}
    | {e for alpha in (0.0, 0.7, -1.0, math.pi, wrap_angle(1e16)) for e in sign_edges(alpha)}
)


@pytest.mark.parametrize("burn_in", [0, 2**62 + 12345, 2**64 + 5])
@pytest.mark.parametrize("stride,chunk", [(1, 0), (4, 3), (51, 50)])
@pytest.mark.parametrize("cursor", [0, "last"])
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_steps_below_oscillator_match_a_big_int_enumeration(burn_in, stride, chunk, cursor, n):
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=13, burn_in=burn_in)
    # the summed angular rate as a 64-bit fraction of a turn
    r = int(math.ldexp(math.fsum(ensemble_frequencies(model).tolist()) / TWO_PI % 1.0, 64))
    if cursor == "last":  # the furthest cursor whose n trials stay below 2**63
        cursor = (2**63 - 1 - chunk) // stride - (n - 1)
    stream = substream(make_phase_stream(model), chunk, stride)
    stream.skip(cursor)
    steps = [
        (r * (chunk + stride * (cursor + j) + burn_in)) % 2**64 >> 11 for j in range(n)
    ]
    expected = [sum(k < e for k in steps) for e in OSCILLATOR_EDGES]
    assert steps_below([(stream, n, OSCILLATOR_EDGES)])[0] == expected
    assert stream.position == cursor


@pytest.mark.parametrize("seed", [0, 13, 2**64 - 1])
def test_steps_below_iid_match_a_big_int_splitmix64_enumeration(seed):
    # an iid stream is counted by its hashes, not by the oscillator's closed form
    start, stride, cursor, n = 7, 5, 3, 200
    stream = PhaseStream(PhaseModel(seed=seed), start=start, stride=stride)
    stream.skip(cursor)
    steps = [_splitmix64(seed, start + stride * (cursor + j)) >> 11 for j in range(n)]
    expected = [sum(k < e for k in steps) for e in OSCILLATOR_EDGES]
    assert steps_below([(stream, n, OSCILLATOR_EDGES)])[0] == expected
    assert stream.position == cursor


@pytest.mark.parametrize("n", [1, BLOCK_TRIALS, BLOCK_TRIALS + 1])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stride", [1, 17])
@pytest.mark.parametrize("at_end", [False, True], ids=["start3", "ends-at-2^63-1"])
def test_iid_steps_below_equal_the_step_counts_of_phases_at(at_end, stride, seed, n):
    cursor = 12345  # not on a block boundary
    start = 2**63 - 1 - stride * (cursor + n - 1) if at_end else 3
    stream = PhaseStream(PhaseModel(seed=seed), start=start, stride=stride)
    stream.skip(cursor)
    # steps 0 and PHASE_STEPS count no trial and every trial; PHASE_STEPS << 11 is 2**64
    edges = {e for alpha in (0.0, 0.7, -1.0, math.pi) for e in sign_edges(alpha)}
    steps = sorted({0, PHASE_STEPS} | edges)
    below = steps_below([(stream, n, steps)])[0]
    assert stream.position == cursor
    t, phi = stream.take(n)
    assert t[-1] == (2**63 - 1 if at_end else start + stride * (cursor + n - 1))
    # a sign edge's step is the first to reach the edge, so the phase of the step
    # before is smaller and "step below e" is "phase below step_phase(e)"
    assert below == [int(np.count_nonzero(phi < step_phase(e))) for e in steps]
    assert below[0] == 0 and below[-1] == n


@pytest.mark.parametrize("model", BOTH_MODELS, ids=["iid", "oscillator"])
def test_steps_below_refuses_a_window_past_2pow63_before_any_work(model, monkeypatch):
    if model.kind == OSCILLATOR_ENSEMBLE:
        phase_module._rate_turns(model)  # its one-off rate draw hashes too
    mixed, counted = [], []
    monkeypatch.setattr(phase_module, "_mix", lambda z, scratch: mixed.append(len(z)))
    for name in ("_iid_turns_below", "_iid_turns_below_int", "_oscillator_turns_below"):
        monkeypatch.setattr(phase_module, name, lambda *args, name=name: counted.append(name))
    # the first block's trials are valid; the window's last trial is past 2**63
    stream = PhaseStream(model, start=2**63 - BLOCK_TRIALS - 10)
    with pytest.raises(ValueError):
        steps_below([(stream, 2 * BLOCK_TRIALS, [1, 2**52])])
    with pytest.raises(ValueError):
        sign_product_sums([(stream, ((0.0, 1.0),), 2 * BLOCK_TRIALS)])
    # a bad last window stops the call before its valid first windows are counted
    good = [make_phase_stream(model), PhaseStream(model, start=5, stride=3)]
    for n in (1, 2 * BLOCK_TRIALS):
        with pytest.raises(ValueError):
            steps_below([(good[0], n, [2**52]), (good[1], n, [1]), (stream, 2 * BLOCK_TRIALS, [1])])
        with pytest.raises(ValueError):
            sign_product_sums(
                [(s, ((0.0, 1.0),), n) for s in good] + [(stream, ((0.0, 1.0),), 2 * BLOCK_TRIALS)]
            )
    assert [s.position for s in (stream, *good)] == [0, 0, 0]
    assert mixed == [] and counted == []


@pytest.mark.parametrize("model", BOTH_MODELS, ids=["iid", "oscillator"])
def test_steps_below_rejects_bad_steps_and_counts(model):
    stream = make_phase_stream(model)
    for n, steps in ((-1, [1]), (10, [-1]), (10, [PHASE_STEPS + 1]), (10, [1, PHASE_STEPS + 1])):
        with pytest.raises(ValueError):
            steps_below([(stream, n, steps)])
    with pytest.raises(TypeError):
        steps_below([(stream, 10, [1.0])])
    assert steps_below([(stream, 0, [0, 1, PHASE_STEPS])])[0] == [0, 0, 0]
    assert stream.position == 0


def test_an_iid_window_with_no_limit_below_2pow64_hashes_no_trial(monkeypatch):
    hashed = []
    monkeypatch.setattr(phase_module, "_mix", lambda *args: hashed.append("_mix"))
    monkeypatch.setattr(phase_module, "_lane_turns", lambda *args: hashed.append("_lane_turns"))
    n = 10**6
    stream = make_phase_stream(PhaseModel(seed=7))
    assert steps_below([(stream, n, [])]) == [[]]
    assert steps_below([(stream, n, [PHASE_STEPS])]) == [[n]]
    assert steps_below([(stream, 3, [PHASE_STEPS] * 2), (stream, 5, [])]) == [[3, 3], []]
    # each window is still checked before any work
    late = PhaseStream(PhaseModel(seed=7), start=2**63 - 10)
    for steps in ([], [PHASE_STEPS]):
        with pytest.raises(ValueError):
            steps_below([(late, 11, steps)])
    assert stream.position == late.position == 0
    assert hashed == []


def test_oscillator_phases_stay_distinct_past_2pow53():
    # a float64 trial index past 2**53 collapses neighbouring trials onto one phase
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=13, burn_in=2**62)
    _, phi = make_phase_stream(model).take(100_000)
    assert np.unique(phi).size == 100_000


def test_oscillator_rates_are_drawn_once_per_model(monkeypatch):
    calls = []
    draw = phase_module._rates
    monkeypatch.setattr(phase_module, "_rates", lambda model: calls.append(model) or draw(model))
    phase_module._rate_turns.cache_clear()
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=20261018)
    for _ in range(2):
        sign_product_sums([(make_phase_stream(model), ((0.0, 1.0),), 3 * BLOCK_TRIALS)])
    assert calls == [model]


LIMITS = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 2**11, 2**64 - 1, 2**64]),
    st.integers(0, PHASE_STEPS).map(lambda step: step << 11),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**62),
    stride=st.one_of(st.sampled_from([1, 17, 51]), st.integers(1, 2**40)),
    # 2**11 trials fill one Python-int pass; 4 * BLOCK_TRIALS is the most hashed in Python ints
    n=st.one_of(
        st.integers(1, 64), st.integers(1, BLOCK_TRIALS),
        st.sampled_from([2**11 - 1, 2**11, 2**11 + 1, 4 * BLOCK_TRIALS]),
    ),
    near_end=st.booleans(),
    limits=st.lists(LIMITS, max_size=8).flatmap(
        lambda base: st.permutations(base + base[: len(base) // 2])
    ),
)
@example(
    seed=2**64 - 1, start=0, stride=2**40, n=BLOCK_TRIALS, near_end=True,
    limits=[2**64, 0, 2**63, 2**63],
)
@example(seed=2**64 - 1, start=0, stride=1, n=1, near_end=True, limits=[0, 1, 2**64 - 1, 2**64])
@example(
    seed=0, start=2**62, stride=17, n=2**11 - 1, near_end=False,
    limits=[2**64 - 1, 2**63, 1, 2**63, 0],
)
@example(
    seed=2**64 - 1, start=0, stride=51, n=2**11, near_end=True,
    limits=[2**64, 2**64 - 1, 2**64 - 1, 1, 0],
)
@example(seed=20030101, start=5, stride=17, n=2**11 + 1, near_end=False, limits=[2**63, 2**63])
@example(
    seed=2**64 - 1, start=0, stride=51, n=4 * BLOCK_TRIALS, near_end=True,
    limits=[0, 1, 2**62, 2**63, 2**63, 2**64 - 1, 2**64],
)
@example(seed=7, start=0, stride=1, n=4 * BLOCK_TRIALS, near_end=False, limits=[2**63, 2**64 - 1])
def test_python_int_count_equals_the_numpy_count_bit_for_bit(
    seed, start, stride, n, near_end, limits
):
    # near_end puts the window's last trial at 2**63 - 1
    first = 2**63 - 1 - stride * (n - 1) if near_end else start
    # a limit equal to a trial's turns must not count that trial
    hit = _splitmix64(seed, first + stride * (n - 1))
    limits = [*limits, hit, hit + 1]
    window = (PhaseModel(seed=seed), first, stride, n, limits)
    (by_ints,) = phase_module._iid_turns_below_int([window])
    (by_numpy,) = phase_module._iid_turns_below([window])
    assert by_ints == by_numpy
    assert [type(c) for c in by_ints] == [int] * len(limits)


# a block of 2**14 counters is built from rows of 4096: around a row, one, two and four
# blocks, and a row past four blocks
SPLIT_POINTS = [
    1, 4095, 4096, 4097, 2**14 - 1, 2**14, 2**14 + 1, 2**15 - 1, 2**15, 2**15 + 1, 2**16 + 4097
]


@pytest.mark.parametrize("stride", [1, 17])
@pytest.mark.parametrize("n", SPLIT_POINTS)
@pytest.mark.parametrize("near_end", [False, True], ids=["start", "end"])
def test_numpy_count_equals_the_python_int_count_at_the_row_and_block_splits(
    n, stride, near_end
):
    # near_end puts the window's last trial at 2**63 - 1
    first = 2**63 - 1 - stride * (n - 1) if near_end else 12345
    last = _splitmix64(9, first + stride * (n - 1))
    limits = [0, 1, 2**62, 2**63, last, last + 1, 2**64 - 1, 2**64]
    window = (PhaseModel(seed=9), first, stride, n, limits)
    assert phase_module._iid_turns_below([window]) == phase_module._iid_turns_below_int([window])


def test_one_numpy_call_counts_windows_of_several_strides_and_sizes():
    windows = [
        (PhaseModel(seed=s), first, stride, n, [2**62, 2**64, 0, 2**63])
        for s, first, stride, n in [
            (1, 0, 1, 2 * BLOCK_TRIALS + 3), (2, 9, 4, 10), (3, 5, 4, 0), (4, 2**62, 2**40, 700),
        ]
    ]
    together = phase_module._iid_turns_below(windows)
    assert together == [phase_module._iid_turns_below([w])[0] for w in windows]
    assert together[1:] == phase_module._iid_turns_below_int(windows[1:])


def _splitmix64(seed, counter):
    """Pure-Python splitmix64 on ints: the reference for ``phase._hash64``."""
    mask = 2**64 - 1
    z = ((counter + 1) * 0x9E3779B97F4A7C15 + seed) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_mix_keeps_the_dtype_and_buffer_of_its_input():
    # uint64 operands throughout, so no promotion rule can move a pass to float64
    counters = (0, 1, 2**62 + 12345, 2**63 - 1)
    z = np.array([(c + 1) * 0x9E3779B97F4A7C15 % 2**64 for c in counters], dtype=np.uint64)
    data = z.ctypes.data
    out = phase_module._mix(z, np.empty_like(z))
    assert out is z and out.dtype == np.uint64 and out.ctypes.data == data
    assert out.tolist() == [_splitmix64(0, c) for c in counters]


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
    assert phase_module._lane_turns(seed, counter, 1, 1) == expected


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


def test_phases_at_refuses_unsigned_indices_past_int64():
    model = PhaseModel(seed=0)
    last = np.array([2**63 - 1], dtype=np.uint64)
    assert phases_at(model, last).tolist() == phases_at(model, [2**63 - 1]).tolist()
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        phases_at(model, last + np.uint64(1))


def test_phases_at_names_the_range_of_a_list_of_ints_past_int64():
    # numpy reads these lists as object and float64, not as an integer dtype
    model = PhaseModel(seed=0)
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        phases_at(model, [2**64])
    with pytest.raises(ValueError, match="nonnegative"):
        phases_at(model, [-1, 2**63])
    with pytest.raises(TypeError):
        phases_at(model, [1.5])


def test_phases_at_takes_integer_and_bool_indices_and_an_empty_input():
    model = PhaseModel(seed=0)
    expected = phases_at(model, np.array([0, 1], dtype=np.int64)).tolist()
    for trials in ([0, 1], np.array([0, 1], dtype=np.uint8), np.array([False, True])):
        assert phases_at(model, trials).tolist() == expected
    assert phases_at(model, []).shape == (0,)


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
    with pytest.raises(TypeError):
        substream(stream, 1.0, 4)


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


# ------------------------------------------------ integer counts and windows

_IID = PhaseModel(seed=1)
_OSCILLATOR = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=1)
# Each entry point that takes a trial count, a window or a chunk, fed ``value`` there.
COUNT_ENTRY_POINTS = {
    "start": lambda value: PhaseStream(_IID, start=value),
    "stride": lambda value: PhaseStream(_IID, stride=value),
    "take": lambda value: make_phase_stream(_IID).take(value),
    "skip": lambda value: make_phase_stream(_IID).skip(value),
    "steps_below_iid": lambda value: steps_below([(make_phase_stream(_IID), value, [2**52])]),
    "steps_below_oscillator":
        lambda value: steps_below([(make_phase_stream(_OSCILLATOR), value, [2**52])]),
    "substream_chunk_index": lambda value: substream(make_phase_stream(_IID), value, 4),
    "substream_num_chunks": lambda value: substream(make_phase_stream(_IID), 0, value),
    "chunk_quota_total": lambda value: chunk_quota(value, 0, 4),
    "chunk_quota_chunk_index": lambda value: chunk_quota(10, value, 4),
    "chunk_quota_num_chunks": lambda value: chunk_quota(10, 0, value),
    "phases_at": lambda value: phases_at(_IID, [value]),
}


@pytest.mark.parametrize("value", [2.0, 2.5, np.float64(2.0)], ids=["2.0", "2.5", "np2.0"])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_and_windows_refuse_floats(entry, value):
    # rounding or truncating a float count would draw or skip other trials
    with pytest.raises(TypeError):
        COUNT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("kind", [IID_UNIFORM, OSCILLATOR_ENSEMBLE])
def test_numpy_integer_counts_give_the_stream_of_the_equal_ints(kind):
    model = PhaseModel(kind=kind, seed=9)
    stream = PhaseStream(model, start=np.int64(3), stride=np.uint32(2))
    stream.skip(np.int16(1))
    t, phi = stream.take(np.int64(5))
    reference = PhaseStream(model, start=3, stride=2)
    reference.skip(1)
    t_ref, phi_ref = reference.take(5)
    assert t.tolist() == t_ref.tolist() and phi.tolist() == phi_ref.tolist()
    assert [type(v) for v in (stream.start, stream.stride, stream.position)] == [int] * 3

    sub = substream(stream, np.int64(1), np.uint8(3))
    assert (sub.start, sub.stride) == (17, 6)
    assert type(sub.start) is int and type(sub.stride) is int
    quota = chunk_quota(np.int64(10), np.int32(1), np.uint64(3))
    assert quota == 3 and type(quota) is int
    below = steps_below([(stream, np.int64(100), [2**52])])[0]
    assert below == steps_below([(stream, 100, [2**52])])[0]
    assert [type(v) for v in below] == [int]


# Every public integer input: (its name, a call fed ``value`` there, its last
# valid value, the value one step past it).
INTEGER_INPUTS = [
    ("trials", lambda value: initialize(VirtualRegister([Balanced(0.0)], make_phase_stream(_IID)),
                                        value), 1, 0),
    ("count", lambda value: make_phase_stream(_IID).take(value), 0, -1),
    ("start", lambda value: PhaseStream(_IID, start=value), 0, -1),
    ("stride", lambda value: PhaseStream(_IID, stride=value), 1, 0),
    ("n", lambda value: CorrelationEstimate.from_product_sum(0, value), 1, 0),
    ("num_chunks", lambda value: substream(make_phase_stream(_IID), 0, value), 1, 0),
    ("chunk_index", lambda value: chunk_quota(10, value, 4), 3, 4),
    ("seed", lambda value: PhaseModel(seed=value), 2**64 - 1, 2**64),
    ("ensemble_size", lambda value: PhaseModel(ensemble_size=value), 2**20, 2**20 + 1),
    ("burn_in", lambda value: PhaseModel(kind=OSCILLATOR_ENSEMBLE, burn_in=value), 0, -1),
    ("bit", Definite, 1, 2),
    ("signal_index",
     lambda value: VirtualRegister([Balanced(0.0)] * 2, make_phase_stream(_IID), value), 1, 2),
    ("n_qubits", lambda value: basis_state(value, 0), 10, 11),
    ("index", lambda value: basis_state(2, value), 3, 4),
    ("control", lambda value: apply_cnot(basis_state(2, 0), value, 1), 0, -1),
    ("target", lambda value: apply_hadamard(basis_state(2, 0), value), 1, 2),
]


@pytest.mark.parametrize(
    "name,call,last,past", INTEGER_INPUTS, ids=[entry[0] for entry in INTEGER_INPUTS]
)
def test_every_integer_input_names_itself_when_refused(name, call, last, past):
    call(last)
    with pytest.raises(TypeError, match=rf"^{name} must be an integer"):
        call(float(last))
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(past)
