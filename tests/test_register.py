import math
import tracemalloc

import numpy as np
import pytest

import phasebit
from phasebit import (
    Balanced,
    Definite,
    PhaseModel,
    VirtualRegister,
    analytic_correlation,
    apply_cnot_to_bits,
    cnot,
    conditional_same_color_probability,
    hadamard,
    initialize,
    make_phase_stream,
)
from phasebit import register
from phasebit.phase import BLOCK_TRIALS
from phasebit.register import _accepted_count
from phasebit.signals import dichotomic_array


def _trial_bits(qubits, phi):
    """Reference bits, one row per trial and one column per qubit: green (+1) is bit 0."""
    return np.stack([
        np.full(phi.shape, q.bit, dtype=np.int8)
        if isinstance(q, Definite)
        else (dichotomic_array(phi, q.alpha) < 0).view(np.int8)
        for q in qubits
    ], axis=1)


def fresh_register(qubits, seed=42, signal_index=0):
    return VirtualRegister(qubits, make_phase_stream(PhaseModel(seed=seed)), signal_index)


# ------------------------------------------------------------- qubit states

def test_definite_validates_bit():
    assert Definite(0).bit == 0
    assert Definite(1).bit == 1
    with pytest.raises(ValueError):
        Definite(2)


def test_definite_takes_an_integer_bit():
    for bit in (1.0, 0.0, np.float64(1.0), "1"):
        with pytest.raises(TypeError):
            Definite(bit)
    for bit in (True, np.int8(1), np.uint64(1)):
        q = Definite(bit)
        assert type(q.bit) is int and q.bit == 1
        assert q == Definite(1)
        assert cnot(q.bit, 0) == 1
    assert type(Definite(False).bit) is int


def test_balanced_wraps_angle():
    assert Balanced(3 * math.pi).alpha == math.pi
    assert Balanced(-math.pi / 2).alpha == -math.pi / 2


def test_register_validation():
    stream = make_phase_stream(PhaseModel(seed=0))
    with pytest.raises(ValueError):
        VirtualRegister([], stream)
    with pytest.raises(ValueError):
        VirtualRegister([Definite(0)], stream, signal_index=1)
    with pytest.raises(TypeError):
        VirtualRegister([Definite(0), "nope"], stream)
    for not_a_stream in (None, PhaseModel(seed=0)):
        with pytest.raises(TypeError, match="not a phase stream"):
            VirtualRegister([Balanced(0.0)], not_a_stream)
    for alpha in ("1", None, 1j):
        with pytest.raises(TypeError, match="^alpha must be a real number"):
            Balanced(alpha)


def test_register_takes_an_integer_signal_index():
    stream = make_phase_stream(PhaseModel(seed=0))
    qubits = [Balanced(0.0), Balanced(1.0)]
    for index in (1.0, 0.5, np.float64(0.0), "0"):
        with pytest.raises(TypeError):
            VirtualRegister(qubits, stream, signal_index=index)
    for index in (True, np.int64(1)):
        reg = VirtualRegister(qubits, make_phase_stream(PhaseModel(seed=0)), signal_index=index)
        assert type(reg.signal_index) is int and reg.signal_index == 1
        accepted = initialize(reg, 100)
        assert np.all(accepted[:, 1] == 0)
        reference = initialize(fresh_register(qubits, seed=0, signal_index=1), 100)
        assert np.array_equal(accepted, reference)


# ------------------------------------------------------- single-trial rules

def test_one_trial_all_definite_zero_is_accepted():
    accepted = initialize(fresh_register([Definite(0), Definite(0), Definite(0)]), 1)
    assert len(accepted) == 1
    assert accepted.tolist() == [[0, 0, 0]]


def test_one_trial_definite_one_signal_rejects():
    reg = fresh_register([Definite(1), Balanced(0.0)])
    accepted = initialize(reg, 1)
    assert len(accepted) == 0
    assert reg.stream.position == 1


def test_accepted_signal_zero_forces_opposite_target_at_pi():
    # signal and target read anticorrelated signals, so acceptance pins
    # the target to bit 1
    reg = fresh_register([Balanced(0.0), Balanced(math.pi)], seed=8)
    bits = initialize(reg, 1000)
    assert 0 < len(bits) < 1000
    assert np.all(bits[:, 0] == 0)
    assert np.all(bits[:, 1] == 1)


def test_target_agreement_fraction_at_quarter_angle():
    reg = fresh_register([Balanced(0.0), Balanced(math.pi / 4)], seed=42)
    accepted = initialize(reg, 100_000)
    n = len(accepted)
    p_same = float(np.mean(accepted[:, 1] == 0))
    expected = conditional_same_color_probability(math.pi / 4)  # 0.75
    stderr = math.sqrt(p_same * (1 - p_same) / n)
    assert abs(p_same - expected) <= 4 * stderr


# --------------------------------------------------------------- initialize

def test_initialize_forced_acceptance():
    qubits = [Definite(0), Balanced(1.0)]
    accepted = initialize(fresh_register(qubits), 500)
    assert len(accepted) == 500
    _, phi = make_phase_stream(PhaseModel(seed=42)).take(500)
    assert np.array_equal(accepted, _trial_bits(qubits, phi))


def test_initialize_forced_rejection_outputs_nothing():
    reg = fresh_register([Definite(1), Balanced(1.0)])
    accepted = initialize(reg, 500)
    assert len(accepted) == 0
    assert reg.stream.position == 500


def test_initialize_acceptance_rate_half():
    trials = 100_000
    reg = fresh_register([Balanced(2.0)], seed=42)
    accepted = initialize(reg, trials)
    rate = len(accepted) / trials
    assert abs(rate - 0.5) <= 4 * 0.5 / math.sqrt(trials)
    assert np.all(accepted[:, 0] == 0)


def test_initialize_rejects_zero_trials():
    reg = fresh_register([Balanced(0.0)])
    with pytest.raises(ValueError):
        initialize(reg, 0)


def test_initialize_takes_an_integer_trial_count():
    qubits = [Balanced(0.0), Balanced(1.0)]
    reg = fresh_register(qubits)
    for trials in (100.0, 100.5, np.float64(100.0)):
        with pytest.raises(TypeError):
            initialize(reg, trials)
    assert reg.stream.position == 0
    accepted = initialize(reg, np.int64(100))
    assert np.array_equal(accepted, initialize(fresh_register(qubits), 100))
    assert type(len(accepted)) is int and type(reg.stream.position) is int


def test_shared_phase_correlation_between_qubits():
    # unconditional pair correlation: keep every trial by pinning the signal
    alpha_k, alpha_l = 0.9, 0.9 + 2.2
    reg = fresh_register([Definite(0), Balanced(alpha_k), Balanced(alpha_l)], seed=42)
    accepted = initialize(reg, 100_000)
    signs = 1 - 2 * accepted[:, 1:].astype(np.int64)
    mean = float((signs[:, 0] * signs[:, 1]).mean())
    stderr = math.sqrt((1 - mean**2) / len(accepted))
    assert abs(mean - analytic_correlation(alpha_k - alpha_l)) <= 4 * stderr


@pytest.mark.parametrize("signal_index", [0, 2])
@pytest.mark.parametrize("kind", ["iid", "oscillator"])
def test_blocked_initialize_equals_one_unblocked_take(kind, signal_index):
    qubits = [Balanced(0.3), Definite(1), Balanced(2.1), Definite(0), Balanced(-1.2)]
    model = PhaseModel(kind=kind, seed=17)
    trials = 2 * BLOCK_TRIALS + 5
    stream = make_phase_stream(model)
    stream.skip(13)  # start mid-sequence, off any block boundary
    accepted = initialize(VirtualRegister(qubits, stream, signal_index), trials)
    assert stream.position == 13 + trials

    reference = make_phase_stream(model)
    reference.skip(13)
    _, phi = reference.take(trials)
    bits = _trial_bits(qubits, phi)
    keep = bits[:, signal_index] == 0
    assert 0 < len(accepted) == keep.sum() < trials
    assert np.array_equal(accepted, bits[keep])


@pytest.mark.parametrize("kind", ["iid", "oscillator"])
def test_initialize_evaluates_no_cosine_per_trial(kind, monkeypatch):
    qubits = [Balanced(k * math.pi / 8) for k in range(8)]
    model = PhaseModel(kind=kind, seed=5)
    trials = 70001
    _, phi = make_phase_stream(model).take(trials)
    bits = np.stack([(np.cos(phi + q.alpha) < 0.0).view(np.int8) for q in qubits], axis=1)
    keep = bits[:, 0] == 0

    cosine = np.cos
    evaluated = []

    def counting(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return cosine(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting)
    accepted = initialize(VirtualRegister(qubits, make_phase_stream(model)), trials)
    assert sum(evaluated) == 0
    assert np.array_equal(accepted, bits[keep])


def test_initialize_memory_does_not_grow_with_records():
    reg = fresh_register([Balanced(0.4 * k) for k in range(8)], seed=3)
    tracemalloc.start()
    try:
        accepted = initialize(reg, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 400_000 < len(accepted) < 600_000
    assert accepted.nbytes == 8 * len(accepted)
    # the output once, plus block buffers: no second copy of the accepted records
    assert peak < accepted.nbytes + 48 * BLOCK_TRIALS


SIGNAL_CASES = [
    ([Balanced(0.3), Definite(1), Balanced(2.1), Balanced(-1.2)], 0),
    ([Balanced(0.3), Definite(1), Balanced(2.1), Balanced(-1.2)], 3),
    ([Definite(0), Balanced(2.1), Balanced(-1.2)], 0),
    ([Balanced(0.3), Balanced(2.1), Definite(1)], 2),
]
MODELS = [
    PhaseModel(kind="iid", seed=17),
    PhaseModel(kind="oscillator", seed=17),
    PhaseModel(kind="oscillator", seed=17, burn_in=2**62 + 12345),
]


@pytest.mark.parametrize("trials", [1, 2 * BLOCK_TRIALS + 5])
@pytest.mark.parametrize("qubits,signal_index", SIGNAL_CASES)
@pytest.mark.parametrize("model", MODELS, ids=["iid", "oscillator", "oscillator-burn-in"])
def test_accepted_count_equals_the_per_trial_count(model, qubits, signal_index, trials):
    stream = make_phase_stream(model)
    stream.skip(13)
    reg = VirtualRegister(qubits, stream, signal_index)
    count = _accepted_count(reg, trials)
    assert stream.position == 13
    reference = make_phase_stream(model)
    reference.skip(13)
    _, phi = reference.take(trials)
    assert count == int(np.count_nonzero(_trial_bits(qubits, phi)[:, signal_index] == 0))
    assert len(initialize(reg, trials)) == count


@pytest.mark.parametrize("error", [-1, 1])
@pytest.mark.parametrize("trials", [1000, 2 * BLOCK_TRIALS + 5])
def test_initialize_raises_when_the_bits_disagree_with_the_count(monkeypatch, error, trials):
    qubits = [Balanced(0.0), Balanced(1.0)]
    count = _accepted_count(fresh_register(qubits), trials)
    monkeypatch.setattr(register, "_accepted_count", lambda reg, n: count + error)
    with pytest.raises(RuntimeError):
        initialize(fresh_register(qubits), trials)


@pytest.mark.parametrize("signal_index", [0, 1])
def test_accepted_trials_contract(signal_index):
    qubits = [Balanced(0.0), Balanced(1.1), Definite(1)]
    reg = fresh_register(qubits, seed=6, signal_index=signal_index)
    count = _accepted_count(reg, 50)
    accepted = initialize(reg, 50)
    assert type(accepted) is np.ndarray and accepted.dtype == np.int8
    assert 2 < count < 50
    assert accepted.shape == (count, 3) and len(accepted) == count
    assert np.all(accepted[:, signal_index] == 0)
    assert np.all(accepted[:, 2] == 1)
    # each qubit's column is contiguous
    assert accepted.flags.f_contiguous
    assert not hasattr(phasebit, "AcceptedTrials")


def test_no_accepted_trial_gives_empty_columns():
    accepted = initialize(fresh_register([Definite(1), Balanced(0.5)]), 100)
    assert len(accepted) == 0
    assert accepted.shape == (0, 2) and accepted.dtype == np.int8


# ----------------------------------------------------------------- hadamard

def test_hadamard_balanced_becomes_definite_zero():
    assert hadamard(Balanced(0.7)) == Definite(0)


def test_hadamard_definite_becomes_balanced():
    assert hadamard(Definite(0)) == Balanced(0.0)
    assert hadamard(Definite(1)) == Balanced(0.0)


def test_hadamard_balanced_rule_holds_for_every_angle():
    rng = np.random.default_rng(11)
    for alpha in rng.uniform(-10, 10, size=200):
        assert hadamard(Balanced(alpha)) == Definite(0)


def test_hadamard_is_not_an_involution():
    # composing the two rules funnels everything into Definite(0),
    # unlike the unitary gate where H @ H == I
    assert hadamard(hadamard(Definite(1))) == Definite(0)
    assert hadamard(hadamard(Definite(0))) == Definite(0)


def test_hadamard_rejects_non_qubit():
    with pytest.raises(TypeError):
        hadamard("balanced")


# --------------------------------------------------------------------- cnot

@pytest.mark.parametrize(
    "control,target,expected",
    [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
)
def test_cnot_truth_table(control, target, expected):
    assert cnot(control, target) == expected


def test_cnot_rejects_non_bits():
    with pytest.raises(ValueError):
        cnot(2, 0)
    with pytest.raises(ValueError):
        cnot(0, -1)
    for control, target in ((1.0, 0), (0, 1.0)):
        with pytest.raises(TypeError):
            cnot(control, target)


def test_apply_cnot_to_bits_flips_target_where_control_set():
    bits = np.array([[1, 0], [0, 0], [1, 1], [0, 1]], dtype=np.int8)
    out = apply_cnot_to_bits(bits, 0, 1)
    assert out.tolist() == [[1, 1], [0, 0], [1, 0], [0, 1]]
    assert out.dtype == np.int8
    # the input array, control column included, is untouched
    assert bits.tolist() == [[1, 0], [0, 0], [1, 1], [0, 1]]


def test_apply_cnot_to_bits_takes_the_records_of_initialize():
    reg = fresh_register([Balanced(0.0), Balanced(1.4), Balanced(2.9)], seed=4)
    bits = initialize(reg, 2000)
    out = apply_cnot_to_bits(bits, 2, 1)
    assert out.tolist() == [[s, cnot(c, t), c] for s, t, c in bits.tolist()]
    # a copy with the same layout: each qubit's column stays contiguous
    assert out.flags.f_contiguous and not np.shares_memory(out, bits)


def test_apply_cnot_is_an_involution():
    reg = fresh_register([Balanced(0.2), Balanced(1.4), Balanced(2.9)], seed=4)
    bits = initialize(reg, 2000)
    before = bits.copy()
    once = apply_cnot_to_bits(bits, 1, 2)
    twice = apply_cnot_to_bits(once, 1, 2)
    assert np.array_equal(twice, bits)
    assert np.array_equal(bits, before)
    assert not np.array_equal(once, bits)
    # control column bitwise identical before and after
    assert np.array_equal(once[:, 1], bits[:, 1])


def test_apply_cnot_validation():
    bits = np.array([[0, 1]], dtype=np.int8)
    for control, target in [(1, 1), (0, 2), (2, 0), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            apply_cnot_to_bits(bits, control, target)


def test_apply_cnot_takes_integer_indices_only():
    bits = np.array([[1, 0], [0, 0], [1, 1], [0, 1]], dtype=np.int8)
    expected = apply_cnot_to_bits(bits, 0, 1).tolist()
    for control, target in [(np.int64(0), np.uint8(1)), (False, True)]:
        assert apply_cnot_to_bits(bits, control, target).tolist() == expected
    for control, target in [(1.0, 0), (0, 1.0), (0, "1")]:
        with pytest.raises(TypeError):
            apply_cnot_to_bits(bits, control, target)


def test_apply_cnot_validates_indices_with_no_accepted_trial():
    bits = initialize(fresh_register([Definite(1), Balanced(0.5)]), 100)
    assert bits.shape == (0, 2)
    with pytest.raises(ValueError):
        apply_cnot_to_bits(bits, 0, 5)
    assert apply_cnot_to_bits(bits, 0, 1).shape == (0, 2)
