import math
import tracemalloc

import numpy as np
import pytest

from phasebit import (
    AcceptedTrials,
    Balanced,
    Definite,
    PhaseModel,
    TrialRecord,
    VirtualRegister,
    analytic_correlation,
    apply_cnot_to_records,
    cnot,
    conditional_same_color_probability,
    hadamard,
    initialize,
    make_phase_stream,
    measure_trial,
)
from phasebit.register import _trial_bits
from phasebit.signals import BLOCK_TRIALS


def fresh_register(qubits, seed=42, signal_index=0):
    return VirtualRegister(qubits, make_phase_stream(PhaseModel(seed=seed)), signal_index)


# ------------------------------------------------------------- qubit states

def test_definite_validates_bit():
    assert Definite(0).bit == 0
    assert Definite(1).bit == 1
    with pytest.raises(ValueError):
        Definite(2)


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


def test_register_angles_property():
    reg = fresh_register([Definite(1), Balanced(0.5)])
    assert reg.angles == (None, 0.5)


# ------------------------------------------------------------ measure_trial

def test_measure_all_definite_zero():
    reg = fresh_register([Definite(0), Definite(0), Definite(0)])
    rec = measure_trial(reg)
    assert rec.bits == (0, 0, 0)
    assert rec.accepted


def test_measure_definite_one_signal_rejects():
    reg = fresh_register([Definite(1), Balanced(0.0)])
    rec = measure_trial(reg)
    assert rec.bits[0] == 1
    assert not rec.accepted


def test_accepted_signal_zero_forces_opposite_target_at_pi():
    # signal and target read anticorrelated signals, so acceptance pins
    # the target to bit 1
    reg = fresh_register([Balanced(0.0), Balanced(math.pi)], seed=8)
    for _ in range(1000):
        rec = measure_trial(reg)
        assert rec.accepted == (rec.bits[0] == 0)
        if rec.accepted:
            assert rec.bits[1] == 1


def test_target_agreement_fraction_at_quarter_angle():
    reg = fresh_register([Balanced(0.0), Balanced(math.pi / 4)], seed=42)
    records = initialize(reg, 100_000)
    n = len(records)
    p_same = sum(1 for r in records if r.bits[1] == 0) / n
    expected = conditional_same_color_probability(math.pi / 4)  # 0.75
    stderr = math.sqrt(p_same * (1 - p_same) / n)
    assert abs(p_same - expected) <= 4 * stderr


# --------------------------------------------------------------- initialize

def test_initialize_forced_acceptance():
    reg = fresh_register([Definite(0), Balanced(1.0)])
    records = initialize(reg, 500)
    assert len(records) == 500
    assert all(r.accepted for r in records)


def test_initialize_forced_rejection_outputs_nothing():
    reg = fresh_register([Definite(1), Balanced(1.0)])
    assert initialize(reg, 500) == []


def test_initialize_acceptance_rate_half():
    trials = 100_000
    reg = fresh_register([Balanced(2.0)], seed=42)
    records = initialize(reg, trials)
    rate = len(records) / trials
    assert abs(rate - 0.5) <= 4 * 0.5 / math.sqrt(trials)
    assert all(r.bits[0] == 0 for r in records)


def test_initialize_rejects_zero_trials():
    reg = fresh_register([Balanced(0.0)])
    with pytest.raises(ValueError):
        initialize(reg, 0)


def test_initialize_equals_repeated_measure_trial():
    qubits = [Balanced(0.3), Balanced(2.1), Definite(1)]
    bulk = initialize(fresh_register(list(qubits), seed=99), 200)
    loop_reg = fresh_register(list(qubits), seed=99)
    looped = [measure_trial(loop_reg) for _ in range(200)]
    assert bulk == [r for r in looped if r.accepted]


def test_shared_phase_correlation_between_qubits():
    # unconditional pair correlation: keep every trial by pinning the signal
    alpha_k, alpha_l = 0.9, 0.9 + 2.2
    reg = fresh_register([Definite(0), Balanced(alpha_k), Balanced(alpha_l)], seed=42)
    records = initialize(reg, 100_000)
    values = np.array([[1 - 2 * r.bits[1], 1 - 2 * r.bits[2]] for r in records])
    mean = float((values[:, 0] * values[:, 1]).mean())
    stderr = math.sqrt((1 - mean**2) / len(records))
    assert abs(mean - analytic_correlation(alpha_k - alpha_l)) <= 4 * stderr


@pytest.mark.parametrize("signal_index", [0, 2])
@pytest.mark.parametrize("kind", ["iid", "oscillator"])
def test_blocked_initialize_equals_one_unblocked_take(kind, signal_index):
    qubits = [Balanced(0.3), Definite(1), Balanced(2.1), Definite(0), Balanced(-1.2)]
    model = PhaseModel(kind=kind, seed=17)
    trials = 2 * BLOCK_TRIALS + 5
    stream = make_phase_stream(model)
    stream.skip(13)  # start mid-sequence, off any block boundary
    records = initialize(VirtualRegister(qubits, stream, signal_index), trials)
    assert stream.position == 13 + trials

    reference = make_phase_stream(model)
    reference.skip(13)
    t, phi = reference.take(trials)
    bits = _trial_bits(qubits, phi)
    expected = [
        TrialRecord(int(t[i]), tuple(int(b) for b in bits[:, i]), True)
        for i in np.flatnonzero(bits[signal_index] == 0)
    ]
    assert 0 < len(expected) < trials
    assert list(records) == expected


@pytest.mark.parametrize("kind", ["iid", "oscillator"])
def test_initialize_evaluates_no_cosine_per_trial(kind, monkeypatch):
    qubits = [Balanced(k * math.pi / 8) for k in range(8)]
    model = PhaseModel(kind=kind, seed=5)
    trials = 70001
    t, phi = make_phase_stream(model).take(trials)
    bits = np.stack([(np.cos(phi + q.alpha) < 0.0).view(np.int8) for q in qubits])
    keep = bits[0] == 0

    cosine = np.cos
    evaluated = []

    def counting(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return cosine(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting)
    records = initialize(VirtualRegister(qubits, make_phase_stream(model)), trials)
    assert sum(evaluated) == 0
    assert np.array_equal(records.t, t[keep])
    assert np.array_equal(records.bits, bits[:, keep])


def test_initialize_memory_does_not_grow_with_records():
    reg = fresh_register([Balanced(0.4 * k) for k in range(8)], seed=3)
    tracemalloc.start()
    try:
        records = initialize(reg, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 400_000 < len(records) < 600_000
    assert peak < 32 * 2**20


def test_accepted_trials_behave_like_a_list():
    reg = fresh_register([Balanced(0.0), Balanced(1.1), Definite(1)], seed=6)
    records = initialize(reg, 50)
    as_list = list(records)
    assert isinstance(records, AcceptedTrials)
    assert len(records) == len(as_list) > 2
    assert records[-1] == as_list[-1]
    assert records[1:3] == as_list[1:3]
    assert [r for r in records] == as_list
    assert records == as_list and as_list == records
    assert not (records != as_list) and not (as_list != records)
    assert records != as_list[:-1] and as_list[:-1] != records
    assert apply_cnot_to_records(records, 1, 2) == apply_cnot_to_records(as_list, 1, 2)


def test_no_accepted_trial_gives_an_empty_sequence():
    records = initialize(fresh_register([Definite(1), Balanced(0.5)]), 100)
    assert records == [] and [] == records
    assert len(records) == 0 and list(records) == []
    assert records.bits.shape == (2, 0)


# ----------------------------------------------------------------- hadamard

def test_hadamard_balanced_becomes_definite_zero():
    assert hadamard(Balanced(0.7)) == Definite(0)


def test_hadamard_definite_becomes_balanced():
    assert hadamard(Definite(0), default_alpha=0.4) == Balanced(0.4)
    assert hadamard(Definite(1), default_alpha=0.4) == Balanced(0.4)


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


def test_apply_cnot_to_records_flips_target_when_control_set():
    records = [
        TrialRecord(0, (1, 0), False),
        TrialRecord(1, (0, 1), True),
    ]
    out = apply_cnot_to_records(records, 0, 1)
    assert out[0].bits == (1, 1)
    assert out[1].bits == (0, 1)
    # acceptance verdicts and trial indices are untouched
    assert [(r.t, r.accepted) for r in out] == [(0, False), (1, True)]


def test_apply_cnot_is_an_involution():
    reg = fresh_register([Balanced(0.2), Balanced(1.4), Balanced(2.9)], seed=4)
    records = initialize(reg, 2000)
    once = apply_cnot_to_records(records, 1, 2)
    twice = apply_cnot_to_records(once, 1, 2)
    assert twice == records
    # control column bitwise identical before and after
    assert [r.bits[1] for r in once] == [r.bits[1] for r in records]


def test_apply_cnot_validation():
    records = [TrialRecord(0, (0, 1), True)]
    with pytest.raises(ValueError):
        apply_cnot_to_records(records, 1, 1)
    with pytest.raises(ValueError):
        apply_cnot_to_records(records, 0, 2)
