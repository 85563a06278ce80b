import math

import numpy as np
import pytest

from phasebit import (
    QuantumState,
    analytic_chsh,
    apply_cnot,
    apply_hadamard,
    basis_state,
    chsh_quantum,
    observable,
    singlet_correlation,
    singlet_state,
)

SQRT2 = math.sqrt(2.0)
CANONICAL = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def random_state(n_qubits, rng):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return QuantumState(n_qubits, amps / np.linalg.norm(amps))


# -------------------------------------------------------------- construction

def test_state_requires_normalization():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([1.0, 1.0]))


def test_state_requires_matching_dimension():
    with pytest.raises(ValueError):
        QuantumState(2, np.array([1.0, 0.0]))


def test_state_caps_qubit_count():
    with pytest.raises(ValueError):
        basis_state(11, 0)
    with pytest.raises(ValueError):
        basis_state(0, 0)


def test_basis_state_index_range():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    assert basis_state(2, 3).amplitudes[3] == 1.0


def test_amplitudes_are_read_only():
    state = basis_state(1, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# -------------------------------------------------------------------- gates

def test_hadamard_columns():
    plus = apply_hadamard(basis_state(1, 0), 0)
    np.testing.assert_allclose(plus.amplitudes, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    minus = apply_hadamard(basis_state(1, 1), 0)
    np.testing.assert_allclose(minus.amplitudes, [1 / SQRT2, -1 / SQRT2], atol=1e-15)


def test_hadamard_is_involution_on_random_states():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        state = random_state(n, rng)
        for target in range(n):
            back = apply_hadamard(apply_hadamard(state, target), target)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_hadamard_rejects_bad_index():
    with pytest.raises(ValueError):
        apply_hadamard(basis_state(2, 0), 2)


def test_cnot_on_basis_states():
    # |10> -> |11>, |00> -> |00>  (qubit 0 is the most significant bit)
    flipped = apply_cnot(basis_state(2, 0b10), 0, 1)
    assert flipped.amplitudes[0b11] == 1.0
    untouched = apply_cnot(basis_state(2, 0b00), 0, 1)
    assert untouched.amplitudes[0b00] == 1.0


def test_cnot_is_involution_and_validates():
    rng = np.random.default_rng(1)
    state = random_state(3, rng)
    back = apply_cnot(apply_cnot(state, 0, 2), 0, 2)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)
    with pytest.raises(ValueError):
        apply_cnot(state, 1, 1)
    with pytest.raises(ValueError):
        apply_cnot(state, 0, 3)


def test_bell_state_preparation():
    state = apply_cnot(apply_hadamard(basis_state(2, 0), 0), 0, 1)
    np.testing.assert_allclose(
        state.amplitudes, [1 / SQRT2, 0.0, 0.0, 1 / SQRT2], atol=1e-15
    )


def test_gates_preserve_norm():
    rng = np.random.default_rng(2)
    state = random_state(4, rng)
    for _ in range(25):
        target = int(rng.integers(4))
        state = apply_hadamard(state, target)
        other = int(rng.integers(4))
        if other != target:
            state = apply_cnot(state, target, other)
        norm_sq = float(np.real(np.vdot(state.amplitudes, state.amplitudes)))
        assert abs(norm_sq - 1.0) <= 1e-12


# -------------------------------------------------------------- observables

def test_observable_is_hermitian_with_unit_eigenvalues():
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-math.pi, math.pi, size=50):
        op = observable(theta)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-15)
        eigs = np.sort(np.linalg.eigvalsh(op))
        np.testing.assert_allclose(eigs, [-1.0, 1.0], atol=1e-12)


# ------------------------------------------------------------------ singlet

def test_singlet_state_is_antisymmetric():
    amps = singlet_state().amplitudes
    np.testing.assert_allclose(amps, [0, 1 / SQRT2, -1 / SQRT2, 0], atol=1e-15)


def test_singlet_correlation_anchors():
    assert singlet_correlation(0.7, 0.7) == pytest.approx(-1.0, abs=1e-12)
    assert singlet_correlation(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    assert singlet_correlation(0.0, math.pi / 4) == pytest.approx(-SQRT2 / 2, abs=1e-12)


def test_singlet_correlation_matches_closed_form():
    # state-vector expectation vs the independent closed form -cos(a - b)
    rng = np.random.default_rng(4)
    pairs = rng.uniform(-2 * math.pi, 2 * math.pi, size=(1000, 2))
    for a, b in pairs:
        assert singlet_correlation(a, b) == pytest.approx(-math.cos(a - b), abs=1e-12)


def numpy_singlet_correlation(a, b):
    """``<psi| A(a) (x) B(b) |psi>`` in numpy: the reference for ``singlet_correlation``."""
    psi = singlet_state().amplitudes
    return float(np.real(np.vdot(psi, np.kron(observable(a), observable(b)) @ psi)))


def test_singlet_correlation_equals_the_numpy_expression_bit_for_bit():
    grid = [k * math.pi / 16 for k in range(-32, 33)]
    pairs = [(a, b) for a in grid for b in grid]
    pairs += np.random.default_rng(20030101).uniform(-10.0, 10.0, size=(10_000, 2)).tolist()
    for a, b in pairs:
        # hex tells -0.0 from 0.0, which print differently
        assert singlet_correlation(a, b).hex() == numpy_singlet_correlation(a, b).hex(), (a, b)
    assert singlet_correlation(0.0, math.pi / 2) == -6.123233995736765e-17


# --------------------------------------------------------------------- CHSH

def test_chsh_quantum_canonical_magnitude():
    s = chsh_quantum(*CANONICAL)
    assert abs(abs(s) - 2 * SQRT2) <= 1e-12


def test_chsh_quantum_equal_angles():
    s = chsh_quantum(0.4, 0.4, 0.4, 0.4)
    assert abs(abs(s) - 2.0) <= 1e-12


def test_chsh_quantum_tsirelson_bound():
    rng = np.random.default_rng(5)
    quadruples = rng.uniform(-math.pi, math.pi, size=(1000, 4))
    worst = max(abs(chsh_quantum(*q)) for q in quadruples)
    assert worst <= 2 * SQRT2 + 1e-9


def test_quantum_to_classical_ratio_is_sqrt2():
    ratio = abs(chsh_quantum(*CANONICAL)) / abs(analytic_chsh(*CANONICAL))
    assert abs(ratio - SQRT2) <= 1e-12
