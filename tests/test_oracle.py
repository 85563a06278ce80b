import math
import os
import subprocess
import sys
from pathlib import Path

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
    with pytest.raises(TypeError):
        state.amplitudes[0] = 0.0


def test_states_compare_and_hash_by_value():
    assert singlet_state() == singlet_state()
    assert singlet_state() == QuantumState(2, np.array([0, 1, -1, 0]) / SQRT2)
    assert basis_state(2, 1) != basis_state(2, 2)
    assert basis_state(1, 0) != apply_hadamard(basis_state(1, 0), 0)
    assert hash(basis_state(1, 0)) == hash(QuantumState(1, [1.0, 0.0]))
    assert len({basis_state(1, 0), basis_state(1, 0), basis_state(1, 1)}) == 2


def test_qubit_counts_and_indices_must_be_integers():
    amps = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(TypeError):
        QuantumState(2.0, amps)
    with pytest.raises(TypeError):
        basis_state(2.0, 1)
    with pytest.raises(TypeError):
        basis_state(2, 1.0)
    state = basis_state(2, 0)
    with pytest.raises(TypeError):
        apply_hadamard(state, 1.0)
    with pytest.raises(TypeError):
        apply_cnot(state, 0.0, 1)
    with pytest.raises(TypeError):
        apply_cnot(state, 0, 1.0)


def test_numpy_integers_and_bools_act_as_the_equal_int():
    state = QuantumState(np.int64(2), [1.0, 0.0, 0.0, 0.0])
    assert type(state.n_qubits) is int and state == basis_state(2, 0)
    assert type(QuantumState(True, [1.0, 0.0]).n_qubits) is int
    assert basis_state(np.uint8(2), np.int32(3)) == basis_state(2, 3)
    assert basis_state(2, True) == basis_state(2, 1)
    plus = apply_hadamard(state, 0)
    assert apply_hadamard(state, np.int64(0)) == plus
    assert apply_hadamard(state, False) == plus
    assert apply_cnot(plus, np.int16(0), True) == apply_cnot(plus, 0, 1)


# -------------------------------------------------------------------- gates

def numpy_hadamard(amplitudes, n_qubits, target):
    """Dense ``tensordot`` Hadamard on one axis: the reference for ``apply_hadamard``."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    psi = np.asarray(amplitudes, dtype=complex).reshape([2] * n_qubits)
    psi = np.tensordot(hadamard, psi, axes=([1], [target]))
    return np.moveaxis(psi, 0, target).reshape(-1)


def numpy_cnot(amplitudes, n_qubits, control, target):
    """Slice-swap CNOT on the ``[2] * n`` tensor: the reference for ``apply_cnot``."""
    psi = np.array(amplitudes, dtype=complex).reshape([2] * n_qubits)

    def sel(c_bit, t_bit):
        idx = [slice(None)] * n_qubits
        idx[control] = c_bit
        idx[target] = t_bit
        return tuple(idx)

    flipped = psi[sel(1, 1)].copy()
    psi[sel(1, 1)] = psi[sel(1, 0)]
    psi[sel(1, 0)] = flipped
    return psi.reshape(-1)


def test_gates_match_the_numpy_references():
    rng = np.random.default_rng(22)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            state = random_state(n, rng)
            for target in range(n):
                np.testing.assert_allclose(
                    apply_hadamard(state, target).amplitudes,
                    numpy_hadamard(state.amplitudes, n, target),
                    rtol=0, atol=1e-15,
                )
                for control in range(n):
                    if control != target:
                        # a permutation: equal, not merely close
                        assert apply_cnot(state, control, target).amplitudes == tuple(
                            numpy_cnot(state.amplitudes, n, control, target)
                        )


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
        op = np.array(observable(theta))
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


def test_oracle_runs_without_numpy():
    # GHZ, the singlet and CHSH with site-packages, and so numpy, out of reach
    script = (
        "import sys\n"
        "from phasebit.oracle import *\n"
        "ghz = apply_cnot(apply_cnot(apply_hadamard(basis_state(3, 0), 0), 0, 1), 1, 2)\n"
        f"s = chsh_quantum(*{CANONICAL!r})\n"
        "assert 'numpy' not in sys.modules\n"
        "print(repr((ghz.amplitudes, singlet_state().amplitudes, s)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    ghz = apply_cnot(apply_cnot(apply_hadamard(basis_state(3, 0), 0), 0, 1), 1, 2)
    expected = (ghz.amplitudes, singlet_state().amplitudes, chsh_quantum(*CANONICAL))
    assert done.stdout.decode() == repr(expected) + "\n"
    assert ghz.amplitudes == (complex(1 / SQRT2), 0j, 0j, 0j, 0j, 0j, 0j, complex(1 / SQRT2))


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
