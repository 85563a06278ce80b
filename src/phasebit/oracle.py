"""Exact state-vector reference for small qubit counts.

Dense amplitude vectors up to 10 qubits, the unitary Hadamard and CNOT, and
singlet-pair correlations for measurement directions in the X-Z plane.
Expectation values are computed directly from explicit state vectors, never
from closed forms, so the closed forms (``E = -cos(a - b)``, CHSH up to
``2*sqrt(2)``) remain independent cross-checks for the tests.

Basis convention: qubit 0 is the most significant bit of the amplitude
index, so for two qubits the order is ``|00>, |01>, |10>, |11>``.

The two-qubit singlet correlations, which ``chsh`` and ``compare`` use, are
evaluated on Python complex numbers with the operations numpy's
``np.vdot(psi, np.kron(A, B) @ psi)`` performs, in its order, and give the
same floats without importing numpy.  The n-qubit states and gates import
numpy when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MAX_QUBITS = 10
_NORM_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# (|01> - |10>) / sqrt2, the amplitudes of singlet_state()
_SINGLET = (0j, complex(_INV_SQRT2), complex(-_INV_SQRT2), 0j)


@dataclass(frozen=True)
class QuantumState:
    """Normalized complex amplitude vector over ``n_qubits``."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        if not 1 <= int(self.n_qubits) <= _MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{_MAX_QUBITS}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 2**self.n_qubits:
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got {amps.size}"
            )
        norm_sq = float(np.real(np.vdot(amps, amps)))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def basis_state(n_qubits: int, index: int) -> QuantumState:
    """Computational basis state with the given amplitude index."""
    import numpy as np

    if not 1 <= n_qubits <= _MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{_MAX_QUBITS}")
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside 0..{dim - 1}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return QuantumState(n_qubits, amps)


def _check_qubit(state: QuantumState, index: int, name: str) -> None:
    if not 0 <= index < state.n_qubits:
        raise ValueError(f"{name} qubit {index} outside 0..{state.n_qubits - 1}")


def apply_hadamard(state: QuantumState, target: int) -> QuantumState:
    """Apply the unitary Hadamard ``(1/sqrt2) [[1, 1], [1, -1]]`` to one qubit."""
    import numpy as np

    _check_qubit(state, target, "target")
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    psi = state.amplitudes.reshape([2] * state.n_qubits)
    psi = np.tensordot(hadamard, psi, axes=([1], [target]))
    psi = np.moveaxis(psi, 0, target)
    return QuantumState(state.n_qubits, psi.reshape(-1))


def apply_cnot(state: QuantumState, control: int, target: int) -> QuantumState:
    """Permute basis amplitudes: the target bit flips wherever control is 1."""
    _check_qubit(state, control, "control")
    _check_qubit(state, target, "target")
    if control == target:
        raise ValueError("control and target must differ")
    psi = state.amplitudes.reshape([2] * state.n_qubits).copy()

    def sel(c_bit: int, t_bit: int) -> tuple:
        idx = [slice(None)] * state.n_qubits
        idx[control] = c_bit
        idx[target] = t_bit
        return tuple(idx)

    flipped = psi[sel(1, 1)].copy()
    psi[sel(1, 1)] = psi[sel(1, 0)]
    psi[sel(1, 0)] = flipped
    return QuantumState(state.n_qubits, psi.reshape(-1))


def _spin_rows(theta: float) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The rows of :func:`observable` as Python complex numbers."""
    c, s = complex(math.cos(theta)), complex(math.sin(theta))
    return ((c, s), (s, -c))


def observable(theta: float) -> np.ndarray:
    """Spin observable ``cos(theta) Z + sin(theta) X`` for one qubit.

    Hermitian with eigenvalues ``+-1``; ``theta = 0`` measures Z,
    ``theta = pi/2`` measures X.
    """
    import numpy as np

    return np.array(_spin_rows(theta), dtype=complex)


def singlet_state() -> QuantumState:
    """The two-qubit singlet ``(|01> - |10>) / sqrt2``."""
    import numpy as np

    return QuantumState(2, np.array(_SINGLET, dtype=complex))


def singlet_correlation(a: float, b: float) -> float:
    """Joint ``+-1`` expectation on the singlet for settings ``a`` and ``b``.

    Evaluated as ``<psi| A(a) (x) B(b) |psi>`` on the explicit singlet
    vector: entry ``(i, j)`` of ``A (x) B`` is ``A[i >> 1][j >> 1] *
    B[i & 1][j & 1]``, and both sums run in index order, in complex
    arithmetic, as numpy's ``kron``, ``@`` and ``vdot`` compute them.
    """
    rows_a, rows_b = _spin_rows(a), _spin_rows(b)
    total = 0j
    for i in range(4):
        op_psi = 0j
        for j in range(4):
            op_psi += rows_a[i >> 1][j >> 1] * rows_b[i & 1][j & 1] * _SINGLET[j]
        total += _SINGLET[i].conjugate() * op_psi
    return total.real


def chsh_quantum(a1: float, a2: float, b1: float, b2: float) -> float:
    """Signed CHSH combination of four singlet correlations.

    Uses the same ``+ - + +`` assembly as the classical side; the magnitude
    reaches ``2*sqrt(2)`` at the optimal settings.
    """
    e = singlet_correlation
    return e(a1, b1) - e(a1, b2) + e(a2, b1) + e(a2, b2)
