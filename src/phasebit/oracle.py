"""Exact state-vector reference for small qubit counts.

Dense amplitude vectors up to 10 qubits, the unitary Hadamard and CNOT, and
singlet-pair correlations for measurement directions in the X-Z plane.
Expectation values are computed directly from explicit state vectors, never
from closed forms, so the closed forms (``E = -cos(a - b)``, CHSH up to
``2*sqrt(2)``) remain independent cross-checks for the tests.

Basis convention: qubit 0 is the most significant bit of the amplitude
index, so for two qubits the order is ``|00>, |01>, |10>, |11>``.

States hold their amplitudes as a tuple of Python ``complex`` and the gates
work on amplitude-index bits, so the module imports no numpy.  Qubit counts
and indices, like every integer input, pass :func:`phasebit.phase.checked_int`,
and that module imports no numpy either.  The singlet correlations, which
``chsh`` and ``compare`` use, perform the operations of numpy's
``np.vdot(psi, np.kron(A, B) @ psi)`` in its order and give the same floats.
"""

from __future__ import annotations

import math

from .phase import _Record, checked_int

_MAX_QUBITS = 10
_NORM_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class QuantumState(_Record):
    """Normalized complex amplitude vector over ``n_qubits``, a tuple of Python complex."""

    __slots__ = ("n_qubits", "amplitudes")

    def __post_init__(self) -> None:
        n = checked_int("n_qubits", self.n_qubits, 1, _MAX_QUBITS)
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 2**n:
            raise ValueError(f"expected {2**n} amplitudes, got {len(amps)}")
        norm_sq = math.fsum(a.real * a.real + a.imag * a.imag for a in amps)
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)


def basis_state(n_qubits: int, index: int) -> QuantumState:
    """Computational basis state with the given amplitude index."""
    dim = 2 ** checked_int("n_qubits", n_qubits, 1, _MAX_QUBITS)
    amps = [0j] * dim
    amps[checked_int("index", index, 0, dim - 1)] = 1 + 0j
    return QuantumState(n_qubits, amps)


def _qubit_bit(state: QuantumState, index: int, name: str) -> int:
    """The amplitude-index bit of qubit ``index``, checked as the input ``name``."""
    return 1 << (state.n_qubits - 1 - checked_int(name, index, 0, state.n_qubits - 1))


def apply_hadamard(state: QuantumState, target: int) -> QuantumState:
    """Apply the unitary Hadamard ``(1/sqrt2) [[1, 1], [1, -1]]`` to one qubit."""
    bit = _qubit_bit(state, target, "target")
    src = state.amplitudes
    amps = list(src)
    for i in range(len(src)):
        if not i & bit:
            a, b = src[i], src[i | bit]
            amps[i] = (a + b) * _INV_SQRT2
            amps[i | bit] = (a - b) * _INV_SQRT2
    return QuantumState(state.n_qubits, amps)


def apply_cnot(state: QuantumState, control: int, target: int) -> QuantumState:
    """Permute basis amplitudes: the target bit flips wherever control is 1."""
    c = _qubit_bit(state, control, "control")
    t = _qubit_bit(state, target, "target")
    if c == t:
        raise ValueError("control and target must differ")
    src = state.amplitudes
    amps = (src[i ^ t if i & c else i] for i in range(len(src)))
    return QuantumState(state.n_qubits, amps)


def observable(theta: float) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Rows of the spin observable ``cos(theta) Z + sin(theta) X`` for one qubit.

    Hermitian with eigenvalues ``+-1``; ``theta = 0`` measures Z,
    ``theta = pi/2`` measures X.
    """
    c, s = complex(math.cos(theta)), complex(math.sin(theta))
    return ((c, s), (s, -c))


_SINGLET = QuantumState(2, (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0))


def singlet_state() -> QuantumState:
    """The two-qubit singlet ``(|01> - |10>) / sqrt2``."""
    return _SINGLET


def singlet_correlation(a: float, b: float) -> float:
    """Joint ``+-1`` expectation on the singlet for settings ``a`` and ``b``.

    Evaluated as ``<psi| A(a) (x) B(b) |psi>`` on the explicit singlet
    vector: entry ``(i, j)`` of ``A (x) B`` is ``A[i >> 1][j >> 1] *
    B[i & 1][j & 1]``, and both sums run in index order, in complex
    arithmetic, as numpy's ``kron``, ``@`` and ``vdot`` compute them.
    """
    rows_a, rows_b = observable(a), observable(b)
    psi = _SINGLET.amplitudes
    total = 0j
    for i in range(4):
        op_psi = 0j
        for j in range(4):
            op_psi += rows_a[i >> 1][j >> 1] * rows_b[i & 1][j & 1] * psi[j]
        total += psi[i].conjugate() * op_psi
    return total.real


def chsh_quantum(a1: float, a2: float, b1: float, b2: float) -> float:
    """Signed CHSH combination of four singlet correlations.

    Uses the same ``+ - + +`` assembly as the classical side; the magnitude
    reaches ``2*sqrt(2)`` at the optimal settings.
    """
    e = singlet_correlation
    return e(a1, b1) - e(a1, b2) + e(a2, b1) + e(a2, b2)
