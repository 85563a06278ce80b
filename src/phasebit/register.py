"""Virtual registers: N two-valued signal qubits sharing one phase stream.

A qubit is either ``Definite(bit)`` or ``Balanced(alpha)``.  A measurement
trial draws a single shared phase; every Balanced qubit reads its dichotomic
signal at its own detector angle, so all correlation between qubits comes
from the shared phase (the register is the coherence zone).  One designated
signal qubit gates trial acceptance: bit 0 accepts the trial, bit 1 discards
it, which post-selects the register into an initialized state.

:func:`initialize` reads each block of phases once per Balanced qubit with
:func:`~phasebit.signals.dichotomic_array`, which evaluates no cosine for a
phase at a wrapped angle, and keeps only the bit columns of the accepted
trials, one ``np.compress`` per block.  An accepted trial costs ``qubits``
bytes; its trial index is not kept.  numpy is imported when
:func:`initialize` runs, not with this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

from .phase import BLOCK_TRIALS, PhaseStream, count_at_least, wrap_angle
from .signals import dichotomic_array

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Definite:
    """A qubit pinned to a classical bit value."""

    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")


@dataclass(frozen=True)
class Balanced:
    """A qubit that reads the shared phase at detector angle ``alpha``.

    Over uniform phases it is green or red with probability 1/2 each; the
    angle is observable only through correlations with other qubits.
    """

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))


QubitState = Union[Definite, Balanced]


@dataclass
class VirtualRegister:
    """Qubits measured against one shared phase stream."""

    qubits: list[QubitState]
    stream: PhaseStream
    signal_index: int = 0

    def __post_init__(self) -> None:
        if not self.qubits:
            raise ValueError("register needs at least one qubit")
        for q in self.qubits:
            if not isinstance(q, (Definite, Balanced)):
                raise TypeError(f"not a qubit state: {q!r}")
        if not 0 <= self.signal_index < len(self.qubits):
            raise ValueError(f"signal_index {self.signal_index} outside register")


def _trial_bits(qubits: Sequence[QubitState], phi: np.ndarray) -> np.ndarray:
    """Bit outcomes, one row per qubit, one column per trial."""
    import numpy as np

    rows = []
    for q in qubits:
        if isinstance(q, Definite):
            rows.append(np.full(phi.shape, q.bit, dtype=np.int8))
        else:
            # green (+1) -> bit 0, red (-1) -> bit 1
            rows.append((dichotomic_array(phi, q.alpha) < 0).view(np.int8))
    return np.stack(rows)


# an array has no single truth value, so equality is identity: compare .bits
@dataclass(frozen=True, eq=False)
class AcceptedTrials:
    """The bit columns of the accepted trials.

    ``bits`` holds one row per qubit and one column per accepted trial
    (int8), so a trial costs ``qubits`` bytes.  ``len()`` counts the
    columns, that is the accepted trials, where a bare array's ``len()``
    would count the qubits.
    """

    bits: np.ndarray

    def __len__(self) -> int:
        return self.bits.shape[1]


def initialize(register: VirtualRegister, trials: int) -> AcceptedTrials:
    """Measure ``trials`` times and keep only the accepted trials.

    A trial is accepted when the signal qubit reads bit 0 (green); rejected
    trials produce no output at all.  Every returned column therefore has
    signal bit 0.  The stream is walked in blocks of ``BLOCK_TRIALS``.
    """
    import numpy as np

    trials = count_at_least("trials", trials, 1)
    kept = []
    for done in range(0, trials, BLOCK_TRIALS):
        _, phi = register.stream.take(min(BLOCK_TRIALS, trials - done))
        bits = _trial_bits(register.qubits, phi)
        kept.append(np.compress(bits[register.signal_index] == 0, bits, axis=1))
    return AcceptedTrials(np.concatenate(kept, axis=1))


def hadamard(q: QubitState) -> QubitState:
    """Hadamard rule on a virtual qubit state.

    A Balanced qubit, read in the rotated basis, stops being random and
    becomes ``Definite(0)``; either Definite bit becomes ``Balanced(0.0)``.
    Both definite inputs map to the same output, so this rule is not an
    involution; contrast with the unitary gate in :mod:`phasebit.oracle`,
    where ``H @ H == I``.
    """
    if isinstance(q, Balanced):
        return Definite(0)
    if isinstance(q, Definite):
        return Balanced(0.0)
    raise TypeError(f"not a qubit state: {q!r}")


def cnot(control_bit: int, target_bit: int) -> int:
    """Controlled-NOT on realized bit values: returns ``target XOR control``.

    The control bit itself is never modified.
    """
    if control_bit not in (0, 1):
        raise ValueError(f"control bit must be 0 or 1, got {control_bit!r}")
    if target_bit not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {target_bit!r}")
    return target_bit ^ control_bit


def apply_cnot_to_bits(bits: np.ndarray, control: int, target: int) -> np.ndarray:
    """Apply the controlled-NOT to every column of ``bits`` (one row per qubit).

    Returns a copy in which the target row is XORed with the control row;
    ``bits`` and the control row are left unchanged.
    """
    if control == target:
        raise ValueError("control and target must differ")
    rows = len(bits)
    if not (0 <= control < rows and 0 <= target < rows):
        raise ValueError(f"qubit index outside register of {rows} qubits")
    out = bits.copy()
    out[target] ^= bits[control]
    return out
