"""Virtual registers: N two-valued signal qubits sharing one phase stream.

A qubit is either ``Definite(bit)`` or ``Balanced(alpha)``.  A measurement
trial draws a single shared phase; every Balanced qubit reads its dichotomic
signal at its own detector angle, so all correlation between qubits comes
from the shared phase (the register is the coherence zone).  One designated
signal qubit gates trial acceptance: bit 0 accepts the trial, bit 1 discards
it, which post-selects the register into an initialized state.

:func:`initialize` first counts the accepted trials exactly from the
signal qubit's :func:`~phasebit.signals.run_counts`, without drawing a
phase, and allocates its output once at that size: one int8 record of
``qubits`` bytes per accepted trial, with no trial index.  It then reads
each block of phases once per Balanced qubit with
:func:`~phasebit.signals.dichotomic_array`, which evaluates no cosine for a
phase at a wrapped angle, and writes the block's accepted bits straight
into their slice, one qubit at a time.  Peak memory is therefore the output
plus O(``BLOCK_TRIALS``), whatever the trial count.  numpy is imported
when :func:`initialize` runs, not with this module.
"""

from __future__ import annotations

import numbers

from .phase import BLOCK_TRIALS, PhaseStream, _Record, checked_int, wrap_angle
from .signals import dichotomic_array, run_counts


class Definite(_Record):
    """A qubit pinned to a classical bit value, 0 or 1, stored as a Python int."""

    __slots__ = ("bit",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bit", checked_int("bit", self.bit, 0, 1))


class Balanced(_Record):
    """A qubit that reads the shared phase at detector angle ``alpha``.

    Over uniform phases it is green or red with probability 1/2 each; the
    angle is observable only through correlations with other qubits.
    """

    __slots__ = ("alpha",)

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, numbers.Real):
            raise TypeError(f"alpha must be a real number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))


QubitState = Definite | Balanced


class VirtualRegister:
    """Qubits measured against one shared phase stream; qubit ``signal_index`` gates acceptance.

    Like every integer input, ``signal_index`` passes
    :func:`~phasebit.phase.checked_int` and is stored as a Python int.  The
    fields stay writable, so a register is not hashable.
    """

    __hash__ = None

    def __init__(self, qubits: list[QubitState], stream: PhaseStream, signal_index: int = 0):
        if not qubits:
            raise ValueError("register needs at least one qubit")
        for q in qubits:
            if not isinstance(q, (Definite, Balanced)):
                raise TypeError(f"not a qubit state: {q!r}")
        if not isinstance(stream, PhaseStream):
            raise TypeError(f"not a phase stream: {stream!r}")
        self.qubits = qubits
        self.stream = stream
        self.signal_index = checked_int("signal_index", signal_index, 0, len(qubits) - 1)

    def __repr__(self) -> str:
        return (f"VirtualRegister(qubits={self.qubits!r}, stream={self.stream!r}, "
                f"signal_index={self.signal_index!r})")


def _accepted_count(register: VirtualRegister, trials: int) -> int:
    """How many of the stream's next ``trials`` trials the signal qubit accepts; no cursor moves.

    A Definite signal qubit accepts every trial or none.  A Balanced one
    accepts the trials on the runs where it reads green (+1).
    """
    signal = register.qubits[register.signal_index]
    if isinstance(signal, Definite):
        return trials if signal.bit == 0 else 0
    ((runs, (signs,)),) = run_counts([(register.stream, [signal.alpha], trials)])
    return sum(r for r, green in zip(runs, signs) if green > 0)


def _fill_block(register: VirtualRegister, count: int, bits: np.ndarray, filled: int) -> int:
    """Draw the next ``count`` trials and write their accepted columns into ``bits`` from ``filled``.

    Returns the column after the last one written.  One block's arrays live
    only here, so they are freed before the next block is drawn.
    """
    import numpy as np

    phi = register.stream.take(count)[1]
    signal = register.qubits[register.signal_index]
    if isinstance(signal, Definite):
        green = np.full(phi.shape, signal.bit == 0)
    else:
        green = dichotomic_array(phi, signal.alpha) > 0
    # one index array serves every row; a take on it beats a compress per row
    accepted = np.flatnonzero(green)
    end = filled + len(accepted)
    if end > bits.shape[1]:
        raise RuntimeError(f"blocks accept more than the {bits.shape[1]} trials counted")
    for index, (q, row) in enumerate(zip(register.qubits, bits)):
        if isinstance(q, Definite):
            row[filled:end] = q.bit
        elif index == register.signal_index:
            row[filled:end] = 0  # accepted: green
        else:
            # green (+1) -> bit 0, red (-1) -> bit 1
            red = (dichotomic_array(phi, q.alpha) < 0).view(np.int8)
            # every index is in range; mode "raise" would copy through a buffer
            np.take(red, accepted, out=row[filled:end], mode="wrap")
    return end


def initialize(register: VirtualRegister, trials: int) -> np.ndarray:
    """Measure ``trials`` times and return the accepted trials' bits.

    A trial is accepted when the signal qubit reads bit 0 (green); rejected
    trials produce no output at all.  The result is an int8 array with one
    row per accepted trial and one contiguous column per qubit, so ``len()``
    counts the accepted trials and the signal column is all 0.  The
    accepted count comes first, from :func:`~phasebit.signals.run_counts`,
    and sizes the output; the stream is then walked in blocks of
    ``BLOCK_TRIALS``, each block's accepted bits written into their slice
    one qubit at a time.  Peak memory is the output plus O(``BLOCK_TRIALS``).
    Bits that disagree with the count raise ``RuntimeError``.
    """
    import numpy as np  # loaded first, so an iid count hashes in numpy blocks

    trials = checked_int("trials", trials, 1)
    n_accepted = _accepted_count(register, trials)
    bits = np.empty((len(register.qubits), n_accepted), dtype=np.int8)
    filled = 0
    for done in range(0, trials, BLOCK_TRIALS):
        filled = _fill_block(register, min(BLOCK_TRIALS, trials - done), bits, filled)
    if filled != n_accepted:
        raise RuntimeError(f"blocks accept {filled} of the {n_accepted} trials counted")
    return bits.T


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
    control_bit = checked_int("control_bit", control_bit, 0, 1)
    return checked_int("target_bit", target_bit, 0, 1) ^ control_bit


def apply_cnot_to_bits(bits: np.ndarray, control: int, target: int) -> np.ndarray:
    """Apply the controlled-NOT to every record of ``bits``, one row per trial.

    ``bits`` has one column per qubit, as :func:`initialize` returns it.
    Returns a copy in the same memory layout in which the target column is
    XORed with the control column; ``bits`` is left unchanged.
    """
    last = bits.shape[1] - 1
    control = checked_int("control", control, 0, last)
    target = checked_int("target", target, 0, last)
    if control == target:
        raise ValueError("control and target must differ")
    out = bits.copy(order="K")
    out[:, target] ^= bits[:, control]
    return out
