"""An executable specification of phasebit's per-trial definition, on Python ints and floats.

It shares no code with phasebit's kernel: no ``steps_below``, ``run_counts``,
``sign_edges`` or numpy.  Per trial ``t`` of a model it reads

* the ``iid`` turns: splitmix64 of ``(t + 1)*GAMMA + seed``;
* the ``oscillator`` turns: ``R*(t + burn_in) mod 2**64``, where ``R`` is the
  ``math.fsum`` of the ensemble's rates as a uint64 fraction of a turn, and
  rate ``k`` is ``spread * (s + 1) * 2**-53`` for the top 53 bits ``s`` of
  splitmix64 of ``k`` under the seed xor ``FREQ_TAG``;
* the phase ``(turns >> 11) * 2**-53 * 2*pi``;
* a qubit's bit: a Definite qubit's own bit, or 1 exactly where
  ``math.cos(phi + wrap(alpha)) < 0`` for a Balanced one.

A model is any object with phasebit's ``PhaseModel`` fields.  A qubit is an
int (a Definite qubit's bit) or a float (a Balanced qubit's angle).
"""

import functools
import math

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
FREQ_TAG = 0xB5AD4ECEDA1CE2A9
TURN = 2**64
TWO_PI = 2 * math.pi


def splitmix64(seed: int, t: int) -> int:
    z = ((t + 1) * GAMMA + seed) % TURN
    z = (z ^ z >> 30) * MIX1 % TURN
    z = (z ^ z >> 27) * MIX2 % TURN
    return z ^ z >> 31


@functools.lru_cache(maxsize=16)
def rate_turns(model) -> int:
    """The oscillator's rate sum ``R`` as a uint64 fraction of a turn."""
    steps = (splitmix64(model.seed ^ FREQ_TAG, k) >> 11 for k in range(model.ensemble_size))
    rates = [model.frequency_spread * ((s + 1) * 2**-53) for s in steps]
    return int(math.ldexp(math.fsum(rates) / TWO_PI % 1.0, 64))


def phase(model, t: int) -> float:
    """Trial ``t``'s phase in radians."""
    if model.kind == "iid":
        turns = splitmix64(model.seed, t)
    else:
        turns = rate_turns(model) * (t + model.burn_in) % TURN
    return (turns >> 11) * 2**-53 * TWO_PI


def wrap(x: float) -> float:
    """``x`` reduced to ``(-pi, pi]``; values in range stay as they are."""
    if -math.pi < x <= math.pi:
        return x
    r = x % TWO_PI
    return r - TWO_PI if r > math.pi else r


def bit(qubit, phi: float) -> int:
    if isinstance(qubit, int):
        return qubit
    return int(math.cos(phi + wrap(qubit)) < 0.0)


def records(model, qubits, signal_index: int, trials: int, start: int = 0) -> list[list[int]]:
    """The bits of trials ``start .. start + trials - 1`` on which the signal qubit reads 0."""
    phases = (phase(model, t) for t in range(start, start + trials))
    rows = ([bit(q, phi) for q in qubits] for phi in phases)
    return [row for row in rows if row[signal_index] == 0]


def init_rows(model, angles, signal_index: int, trials: int) -> list[tuple]:
    """``init``'s rows ``(qubit, alpha, n_trials, n_accepted, p_bit0, stderr)``."""
    accepted = records(model, [float(a) for a in angles], signal_index, trials)
    n = len(accepted)
    rows = []
    for index, alpha in enumerate(angles):
        p_bit0 = (n - sum(row[index] for row in accepted)) / n if n else math.nan
        stderr = math.sqrt(p_bit0 * (1.0 - p_bit0) / n) if n else math.nan
        rows.append((index, wrap(alpha), trials, n, p_bit0, stderr))
    return rows
