"""Seeded phase processes and canonical angle arithmetic.

Everything downstream consumes randomness through :class:`PhaseStream`,
which yields trial-indexed samples of a stationary random phase on
``[0, 2*pi)``.  Both models compute a phase as a uint64 fraction of a turn
and share one conversion to radians:

* ``iid``: one independent uniform draw per trial, produced by a
  counter-based hash of the trial index, so the phase of any trial can be
  computed directly without generating its predecessors.
* ``oscillator``: the ensemble's rate sum as a uint64 fraction of a turn,
  times ``t + burn_in``; uint64 wraparound is the wrap to one turn, so the
  rotation is exact at every trial index and equidistributes on the circle.
  Its turns along a stream form an arithmetic progression mod ``2**64``,
  so :func:`oscillator_steps_below` counts trials below a step in closed
  form without generating a phase.

Because a phase is a pure function of ``(model, trial index)``, streams are
reproducible bit-for-bit across runs and platforms, and leapfrog substreams
partition the serial sequence exactly.  That is what lets each curve point
and each independent CHSH correlator draw its own trials from one seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

IID_UNIFORM = "iid"
OSCILLATOR_ENSEMBLE = "oscillator"
_KINDS = (IID_UNIFORM, OSCILLATOR_ENSEMBLE)

_MAX_SEED = 2**64 - 1
# keeps the oscillator's rate array at 8 MB
_MAX_ENSEMBLE = 2**20

# splitmix64: golden-gamma counter increment + Stafford mix13 finalizer.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# xor tag keeping the oscillator frequency draw off the phase counter space
_FREQ_TAG = 0xB5AD4ECEDA1CE2A9

# A phase is ``k / PHASE_STEPS`` of a turn; its step ``k`` is the top 53 bits of its uint64 turns.
PHASE_STEPS = 2**53
_TURN = 2**64
_STEP_SHIFT = np.uint64(64 - 53)
_INV_2POW53 = 1.0 / PHASE_STEPS
# 2*pi / 2**53 is exact, so k * _STEP_RADIANS rounds as (k / 2**53) * 2*pi does
_STEP_RADIANS = _INV_2POW53 * TWO_PI


def wrap_angle(x: float) -> float:
    """Reduce an angle in radians to the canonical interval ``(-pi, pi]``.

    Values already in range are returned unchanged, which makes wrapping
    exactly idempotent.  Raises ``ValueError`` for non-finite input.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    if -math.pi < x <= math.pi:
        return x
    r = x % TWO_PI
    if r > math.pi:
        # also catches the float edge case where the modulo lands on 2*pi
        r -= TWO_PI
    return r


def _hash64(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 of each counter: uniform uint64 turns addressed by index."""
    # (t + 1)*GAMMA + seed == t*GAMMA + (GAMMA + seed) mod 2**64, in two passes
    z = np.asarray(counters, dtype=np.int64).view(np.uint64) * _GAMMA
    z += np.uint64((int(_GAMMA) + seed) % _TURN)
    shifted = np.right_shift(z, np.uint64(30))
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _steps(turns: np.ndarray) -> np.ndarray:
    """The top 53 bits of uint64 turns as doubles; shifts ``turns`` in place."""
    turns >>= _STEP_SHIFT
    # below 2**53 the int64 view converts to the same double, faster than uint64
    return turns.view(np.int64).astype(np.float64)


@dataclass(frozen=True)
class PhaseModel:
    """Configuration of a reproducible phase process.

    ``ensemble_size``, ``frequency_spread`` and ``burn_in`` apply to the
    ``oscillator`` kind only and sit at their defaults otherwise.  An
    oscillator whose rate sum overflows or never turns the phase is rejected.
    """

    kind: str = IID_UNIFORM
    seed: int = 0
    ensemble_size: int = 32
    frequency_spread: float = 1.0
    burn_in: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown phase model kind {self.kind!r}; expected one of {_KINDS}")
        if not (0 <= int(self.seed) <= _MAX_SEED):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not (1 <= int(self.ensemble_size) <= _MAX_ENSEMBLE):
            raise ValueError(f"ensemble_size must be in 1..{_MAX_ENSEMBLE}")
        spread = float(self.frequency_spread)
        if not (math.isfinite(spread) and spread > 0.0):
            raise ValueError("frequency_spread must be a positive finite number")
        if int(self.burn_in) < 0:
            raise ValueError("burn_in must be >= 0")
        if self.kind == OSCILLATOR_ENSEMBLE:
            try:
                turns = _rate_turns(self)
            except OverflowError:  # fsum of rates past the float range
                turns = 0
            if turns == 0:
                raise ValueError("frequency_spread must give a finite rate sum that turns the phase")


def ensemble_frequencies(model: PhaseModel) -> np.ndarray:
    """Per-oscillator angular rates, i.i.d. uniform on ``(0, frequency_spread]``.

    Drawn once from the seed; the rates, not the phases, carry the model's
    randomness.
    """
    if model.kind != OSCILLATOR_ENSEMBLE:
        raise ValueError("ensemble_frequencies only applies to the oscillator model")
    steps = _steps(_hash64(model.seed ^ _FREQ_TAG, np.arange(model.ensemble_size)))
    return model.frequency_spread * ((steps + 1.0) * _INV_2POW53)  # exact: steps + 1 <= 2**53


@functools.lru_cache(maxsize=16)
def _rate_turns(model: PhaseModel) -> int:
    """The ensemble's rate sum as a uint64 fraction of a turn, computed once per model."""
    # fsum keeps the rate sum order-independent and platform-stable
    return int(math.ldexp(math.fsum(ensemble_frequencies(model).tolist()) / TWO_PI % 1.0, 64))


def phases_at(model: PhaseModel, trials: np.ndarray) -> np.ndarray:
    """Phase values for the given trial indices, each in ``[0, 2*pi)``."""
    t = np.asarray(trials, dtype=np.int64)
    if t.size and int(t.min()) < 0:
        raise ValueError("trial indices must be nonnegative")
    if model.kind == IID_UNIFORM:
        turns = _hash64(model.seed, t)
    else:
        r = _rate_turns(model)  # (t + burn_in)*r == t*r + burn_in*r mod 2**64
        turns = t.view(np.uint64) * np.uint64(r)
        turns += np.uint64(model.burn_in * r % _TURN)
    phi = _steps(turns)
    phi *= _STEP_RADIANS
    return phi


def step_phase(step: int) -> float:
    """The phase in radians of every trial whose turns have the given top 53 bits.

    Python floats round like numpy's float64, so this equals what
    :func:`phases_at` computes for those trials.
    """
    return step * _STEP_RADIANS


class PhaseStream:
    """A position-tracking view over the phase sequence of one model.

    The underlying sequence is addressed by trial index; a stream holds an
    immutable ``(start, stride)`` window plus a cursor.  Drawing advances
    only the cursor, so equal configurations replay identical samples.  A
    stream instance must not be advanced from two threads at once; parallel
    work splits the sequence with :func:`substream` instead.
    """

    def __init__(self, model: PhaseModel, start: int = 0, stride: int = 1):
        if start < 0:
            raise ValueError("start must be >= 0")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.model = model
        self.start = int(start)
        self.stride = int(stride)
        self._cursor = 0

    @property
    def position(self) -> int:
        """Number of samples drawn (or skipped) so far."""
        return self._cursor

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next ``count`` samples as ``(trial_indices, phases)`` arrays."""
        if count < 0:
            raise ValueError("count must be >= 0")
        first = self.start + self.stride * self._cursor
        if count and first + self.stride * (count - 1) >= 2**63:
            raise ValueError("trial indices must stay below 2**63")
        t = np.arange(first, first + self.stride * count, self.stride, dtype=np.int64)
        phi = phases_at(self.model, t)
        self._cursor += count
        return t, phi

    def skip(self, count: int) -> None:
        """Advance the cursor without materializing samples."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._cursor += count

    def __repr__(self) -> str:
        return (
            f"PhaseStream({self.model!r}, start={self.start}, "
            f"stride={self.stride}, position={self._cursor})"
        )


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum(floor((a*j + b) / m) for j in range(n))`` for ``n, a, b >= 0`` and ``m >= 1``.

    The Euclid-like loop of the AtCoder Library's ``floor_sum_unsigned``
    (``atcoder/math.hpp``) on Python ints: O(log m) steps at any ``n``.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def oscillator_steps_below(stream: PhaseStream, n: int, steps: Sequence[int]) -> list[int]:
    """How many of the stream's next ``n`` oscillator trials have a step below each of ``steps``.

    Trial ``j`` of them has turns ``(a*j + b) mod 2**64``, with
    ``a = R*stride`` and ``b = R*(start + stride*position + burn_in)``, as
    :func:`phases_at` computes them.  Its step is below ``e`` exactly when
    ``x = a*j + b`` has ``x mod 2**64 < e << 11``, and for ``0 <= c <= M``,
    ``floor((x + M - c) / M) - floor(x / M)`` is 1 exactly when
    ``x mod M >= c``; two :func:`floor_sum` calls count those trials.  No
    phase is generated and the cursor does not move.
    """
    if stream.model.kind != OSCILLATOR_ENSEMBLE:
        raise ValueError("oscillator_steps_below only applies to the oscillator model")
    if n < 0:
        raise ValueError("n must be >= 0")
    r = _rate_turns(stream.model)
    a = r * stream.stride % _TURN
    b = r * (stream.start + stream.stride * stream.position + stream.model.burn_in) % _TURN
    base = floor_sum(n, _TURN, a, b)
    below = []
    for step in steps:
        if not 0 <= step <= PHASE_STEPS:
            raise ValueError(f"step {step} outside 0..{PHASE_STEPS}")
        c = step << int(_STEP_SHIFT)
        below.append(n - (floor_sum(n, _TURN, a, b + _TURN - c) - base))
    return below


def make_phase_stream(model: PhaseModel) -> PhaseStream:
    """Serial stream over trials ``0, 1, 2, ...`` of the model's sequence."""
    return PhaseStream(model)


def substream(stream: PhaseStream, chunk_index: int, num_chunks: int) -> PhaseStream:
    """Leapfrog split of everything the stream has not yet drawn.

    Chunk ``c`` of ``C`` sees trial indices ``c, c + C, c + 2C, ...`` counted
    from the parent's cursor; together the chunks cover the parent sequence
    exactly once, as a multiset of ``(t, phi)`` pairs.  The parent stream is
    left untouched.
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if not 0 <= chunk_index < num_chunks:
        raise ValueError(f"chunk_index {chunk_index} outside 0..{num_chunks - 1}")
    return PhaseStream(
        stream.model,
        start=stream.start + stream.stride * (stream.position + chunk_index),
        stride=stream.stride * num_chunks,
    )


def chunk_quota(total: int, chunk_index: int, num_chunks: int) -> int:
    """How many of ``total`` leapfrog draws land in the given chunk."""
    if total < 0:
        raise ValueError("total must be >= 0")
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if not 0 <= chunk_index < num_chunks:
        raise ValueError(f"chunk_index {chunk_index} outside 0..{num_chunks - 1}")
    return max(0, (total - chunk_index + num_chunks - 1) // num_chunks)
