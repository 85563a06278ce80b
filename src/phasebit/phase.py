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

A phase is ``k / PHASE_STEPS`` of a turn, where the step ``k`` is the top 53
bits of its uint64 turns, so a trial's step is below ``e`` exactly when its
turns are below ``e << 11``.  :func:`steps_below` counts, for each of a
list of stream windows, the trials below given steps in that integer
domain, for both models.  The ``iid`` windows of one call are hashed
together and compared as turns, converting none to radians: in Python
ints when they total at most ``BLOCK_TRIALS`` trials and numpy is not
loaded, otherwise in numpy blocks of ``BLOCK_TRIALS`` counters whose
buffers all the windows share.  The ``oscillator``'s turns along a stream
form an arithmetic progression mod ``2**64``, so its count is a closed
form and generates no turn at all.

Because a phase is a pure function of ``(model, trial index)``, streams are
reproducible bit-for-bit across runs and platforms, and leapfrog substreams
partition the serial sequence exactly.  That is what lets each curve point
and each independent CHSH correlator draw its own trials from one seed;
each of them counts its trials in one serial pass.

numpy is imported only by the functions that build arrays,
:func:`phases_at` and :meth:`PhaseStream.take`, and by an ``iid`` count
over more than one block of trials, or any ``iid`` count once numpy is
loaded: hashing one block in Python ints costs less than importing
numpy.  The oscillator's rate sum is hashed in Python ints, so an
oscillator count runs without numpy.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

IID_UNIFORM = "iid"
OSCILLATOR_ENSEMBLE = "oscillator"
_KINDS = (IID_UNIFORM, OSCILLATOR_ENSEMBLE)

_MAX_SEED = 2**64 - 1
# keeps the oscillator's rate array at 8 MB
_MAX_ENSEMBLE = 2**20

# splitmix64: golden-gamma counter increment + Stafford mix13 finalizer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# xor tag keeping the oscillator frequency draw off the phase counter space
_FREQ_TAG = 0xB5AD4ECEDA1CE2A9

# A phase is ``k / PHASE_STEPS`` of a turn; its step ``k`` is the top 53 bits of its uint64 turns.
PHASE_STEPS = 2**53
_TURN = 2**64
_STEP_SHIFT = 64 - 53
_INV_2POW53 = 1.0 / PHASE_STEPS
# Trials per array pass; bounds memory at O(block) without changing a count.
BLOCK_TRIALS = 1 << 16
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


def count_at_least(name: str, value: int, low: int) -> int:
    """A count or window as a Python int of at least ``low``; a float is a ``TypeError``."""
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Stafford's mix13, splitmix64's finalizer, in place on uint64 ``z``; returns ``z``.

    ``scratch`` is a uint64 buffer of ``z``'s shape.  Every operand is a
    uint64, so legacy (pre-NEP 50) promotion keeps each pass in uint64 too.
    """
    import numpy as np

    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _hash64(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 of each counter: uniform uint64 turns addressed by index."""
    import numpy as np

    # (t + 1)*GAMMA + seed == t*GAMMA + (GAMMA + seed) mod 2**64, in two passes
    z = np.asarray(counters, dtype=np.int64).view(np.uint64) * np.uint64(_GAMMA)
    z += np.uint64((_GAMMA + seed) % _TURN)
    return _mix(z, np.empty_like(z))


def _hash64_int(seed: int, counter: int) -> int:
    """:func:`_hash64` of one counter in Python ints."""
    z = ((counter + 1) * _GAMMA + seed) % _TURN
    z = (z ^ z >> 30) * _MIX1 % _TURN
    z = (z ^ z >> 27) * _MIX2 % _TURN
    return z ^ z >> 31


def _steps(turns: np.ndarray) -> np.ndarray:
    """The top 53 bits of uint64 turns as doubles; shifts ``turns`` in place."""
    import numpy as np

    turns >>= np.uint64(_STEP_SHIFT)
    # below 2**53 the int64 view converts to the same double, faster than uint64
    return turns.view(np.int64).astype(np.float64)


@dataclass(frozen=True)
class PhaseModel:
    """Configuration of a reproducible phase process.

    ``ensemble_size``, ``frequency_spread`` and ``burn_in`` apply to the
    ``oscillator`` kind only and sit at their defaults otherwise.  ``seed``,
    ``ensemble_size`` and ``burn_in`` must be integers (numpy integers
    included) and are stored as Python ints; ``frequency_spread`` is stored
    as a Python float.  An oscillator whose rate sum overflows or never turns
    the phase is rejected.
    """

    kind: str = IID_UNIFORM
    seed: int = 0
    ensemble_size: int = 32
    frequency_spread: float = 1.0
    burn_in: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown phase model kind {self.kind!r}; expected one of {_KINDS}")
        for name in ("seed", "ensemble_size", "burn_in"):
            # a float seed would hash as a float and give a different stream
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if not (0 <= self.seed <= _MAX_SEED):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not (1 <= self.ensemble_size <= _MAX_ENSEMBLE):
            raise ValueError(f"ensemble_size must be in 1..{_MAX_ENSEMBLE}")
        # a float32 spread would round every rate to float32
        spread = float(self.frequency_spread)
        object.__setattr__(self, "frequency_spread", spread)
        if not (math.isfinite(spread) and spread > 0.0):
            raise ValueError("frequency_spread must be a positive finite number")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.kind == OSCILLATOR_ENSEMBLE:
            try:
                turns = _rate_turns(self)
            except OverflowError:  # fsum of rates past the float range
                turns = 0
            if turns == 0:
                raise ValueError("frequency_spread must give a finite rate sum that turns the phase")


def _rates(model: PhaseModel) -> Iterator[float]:
    """Per-oscillator angular rates, i.i.d. uniform on ``(0, frequency_spread]``.

    Drawn once from the seed, hashed in Python ints; the rates, not the
    phases, carry the oscillator's randomness.  Rate ``k`` is
    ``spread * ((s + 1) * 2**-53)`` for the 53-bit step ``s`` of the hash of
    ``k``; the order ``spread * (s + 1) * 2**-53`` would overflow at a
    spread near the float maximum.
    """
    key = model.seed ^ _FREQ_TAG
    for k in range(model.ensemble_size):
        yield model.frequency_spread * (((_hash64_int(key, k) >> _STEP_SHIFT) + 1) * _INV_2POW53)


@functools.lru_cache(maxsize=16)
def _rate_turns(model: PhaseModel) -> int:
    """The ensemble's rate sum as a uint64 fraction of a turn, computed once per model."""
    # fsum keeps the rate sum order-independent and platform-stable
    return int(math.ldexp(math.fsum(_rates(model)) / TWO_PI % 1.0, 64))


def phases_at(model: PhaseModel, trials: np.ndarray) -> np.ndarray:
    """Phase values for the given trial indices, each in ``[0, 2*pi)``."""
    import numpy as np

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
    only the cursor, so equal configurations replay identical samples.  The
    cursor is not locked, so one stream must not be advanced from two
    threads at once.
    """

    def __init__(self, model: PhaseModel, start: int = 0, stride: int = 1):
        self.model = model
        self.start = count_at_least("start", start, 0)
        self.stride = count_at_least("stride", stride, 1)
        self._cursor = 0

    @property
    def position(self) -> int:
        """Number of samples drawn (or skipped) so far."""
        return self._cursor

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next ``count`` samples as ``(trial_indices, phases)`` arrays."""
        import numpy as np

        count = count_at_least("count", count, 0)
        first = self._window(count)
        t = np.arange(first, first + self.stride * count, self.stride, dtype=np.int64)
        phi = phases_at(self.model, t)
        self._cursor += count
        return t, phi

    def _window(self, count: int) -> int:
        """The first trial index of the next ``count`` draws, once all of them are checked."""
        first = self.start + self.stride * self._cursor
        if count and first + self.stride * (count - 1) >= 2**63:
            raise ValueError("trial indices must stay below 2**63")
        return first

    def skip(self, count: int) -> None:
        """Advance the cursor without materializing samples."""
        self._cursor += count_at_least("count", count, 0)

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


def steps_below(windows: Sequence[tuple[PhaseStream, int, Sequence[int]]]) -> list[list[int]]:
    """Count, per window ``(stream, n, steps)``, the next ``n`` trials with a step below each step.

    A trial's step is below ``e`` exactly when its uint64 turns are below
    ``e << 11``, so both models count turns and convert none to radians.
    ``PHASE_STEPS << 11`` is ``2**64``, above every turn, so that step counts
    all ``n`` trials.  Every window is checked before any work: trial
    indices that would reach ``2**63`` raise ``ValueError``, as in
    :meth:`PhaseStream.take`.  No cursor moves.

    The ``iid`` windows are counted together: in Python ints when they total
    at most ``BLOCK_TRIALS`` trials and numpy is not loaded yet, since
    hashing one block costs less than importing numpy; in numpy blocks
    otherwise.  Both give the same counts.
    """
    checked = []
    for stream, n, steps in windows:
        n = count_at_least("n", n, 0)
        first = stream._window(n)
        limits = []
        for step in steps:
            if not 0 <= step <= PHASE_STEPS:
                raise ValueError(f"step {step} outside 0..{PHASE_STEPS}")
            limits.append(step << _STEP_SHIFT)
        checked.append((stream.model, first, stream.stride, n, limits))
    iid = [w for w in checked if w[0].kind == IID_UNIFORM]
    if sum(w[3] for w in iid) <= BLOCK_TRIALS and "numpy" not in sys.modules:
        count_iid = _iid_turns_below_int
    else:
        count_iid = _iid_turns_below
    iid_counts = iter(count_iid(iid))
    return [
        _oscillator_turns_below(*w) if w[0].kind == OSCILLATOR_ENSEMBLE else next(iid_counts)
        for w in checked
    ]


def _iid_turns_below_int(windows: list[tuple]) -> list[list[int]]:
    """:func:`_iid_turns_below` in Python ints, one splitmix64 at a time.

    Each trial's turns fall in one bin of the sorted distinct limits, and a
    limit's count is the sum of the bins below it, so the limits may come
    in any order, repeat, or be ``0`` or ``2**64``.
    """
    mask, mix1, mix2 = _TURN - 1, _MIX1, _MIX2
    counts = []
    for model, first, stride, n, limits in windows:
        cuts = sorted(set(limits))
        bins = [0] * (len(cuts) + 1)
        # _hash64_int inlined; trial first + stride*j hashes
        # (first + 1)*GAMMA + seed + j*(stride*GAMMA)
        z = ((first + 1) * _GAMMA + model.seed) & mask
        step = stride * _GAMMA & mask
        for _ in range(n):
            x = (z ^ z >> 30) * mix1 & mask
            x = (x ^ x >> 27) * mix2 & mask
            bins[bisect.bisect_right(cuts, x ^ x >> 31)] += 1
            z = z + step & mask
        below = dict(zip(cuts, itertools.accumulate(bins)))
        counts.append([below[c] for c in limits])
    return counts


def _iid_turns_below(windows: list[tuple]) -> list[list[int]]:
    """Trials ``first + stride*j``, ``j < n``, whose splitmix64 turns are below each limit.

    Each window is ``(model, first, stride, n, limits)``.  Trial ``t``
    hashes ``(t + 1)*GAMMA + seed``, which for ``t = first + stride*(done +
    j)`` is the block's offset plus ``j*(stride*GAMMA)`` mod ``2**64``.  So
    the ramp ``j*(stride*GAMMA)`` is built once per stride, and each block of
    ``BLOCK_TRIALS`` trials is one add, :func:`_mix` and one compare per
    limit, all in buffers allocated once per call and shared by its windows.
    """
    import numpy as np

    size = min(max((w[3] for w in windows), default=0), BLOCK_TRIALS)
    z, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    mask = np.empty(size, dtype=bool)
    ramp_stride = ramp = None
    counts = []
    for model, first, stride, n, limits in windows:
        below = [n if c == _TURN else 0 for c in limits]
        compared = [(i, np.uint64(c)) for i, c in enumerate(limits) if c < _TURN]
        if n and stride != ramp_stride:
            ramp_stride, ramp = stride, np.arange(size, dtype=np.uint64)
            ramp *= np.uint64(stride * _GAMMA % _TURN)
        for done in range(0, n, BLOCK_TRIALS):
            block = min(BLOCK_TRIALS, n - done)
            offset = np.uint64(((first + stride * done + 1) * _GAMMA + model.seed) % _TURN)
            turns = _mix(np.add(ramp[:block], offset, out=z[:block]), scratch[:block])
            for i, c in compared:
                below[i] += int(np.count_nonzero(np.less(turns, c, out=mask[:block])))
        counts.append(below)
    return counts


def _oscillator_turns_below(
    model: PhaseModel, first: int, stride: int, n: int, limits: list[int]
) -> list[int]:
    """Trials ``first + stride*j``, ``j < n``, whose oscillator turns are below each limit.

    Trial ``j`` has turns ``(a*j + b) mod 2**64``, with ``a = R*stride`` and
    ``b = R*(first + burn_in)``, as :func:`phases_at` computes them.  For
    ``x = a*j + b`` and ``0 <= c <= M``, ``floor((x + M - c) / M) -
    floor(x / M)`` is 1 exactly when ``x mod M >= c``, so two
    :func:`floor_sum` calls count each limit's trials and no phase is
    generated, at any ``n``.
    """
    r = _rate_turns(model)
    a = r * stride % _TURN
    b = r * (first + model.burn_in) % _TURN
    base = floor_sum(n, _TURN, a, b)
    return [n - (floor_sum(n, _TURN, a, b + _TURN - c) - base) for c in limits]


def make_phase_stream(model: PhaseModel) -> PhaseStream:
    """Serial stream over trials ``0, 1, 2, ...`` of the model's sequence."""
    return PhaseStream(model)


def _chunk(chunk_index: int, num_chunks: int) -> tuple[int, int]:
    """``(chunk_index, num_chunks)`` as Python ints, checked to name one leapfrog chunk."""
    num_chunks = count_at_least("num_chunks", num_chunks, 1)
    chunk_index = operator.index(chunk_index)
    if not 0 <= chunk_index < num_chunks:
        raise ValueError(f"chunk_index {chunk_index} outside 0..{num_chunks - 1}")
    return chunk_index, num_chunks


def substream(stream: PhaseStream, chunk_index: int, num_chunks: int) -> PhaseStream:
    """Leapfrog split of everything the stream has not yet drawn.

    Chunk ``c`` of ``C`` sees trial indices ``c, c + C, c + 2C, ...`` counted
    from the parent's cursor; together the chunks cover the parent sequence
    exactly once, as a multiset of ``(t, phi)`` pairs.  The parent stream is
    left untouched.
    """
    chunk_index, num_chunks = _chunk(chunk_index, num_chunks)
    return PhaseStream(
        stream.model,
        start=stream.start + stream.stride * (stream.position + chunk_index),
        stride=stream.stride * num_chunks,
    )


def chunk_quota(total: int, chunk_index: int, num_chunks: int) -> int:
    """How many of ``total`` leapfrog draws land in the given chunk."""
    total = count_at_least("total", total, 0)
    chunk_index, num_chunks = _chunk(chunk_index, num_chunks)
    return max(0, (total - chunk_index + num_chunks - 1) // num_chunks)
