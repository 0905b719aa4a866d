"""Deterministic pseudo-random streams built on splitmix64.

Scene generation and theorem-verification trials must reproduce exactly,
so nothing here uses a platform RNG. The integer stream and the uniforms are
exact integer arithmetic and one exact scaling, the same on every platform.
Gaussian draws also take a logarithm, a cosine and a sine: ``gaussian_pair``
calls the C library through ``math`` and ``gaussian_block`` calls numpy,
whose float64 ``log`` runs its own AVX-512 kernel where the CPU has one and
the C library otherwise. Gaussian blocks, and the scenes built on them, are
therefore exact per numpy SIMD dispatch level, not across levels.

The generator is a 64-bit counter: each draw advances the counter by a fixed
odd constant and feeds it through the splitmix64 finalizer mix. All
floating-point draws are derived from integer output:

* ``uniform``   -- top 53 bits of the mixed counter, scaled into [0, 1).
* ``randint``   -- ``low + floor(uniform * span)``, clamped to ``high``.
* Gaussian pairs -- Box-Muller on two consecutive uniforms, with the first
  uniform shifted into (0, 1] so the logarithm is always finite.

``uniform_block`` produces exactly the same values as repeated ``uniform``
calls, but vectorized with numpy uint64 arithmetic. The counter offsets
``(i+1) * gamma mod 2^64`` of the first ``_OFFSET_COUNT`` (2^13) draws are one
read-only table built at import, so a block of up to that many draws adds the
counter to a slice of it; longer blocks compute their offsets. A negative
count raises ``ValueError`` and leaves the stream where it was; a count of
zero draws nothing. A seed, word or count that is not an integer raises too.

``gaussian_pair`` reads its two uniforms from a lookahead of ``_LOOKAHEAD``
draws mixed at once the same way; the lookahead is keyed on the counter, so
any other draw, or a write to ``_state``, makes it stale, and the pairs equal
those from mixing one draw at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .pyramid import _checked_int

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # the finalizer's multipliers
_INV_2_53 = 1.0 / (1 << 53)
_LOOKAHEAD = 256  # uniforms ``gaussian_pair`` mixes per refill
# the same constants as numpy scalars, converted once rather than per block
_GAMMA_U, _MUL1_U, _MUL2_U = np.uint64(_GAMMA), np.uint64(_MUL1), np.uint64(_MUL2)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
# counter offsets (i+1) * gamma mod 2^64 of the first draws after a state (64 KiB)
_OFFSET_COUNT = 1 << 13
_OFFSETS = np.arange(1, _OFFSET_COUNT + 1, dtype=np.uint64) * _GAMMA_U
_OFFSETS.setflags(write=False)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _uniforms(state: int, count: int) -> np.ndarray:
    """The uniforms of the ``count`` (>= 0) draws after counter ``state``, mixed in numpy."""
    if count <= _OFFSET_COUNT:
        z = np.add(_OFFSETS[:count], np.uint64(state))  # a fresh array; the table is never written
    else:
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _GAMMA_U
        z += np.uint64(state)
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=shifted)
    z *= _MUL1_U
    z ^= np.right_shift(z, _S27, out=shifted)
    z *= _MUL2_U
    z ^= np.right_shift(z, _S31, out=shifted)
    z >>= _S11
    return np.multiply(z, _INV_2_53, dtype=np.float64)


def derive_seed(*words: int) -> int:
    """Fold integer words into a single 64-bit sub-stream seed."""
    z = 0
    for w in words:
        z = _mix((z + _GAMMA + (_checked_int("word", w) & _MASK)) & _MASK)
    return z


class SplitMix64:
    """Stateful splitmix64 stream; the state is just the draw counter."""

    def __init__(self, seed: int):
        self._state = _checked_int("seed", seed) & _MASK
        # gaussian_pair's lookahead: uniforms of the draws after counter
        # ``_ahead_state``, the next one at index ``_ahead_next``
        self._ahead: list[float] = []
        self._ahead_next = 0
        self._ahead_state = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * _INV_2_53
        return low + (high - low) * u

    def uniform_block(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``count`` uniforms, identical to that many ``uniform`` calls."""
        count = _checked_int("count", count, 0)
        u = _uniforms(self._state, count)
        self._state = (self._state + count * _GAMMA) & _MASK
        u *= high - low
        u += low
        return u

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends inclusive."""
        low, high = _checked_int("low", low), _checked_int("high", high)
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        span = high - low + 1
        return low + min(int(self.uniform() * span), span - 1)

    def gaussian_pair(self, std: float = 1.0) -> tuple[float, float]:
        """One Box-Muller pair; consumes exactly two uniform draws."""
        state = self._state
        i = self._ahead_next
        ahead = self._ahead
        if state != self._ahead_state or i + 2 > len(ahead):
            ahead = self._ahead = _uniforms(state, _LOOKAHEAD).tolist()
            i = 0
        u1 = ahead[i] + _INV_2_53  # exact: shifts the uniform into (0, 1]
        u2 = ahead[i + 1]
        self._ahead_next = i + 2
        self._state = self._ahead_state = (state + 2 * _GAMMA) & _MASK
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return std * r * math.cos(theta), std * r * math.sin(theta)

    def gaussian_block(self, count: int, std: float = 1.0) -> np.ndarray:
        """``count`` Gaussians from ceil(count/2) Box-Muller pairs.

        Pair k is (u1, u2) = draws 2k and 2k+1 and gives outputs 2k (cosine)
        and 2k+1 (sine), so the result is written back over the interleaved
        draws. ``log``, ``cos`` and ``sin`` still read contiguous arrays, so
        they run the same numpy loops, and give the same bits, as the
        out-of-place form.
        """
        count = _checked_int("count", count, 0)
        pairs = (count + 1) // 2
        u = self.uniform_block(2 * pairs).reshape(pairs, 2)
        r = u[:, 0] + _INV_2_53  # shift into (0, 1]
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = u[:, 1] * (2.0 * np.pi)
        np.multiply(r, np.cos(theta), out=u[:, 0])
        np.sin(theta, out=theta)
        np.multiply(r, theta, out=u[:, 1])
        out = u.reshape(-1)[:count]
        out *= std
        return out
