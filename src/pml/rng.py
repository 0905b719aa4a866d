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
calls, but vectorized with numpy uint64 arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(*words: int) -> int:
    """Fold integer words into a single 64-bit sub-stream seed."""
    z = 0
    for w in words:
        z = _mix((z + _GAMMA + (int(w) & _MASK)) & _MASK)
    return z


class SplitMix64:
    """Stateful splitmix64 stream; the state is just the draw counter."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * _INV_2_53
        return low + (high - low) * u

    def uniform_block(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``count`` uniforms, identical to that many ``uniform`` calls."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK
        shifted = np.empty_like(z)
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        z >>= np.uint64(11)
        u = np.multiply(z, _INV_2_53, dtype=np.float64)
        u *= high - low
        u += low
        return u

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends inclusive."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        span = high - low + 1
        return low + min(int(self.uniform() * span), span - 1)

    def gaussian_pair(self, mean: float = 0.0, std: float = 1.0) -> tuple[float, float]:
        """One Box-Muller pair; consumes exactly two uniform draws."""
        u1 = ((self.next_u64() >> 11) + 1) * _INV_2_53
        u2 = (self.next_u64() >> 11) * _INV_2_53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return mean + std * r * math.cos(theta), mean + std * r * math.sin(theta)

    def gaussian_block(self, count: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """``count`` Gaussians from ceil(count/2) Box-Muller pairs.

        Pair k is (u1, u2) = draws 2k and 2k+1 and gives outputs 2k (cosine)
        and 2k+1 (sine), so the result is written back over the interleaved
        draws. ``log``, ``cos`` and ``sin`` still read contiguous arrays, so
        they run the same numpy loops, and give the same bits, as the
        out-of-place form.
        """
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
        out += mean
        return out
