import numpy as np
import pytest

from pml.rng import _GAMMA, _INV_2_53, _MASK, SplitMix64


def _reference_uniform_block(rng, count, low=0.0, high=1.0):
    """The out-of-place block draw that ``uniform_block`` must reproduce bit for bit."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    state = (np.uint64(rng._state) + idx * np.uint64(_GAMMA)).astype(np.uint64)
    rng._state = (rng._state + count * _GAMMA) & _MASK
    z = state
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return low + (high - low) * ((z >> np.uint64(11)).astype(np.float64) * _INV_2_53)


def _reference_gaussian_block(rng, count, mean=0.0, std=1.0):
    pairs = (count + 1) // 2
    u = _reference_uniform_block(rng, 2 * pairs)
    u1 = u[0::2] + _INV_2_53
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return mean + std * out[:count]


COUNTS = (1, 2, 7, 4096, 4095)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("low,high", [(0.0, 1.0), (-2.5, 3.0)])
def test_uniform_block_matches_reference(count, low, high):
    rng, ref = SplitMix64(41), SplitMix64(41)
    got = rng.uniform_block(count, low, high)
    want = _reference_uniform_block(ref, count, low, high)
    assert got.shape == (count,)
    assert np.array_equal(got, want)
    assert rng.next_u64() == ref.next_u64()  # the counter advanced by count draws


def test_uniform_block_equals_scalar_draws():
    rng, scalar = SplitMix64(7), SplitMix64(7)
    block = rng.uniform_block(33, -1.0, 4.0)
    assert block.tolist() == [scalar.uniform(-1.0, 4.0) for _ in range(33)]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("mean,std", [(0.0, 1.0), (0.5, 0.05), (-3.0, 2.0)])
def test_gaussian_block_matches_reference(count, mean, std):
    rng, ref = SplitMix64(43), SplitMix64(43)
    got = rng.gaussian_block(count, mean, std)
    want = _reference_gaussian_block(ref, count, mean, std)
    assert got.shape == (count,)
    assert np.array_equal(got, want)
    assert rng.next_u64() == ref.next_u64()  # an odd count still spends a whole pair
