import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pml import rng as rng_module
from pml.rng import _GAMMA, _INV_2_53, _MASK, SplitMix64, _mix

# the numpy-mixed draws against one-at-a-time mixing, and Box-Muller's log/cos/sin
pytestmark = pytest.mark.dispatch


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


def _reference_gaussian_block(rng, count, std=1.0):
    pairs = (count + 1) // 2
    u = _reference_uniform_block(rng, 2 * pairs)
    u1 = u[0::2] + _INV_2_53
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return std * out[:count]


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


@pytest.mark.parametrize("count", COUNTS)
def test_double_block_equals_two_consecutive_blocks(count):
    # a theorem trial draws its predictions and ground truths as one block
    one, two = SplitMix64(47), SplitMix64(47)
    both = one.uniform_block(2 * count)
    halves = np.concatenate([two.uniform_block(count), two.uniform_block(count)])
    assert both.tobytes() == halves.tobytes()
    assert one._state == two._state


def test_uniform_block_equals_scalar_draws():
    rng, scalar = SplitMix64(7), SplitMix64(7)
    block = rng.uniform_block(33, -1.0, 4.0)
    assert block.tolist() == [scalar.uniform(-1.0, 4.0) for _ in range(33)]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("mean,std", [(0.0, 1.0), (0.5, 0.05), (-3.0, 2.0)])
def test_gaussian_block_matches_reference(count, mean, std):
    # a location is the caller's own add after the scaled block
    rng, ref = SplitMix64(43), SplitMix64(43)
    got = mean + rng.gaussian_block(count, std)
    want = mean + _reference_gaussian_block(ref, count, std)
    assert got.shape == (count,)
    assert np.array_equal(got, want)
    assert rng.next_u64() == ref.next_u64()  # an odd count still spends a whole pair


@pytest.mark.parametrize("count", [rng_module._OFFSET_COUNT - 1, rng_module._OFFSET_COUNT,
                                   rng_module._OFFSET_COUNT + 1])
def test_uniform_block_equals_scalar_mixing_around_the_offset_table(count):
    # up to _OFFSET_COUNT draws add the counter to the offset table, longer
    # ones compute their offsets; draw 100 puts the counter at 2^64 - 1
    seed = (_MASK - 100 * _GAMMA) & _MASK
    rng, ref = SplitMix64(seed), _ScalarStream(seed)
    assert rng.uniform_block(count).tolist() == ref.uniform_block(count).tolist()
    assert rng._state == ref._state


def test_writing_to_a_block_leaves_later_draws_alone():
    # a block is a fresh array, never a view of the offset table
    rng, ref = SplitMix64(9), _ScalarStream(9)
    first = rng.uniform_block(64)
    ref.uniform_block(64)
    first[:] = -1.0
    assert rng.uniform_block(64).tolist() == ref.uniform_block(64).tolist()
    assert SplitMix64(9).uniform_block(64).tolist() == _ScalarStream(9).uniform_block(64).tolist()
    assert not rng_module._OFFSETS.flags.writeable


@pytest.mark.parametrize("draw, count", [("uniform_block", -1), ("uniform_block", -5),
                                         ("gaussian_block", -1), ("gaussian_block", -3)])
def test_a_negative_count_is_rejected_without_moving_the_stream(draw, count):
    # before, uniform_block(-1) moved the counter back one draw
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match=rf"^count must be >= 0, got {count}$"):
        getattr(rng, draw)(count)
    assert rng._state == 1
    assert rng.uniform() == SplitMix64(1).uniform()


@pytest.mark.parametrize("draw", ["uniform_block", "gaussian_block"])
def test_a_zero_count_draws_nothing(draw):
    rng = SplitMix64(1)
    assert getattr(rng, draw)(0).shape == (0,)
    assert rng._state == 1


@pytest.mark.parametrize("low, high", [(3, 2), (0, -1)])
def test_randint_rejects_an_empty_range(low, high):
    # without the check, span 0 returns low - 1
    with pytest.raises(ValueError, match=rf"^empty integer range \[{low}, {high}\]$"):
        SplitMix64(1).randint(low, high)


class _ScalarStream:
    """Every draw mixed one at a time with ``_mix``: the stream the lookahead must equal."""

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * ((self.next_u64() >> 11) * _INV_2_53)

    def randint(self, low, high):
        span = high - low + 1
        return low + min(int(self.uniform() * span), span - 1)

    def gaussian_pair(self, std=1.0):
        u1 = ((self.next_u64() >> 11) + 1) * _INV_2_53
        u2 = (self.next_u64() >> 11) * _INV_2_53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return std * r * math.cos(theta), std * r * math.sin(theta)

    def uniform_block(self, count, low=0.0, high=1.0):
        return np.array([self.uniform(low, high) for _ in range(count)])


class TestGaussianPairLookahead:
    @pytest.mark.parametrize("lookahead", [rng_module._LOOKAHEAD, 7, 3, 2])
    def test_long_run_equals_scalar_mixing(self, monkeypatch, lookahead):
        # 600 pairs cross the refill several times; an odd lookahead leaves
        # one draw over at each refill, which must not be skipped
        monkeypatch.setattr(rng_module, "_LOOKAHEAD", lookahead)
        rng, ref = SplitMix64(2024), _ScalarStream(2024)
        for k in range(600):
            std = 1.0 if k % 3 else 0.5 + k
            assert rng.gaussian_pair(std) == ref.gaussian_pair(std)
            assert rng._state == ref._state

    _OPS = st.one_of(
        st.tuples(st.just("gaussian_pair"), st.integers(1, 300)),
        st.tuples(st.just("uniform"), st.integers(1, 5)),
        st.tuples(st.just("randint"), st.integers(1, 5)),
        st.tuples(st.just("next_u64"), st.integers(1, 5)),
        st.tuples(st.just("uniform_block"), st.integers(0, 9)),
        st.tuples(st.just("gaussian_block"), st.integers(1, 9)),
        st.tuples(st.just("set_state"), st.integers(0, _MASK)),
    )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, _MASK), ops=st.lists(_OPS, max_size=12))
    def test_interleavings_equal_scalar_mixing(self, seed, ops):
        rng, ref = SplitMix64(seed), _ScalarStream(seed)
        for op, k in ops:
            if op == "gaussian_pair":
                for _ in range(k):
                    assert rng.gaussian_pair(3.0) == ref.gaussian_pair(3.0)
                    assert rng._state == ref._state
                continue
            if op == "uniform":
                got = [rng.uniform(-1.0, 2.0) for _ in range(k)]
                want = [ref.uniform(-1.0, 2.0) for _ in range(k)]
            elif op == "randint":
                got = [rng.randint(3, 11) for _ in range(k)]
                want = [ref.randint(3, 11) for _ in range(k)]
            elif op == "next_u64":
                got = [rng.next_u64() for _ in range(k)]
                want = [ref.next_u64() for _ in range(k)]
            elif op == "uniform_block":
                got = rng.uniform_block(k, -2.0, 5.0).tolist()
                want = ref.uniform_block(k, -2.0, 5.0).tolist()
            elif op == "gaussian_block":
                # whole pairs of draws; the values are checked against the
                # numpy reference above, here only the counter matters
                rng.gaussian_block(k)
                ref.uniform_block(2 * ((k + 1) // 2))
                got = want = None
            else:
                rng._state = ref._state = k
                got = want = None
            assert got == want
            assert rng._state == ref._state
