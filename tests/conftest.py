import math

import numpy as np
import pytest

from pml.loss import fd_loss_gradient  # noqa: F401  (shared with the acceptance tests)
from pml.pyramid import maps_from_batch
from pml.rng import SplitMix64


def random_map_batch(seed: int, level: int, batch: int, low: float = 0.0, high: float = 1.0):
    """Platform-independent random prediction/ground-truth batches."""
    side = 1 << level
    rng = SplitMix64(seed)
    preds = maps_from_batch(rng.uniform_block(batch * side * side, low, high).reshape(batch, side, side), level)
    gts = maps_from_batch(rng.uniform_block(batch * side * side, low, high).reshape(batch, side, side), level)
    return preds, gts


def float64_dispatch() -> str:
    """Name the float64 ``exp``/``log``/``log1p`` kernels numpy runs here.

    Scene bits and the softplus depend on them. "libm" when each equals
    Python's ``math`` module (the C library) on a probe vector, as numpy's
    fallback does without AVX-512; "avx512" when they differ and numpy
    dispatches its AVX-512 kernels; otherwise a description of a dispatch
    that no pinned digest covers.
    """
    x = np.linspace(-30.0, 30.0, 601)
    pos = np.linspace(1e-3, 50.0, 601)
    if all(np.array_equal(f(v), [g(t) for t in v]) for f, g, v in (
            (np.exp, math.exp, x), (np.log, math.log, pos), (np.log1p, math.log1p, pos))):
        return "libm"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    if __cpu_features__.get("X86_V4") or __cpu_features__.get("AVX512_SKX"):
        return "avx512"
    found = " ".join(k for k, on in __cpu_features__.items() if on)
    return f"non-libm kernels without AVX-512 (numpy {np.__version__}, CPU features: {found})"


@pytest.fixture
def tmp_path_str(tmp_path):
    return str(tmp_path)
