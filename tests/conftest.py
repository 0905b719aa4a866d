import functools
import hashlib
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from pml.loss import fd_loss_gradient  # noqa: F401  (shared with the acceptance tests)
from pml.pyramid import DensityMap
from pml.rng import SplitMix64


# the numpy release the dispatch-keyed bit pins pass on, the one CI installs; a pin
# mismatch under another numpy still fails, and its message names both versions
PINNED_NUMPY = "2.4.6"

# pyproject.toml ignores this warning too, but a test's own filterwarnings("error")
# mark would turn it back into the error that ends the session (see there)
_HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(session, config, items):
    """Ignore the warning above under every test's own ``filterwarnings`` marks.

    Filters from marks apply after the ini ones, nearest node first, so the
    session's marks apply last and outrank every test's and class's.
    """
    session.add_marker(pytest.mark.filterwarnings(_HYPOTHESIS_REPORT_WARNING))


def random_map_batch(seed: int, level: int, batch: int, low: float = 0.0, high: float = 1.0):
    """Platform-independent random prediction/ground-truth batches."""
    side = 1 << level
    rng = SplitMix64(seed)
    preds = [DensityMap(level, rng.uniform_block(side * side, low, high).reshape(side, side))
             for _ in range(batch)]
    gts = [DensityMap(level, rng.uniform_block(side * side, low, high).reshape(side, side))
           for _ in range(batch)]
    return preds, gts


def traced_peak(call) -> int:
    """``tracemalloc``'s peak in bytes over ``call()``, above what was traced when it began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def numpy_versions() -> str:
    """The running and the pinned numpy, for a bit pin's failure message."""
    return f"numpy {np.__version__} running, pins recorded on numpy {PINNED_NUMPY}"


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
    from numpy._core._multiarray_umath import __cpu_features__
    if __cpu_features__.get("X86_V4") or __cpu_features__.get("AVX512_SKX"):
        return "avx512"
    found = " ".join(k for k, on in __cpu_features__.items() if on)
    return f"non-libm kernels without AVX-512 ({numpy_versions()}, CPU features: {found})"


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()[:16]


class KernelKey(NamedTuple):
    """The three kernels that move the bit pins, each named by what it computes here.

    ``exp_log`` is ``float64_dispatch()``: scenes and the softplus. ``tanh`` digests
    numpy's float64 ``tanh`` on a fixed vector: the hidden activation, whose kernel
    changes with numpy's AVX2 dispatch. ``blas`` digests one fixed (6, 8192) by
    (8192, 9) matmul, as long as the weight gradients' reductions over 8,192 pixels:
    its bits name the core kernel that OpenBLAS picked at load time.
    """

    exp_log: str
    tanh: str
    blas: str

    def __str__(self) -> str:
        return (f"exp/log/log1p {self.exp_log}, tanh {self.tanh}, "
                f"long-K matmul {self.blas}")


@functools.cache
def kernel_key() -> KernelKey:
    """This process's ``KernelKey``; the kernels are chosen once, at load time."""
    rng = SplitMix64(17)
    a = rng.uniform_block(6 * 8192, -1.0, 1.0).reshape(6, 8192)
    b = rng.uniform_block(9 * 8192, -1.0, 1.0).reshape(9, 8192)
    return KernelKey(float64_dispatch(), _digest(np.tanh(np.linspace(-8.0, 8.0, 8193))),
                     _digest(a @ b.T))


def kernels() -> str:
    """The kernel key and both numpy versions, for a bit pin's failure message."""
    return f"kernels: {kernel_key()}; {numpy_versions()}"


def pinned(table: dict, key):
    """``table[key]``, where ``key`` is ``kernel_key()`` or the parts of it that move
    the pins; a key with no pins fails with a message that names all three parts."""
    assert key in table, f"no pins recorded for these {kernels()}"
    return table[key]


@pytest.fixture
def tmp_path_str(tmp_path):
    return str(tmp_path)
