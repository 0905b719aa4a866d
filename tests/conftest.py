import math
import tracemalloc

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


@pytest.fixture
def tmp_path_str(tmp_path):
    return str(tmp_path)
