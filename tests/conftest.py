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


@pytest.fixture
def tmp_path_str(tmp_path):
    return str(tmp_path)
