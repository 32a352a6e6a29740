from __future__ import annotations

import numpy as np
import pytest

from avcmd.flow import binomial_blur


def smooth_texture(height: int, width: int, seed: int, lo: int = 20, hi: int = 235) -> np.ndarray:
    """Band-limited random texture, uint8. Shared by the flow/tracking tests."""
    rng = np.random.default_rng(seed)
    # Cheap separable blur to remove pixel-level noise while keeping corners.
    img = binomial_blur(rng.standard_normal((height, width)), "wrap")
    img -= img.min()
    img /= max(img.max(), 1e-12)
    return (lo + img * (hi - lo)).astype(np.uint8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
