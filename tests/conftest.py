from __future__ import annotations

import tracemalloc

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


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc, which sees numpy's buffers, records during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def malformed_rows(good: dict, nullable: tuple[str, ...] = ()) -> list:
    """Rows a JSON row reader must refuse, built around one `good` row.

    A null, an array, a number and a string in place of the object; then the
    good row with each field missing, or set to an array, to a value of the
    other JSON scalar kind, or (unless the field is nullable) to null.
    """
    rows = [None, [1, 2, 3], 5, "row"]
    for key, value in good.items():
        rows.append({k: v for k, v in good.items() if k != key})
        wrong = 7 if isinstance(value, str) else "7"
        for bad in ([1, 2, 3], wrong) + (() if key in nullable else (None,)):
            rows.append({**good, key: bad})
    return rows
