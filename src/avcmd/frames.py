"""Frame and clip data model plus the logarithmic depth transform.

Visual streams are carried as 8-bit grayscale arrays regardless of their
origin: the RGB stream as its gray intensity, and depth input (uint16
millimeters, one frame or a whole (T, h, w) stack) compressed with a
logarithmic map so the full 8-bit range is used up to the sensor cap. A clip
is one read-only (T, h, w) uint8 array, so frame t is the row
`clip.frames[t]` and a subclip is a view; `GrayFrame` is a single frame with
its dimensions, and numpy takes it wherever it takes an array. Clips are
read-only after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import lru_cache

import numpy as np

from .errors import FormatError, InvalidParameterError


class Modality(IntEnum):
    """Visual modality of a clip. Values double as the container codes."""

    RGB = 0         # gray intensity of an RGB stream
    LOG_DEPTH = 1   # depth stream after the logarithmic transform


class Sensor(IntEnum):
    S1 = 1
    S2 = 2
    S3 = 3


def _frozen(a, dtype) -> np.ndarray:
    """`a` as a read-only C-contiguous `dtype` array, a view of `a` (whose flag is left alone) when it is one.

    Other dtypes must hold only integers in the range of `dtype`, which cast
    unchanged; anything else, NaN included, is refused before it can wrap
    or truncate.
    """
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):
        cast = a.astype(dtype, copy=False)  # `a` itself when it has `dtype` already
    if cast is not a and not np.array_equal(cast, a):
        raise InvalidParameterError(f"samples must be integers in [0, {np.iinfo(dtype).max}]")
    cast = np.asarray(cast, order="C").view()
    cast.flags.writeable = False
    return cast


@dataclass(frozen=True)
class GrayFrame:
    """Single 8-bit intensity frame, row-major."""

    width: int
    height: int
    data: np.ndarray  # shape (height, width), uint8, read-only

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidParameterError("frame dimensions must be positive")
        a = _frozen(self.data, np.uint8)
        if a.size != self.width * self.height:
            raise FormatError(
                f"frame data has {a.size} samples, expected "
                f"{self.width * self.height}"
            )
        object.__setattr__(self, "data", a.reshape(self.height, self.width))

    @classmethod
    def from_array(cls, a: np.ndarray) -> "GrayFrame":
        a = np.asarray(a)
        if a.ndim != 2:
            raise FormatError("expected a 2-D intensity array")
        return cls(width=a.shape[1], height=a.shape[0], data=a.copy())

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class Clip:
    """A timed sequence of same-sized gray frames in one modality.

    `frames` is one read-only (T, h, w) uint8 array; a (T, h, w) array or a
    sequence of T 2-D arrays or GrayFrames, of integers in [0, 255], is
    accepted. A C-contiguous uint8 array is not copied: the clip holds a
    read-only view of it, and the caller's array keeps its own writeable flag.
    """

    frames: np.ndarray
    fps: float
    modality: Modality
    sensor_id: Sensor = Sensor.S1

    def __post_init__(self):
        try:
            frames = _frozen(self.frames, np.uint8)
        except ValueError:
            raise InvalidParameterError("all frames in a clip must share dimensions") from None
        if frames.ndim != 3 or 0 in frames.shape:
            raise InvalidParameterError("clip must be a non-empty stack of non-empty frames")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise InvalidParameterError(f"fps must be finite and positive, not {self.fps}")
        object.__setattr__(self, "frames", frames)

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    def __len__(self) -> int:
        return len(self.frames)

    def subclip(self, start: int, stop: int) -> "Clip":
        """Frames [start, stop) with this clip's metadata, as a view."""
        if not 0 <= start < stop <= len(self.frames):
            raise InvalidParameterError("subclip range out of bounds")
        return replace(self, frames=self.frames[start:stop])


@lru_cache(maxsize=8)
def _log_table(d_max: int) -> np.ndarray:
    """The read-only uint8 table of `log_depth` for depths 0..d_max."""
    lut_in = np.arange(d_max + 1, dtype=np.float64)
    lut = np.rint(255.0 * np.log1p(lut_in) / np.log1p(float(d_max)))
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    lut.flags.writeable = False
    return lut


def log_depth(depth: np.ndarray, d_max: int) -> np.ndarray:
    """Compress uint16 depths to 8 bits with v = round(255 ln(1+d)/ln(1+d_max)).

    `depth` is one frame or a (T, h, w) stack, every sample an integer in
    [0, d_max]; other dtypes are accepted when they hold only such integers.
    Monotone nondecreasing in d, with 0 -> 0 and d_max -> 255; near-range
    structure gets most of the output levels, which is what makes depth
    streams usable for trajectory extraction.
    """
    if d_max <= 0:
        raise InvalidParameterError("d_max must be positive")
    depth = _frozen(depth, np.uint16)
    if depth.size and int(depth.max()) > d_max:
        raise InvalidParameterError("depth sample exceeds d_max")
    # Depth is at most 16-bit: a lookup table is cheaper than a log per pixel.
    return _log_table(d_max)[depth]
