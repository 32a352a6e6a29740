"""Dense optical flow via iterative pyramidal Lucas-Kanade.

Each frame is turned once into a `FramePyramid`: its Gaussian pyramid and,
per level, the image gradients and the windowed gradient normal matrix (the
structure tensor) with its inverted determinant. A clip of n frames builds
n pyramids, and frame t serves as `nxt` for the pair (t-1, t) and as `prev`
for the pair (t, t+1). The per-level fields are built on first use: a frame
that only ever serves as `nxt` needs its images and nothing else. The
bilinear taps that resize a flow field onto a finer level depend only on
the two shapes, so they are built once per shape pair and shared.

Everything runs in float32, from the frame's conversion to the flow field.
Window sums add the 2r+1 shifted slices of a zero-padded stack along each
axis rather than differencing an integral image, whose large running sums
would cancel in float32. The float64 form of the estimator is the test
oracle in `tests/reference_tracker.py`; against it the flow differs by a
stated tolerance, not bit for bit.

The estimator refines a dense displacement field coarse-to-fine. At every
level the second frame is warped back by the current estimate and a windowed
least-squares increment is solved in closed form per pixel from the first
frame's structure tensor. Textureless pixels (small minimum eigenvalue of the
normal matrix) receive no increment, which leaves them at the value
interpolated from coarser levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import InvalidParameterError
from .frames import GrayFrame

# 5-tap binomial kernel of `binomial_blur`.
_BINOMIAL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement in pixels/frame; u is horizontal, v vertical."""

    width: int
    height: int
    u: np.ndarray  # shape (height, width), float32
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            a = np.asarray(getattr(self, name), dtype=np.float32)
            if a.shape != (self.height, self.width):
                raise InvalidParameterError(f"{name} must have shape (height, width)")
            if not np.all(np.isfinite(a)):
                raise InvalidParameterError(f"{name} contains non-finite values")
            a = np.ascontiguousarray(a)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _as_float_image(frame) -> np.ndarray:
    if isinstance(frame, GrayFrame):
        return frame.data.astype(np.float32)
    a = np.asarray(frame, dtype=np.float32)
    if a.ndim != 2:
        raise InvalidParameterError("expected a 2-D intensity image")
    return a


def binomial_blur(img: np.ndarray, mode: str) -> np.ndarray:
    """Separable 5-tap binomial blur; `mode` is the `np.pad` mode of the border.

    The result has the dtype of a floating-point input; any other input is
    blurred in float64.
    """
    if img.dtype.kind != "f":
        img = img.astype(np.float64)
    h, w = img.shape
    taps = _BINOMIAL.astype(img.dtype)
    p = np.pad(img, 2, mode=mode)
    tmp = np.zeros((h, p.shape[1]), dtype=img.dtype)
    for k, wgt in enumerate(taps):
        tmp += wgt * p[k : k + h, :]
    out = np.zeros((h, w), dtype=img.dtype)
    for k, wgt in enumerate(taps):
        out += wgt * tmp[:, k : k + w]
    return out


def _box_sum(stack: np.ndarray, radius: int) -> np.ndarray:
    """Sum over a (2r+1)^2 window, clipped at the borders, of each (h, w) slice.

    `stack` is (k, h, w). The stack is zero-padded by r on every side, and
    the 2r+1 shifted slices are added along the rows, then along the columns
    of that result, so each window sum adds only values of its own window.
    """
    k, h, w = stack.shape
    r = radius
    p = np.zeros((k, h + 2 * r, w + 2 * r), dtype=stack.dtype)
    p[:, r : r + h, r : r + w] = stack
    rows = p[:, :h].copy()
    for d in range(1, 2 * r + 1):
        rows += p[:, d : d + h]
    out = rows[:, :, :w].copy()
    for d in range(1, 2 * r + 1):
        out += rows[:, :, d : d + w]
    return out


def _structure_tensor(grad: np.ndarray, radius: int):
    """Window sums (sxx, sxy, syy) of the gradient products of `grad` =
    (gx, gy) over a border-clipped (2r+1)^2 window, and the minimum
    eigenvalue of each 2x2 normal matrix. Lucas-Kanade uses the flow
    window's radius; point sampling scores corners with radius 1.
    """
    gx, gy = grad
    sxx, sxy, syy = _box_sum(np.stack([gx * gx, gx * gy, gy * gy]), radius)
    lam_min = 0.5 * (sxx + syy - np.sqrt(np.maximum((sxx - syy) ** 2 + 4.0 * sxy * sxy, 0.0)))
    return sxx, sxy, syy, lam_min


def _pad_edge(img: np.ndarray) -> np.ndarray:
    """`img` with its last row and column repeated once: (h+1, w+1)."""
    h, w = img.shape
    out = np.empty((h + 1, w + 1), dtype=img.dtype)
    out[:h, :w] = img
    out[h, :w] = img[-1]
    out[:, w] = out[:, w - 1]
    return out


def _bilinear_taps(shape: tuple[int, int], ys: np.ndarray, xs: np.ndarray):
    """Where bilinear lookups at (ys, xs) read in an (h, w) image.

    Coordinates are clamped to the image. Returns the flat index of each
    point's top-left neighbour in the `_pad_edge`-padded image, whose extra
    row and column stand in for the clamped neighbours past the last row or
    column, and the fractional offsets (fx, fy).
    """
    h, w = shape
    ys = np.maximum(ys, 0.0)
    np.minimum(ys, h - 1.0, out=ys)
    xs = np.maximum(xs, 0.0)
    np.minimum(xs, w - 1.0, out=xs)
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    ys -= y0
    xs -= x0
    y0 *= w + 1
    y0 += x0  # exact: integers below 2**24, even in float32
    return y0.astype(np.intp), xs, ys


def _interpolate(padded: np.ndarray, taps) -> np.ndarray:
    """Bilinear values of an image, given `_pad_edge(image)`, at `taps`."""
    idx, fx, fy = taps
    flat = padded.ravel()
    row = padded.shape[1]
    gx = 1.0 - fx
    top = flat.take(idx)
    top *= gx
    t = flat[1:].take(idx)
    t *= fx
    top += t
    bot = flat[row:].take(idx)
    bot *= gx
    flat[row + 1 :].take(idx, out=t)
    t *= fx
    bot += t
    top *= 1.0 - fy
    bot *= fy
    top += bot
    return top


@cache
def _upsample_taps(shape: tuple[int, int], coarse_shape: tuple[int, int]):
    """Bilinear taps and (x, y) scale that resize a flow field of
    `coarse_shape` onto `shape`; read-only, built once per shape pair."""
    h, w = shape
    hc, wc = coarse_shape
    ys = (np.arange(h) + 0.5) * (hc / h) - 0.5
    xs = (np.arange(w) + 0.5) * (wc / w) - 0.5
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    idx, fx, fy = _bilinear_taps(coarse_shape, grid_y, grid_x)
    taps = (idx, fx.astype(np.float32), fy.astype(np.float32))
    for a in taps:
        a.flags.writeable = False
    return taps, (w / wc, h / hc)


class _Level:
    """One pyramid level: the image and what Lucas-Kanade derives from it.

    The image and its padded copy serve the level as `nxt` of a frame pair;
    the gradients and structure tensor serve it as `prev` and are built on
    first access, so a pyramid used only as `nxt` (the last frame of a clip,
    or the second array given to `dense_flow`) never builds them.
    """

    def __init__(self, image: np.ndarray, radius: int, min_eig: float):
        h, w = image.shape
        self.image = image
        self.padded = _pad_edge(image)
        self.rows = np.arange(h, dtype=np.float32)[:, None]
        self.cols = np.arange(w, dtype=np.float32)
        self.radius = radius
        self.min_eig = min_eig

    @cached_property
    def grad(self) -> np.ndarray:
        """Central-difference gradients (gx, gy), stacked."""
        gy, gx = np.gradient(self.image)
        return np.stack([gx, gy])

    @cached_property
    def tensor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Windowed normal matrix as (sxx, sxy, -syy) and its inverted
        determinant, zero where the minimum eigenvalue is too small."""
        sxx, sxy, syy, lam_min = _structure_tensor(self.grad, self.radius)
        det = sxx * syy - sxy * sxy
        valid = (lam_min > self.min_eig) & (det > 1e-12)
        inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        return sxx, sxy, -syy, inv_det


class FramePyramid:
    """A frame's Gaussian pyramid with per-level gradients and structure tensor.

    Build it once per frame and pass it to `dense_flow` as `prev` or `nxt`;
    the parameters must equal those given to `dense_flow`. `levels[0]` is the
    full-resolution frame in float32, and `levels[0].grad` its stacked
    central-difference gradients (gx, gy), which `track` also uses to sample
    points and to build hog.
    """

    def __init__(self, frame, levels: int = 3, window: int = 7, min_eig: float = 1e-3):
        if levels < 1:
            raise InvalidParameterError("levels must be >= 1")
        img = _as_float_image(frame)
        self.params = (levels, window, min_eig)
        self.shape = img.shape
        radius = max(1, window // 2)
        images = [img]
        for _ in range(levels - 1):
            if min(images[-1].shape) < 8:
                break
            images.append(np.ascontiguousarray(binomial_blur(images[-1], "edge")[::2, ::2]))
        self.levels = [_Level(im, radius, min_eig) for im in images]


def _pyramid(frame, levels: int, window: int, min_eig: float) -> FramePyramid:
    if not isinstance(frame, FramePyramid):
        return FramePyramid(frame, levels, window, min_eig)
    if frame.params != (levels, window, min_eig):
        raise InvalidParameterError(
            f"pyramid built with (levels, window, min_eig) = {frame.params}, "
            f"flow asked for {(levels, window, min_eig)}"
        )
    return frame


def dense_flow(
    prev,
    nxt,
    levels: int = 3,
    window: int = 7,
    iterations: int = 3,
    min_eig: float = 1e-3,
) -> FlowField:
    """Estimate dense displacement from `prev` to `nxt`.

    Inputs are GrayFrames, 2-D arrays of equal shape (converted to
    float32), or `FramePyramid`s built with the same `levels`, `window` and
    `min_eig`; `levels` is the pyramid depth (>= 1). For a pure integer
    translation of a textured image the interior median of the result
    matches the translation to well under a quarter pixel per component.
    """
    if levels < 1:
        raise InvalidParameterError("levels must be >= 1")
    pa = _pyramid(prev, levels, window, min_eig)
    pb = _pyramid(nxt, levels, window, min_eig)
    if pa.shape != pb.shape:
        raise InvalidParameterError("frames must share dimensions")
    radius = max(1, window // 2)

    u = np.zeros_like(pa.levels[-1].image)
    v = np.zeros_like(u)
    for la, lb in zip(reversed(pa.levels), reversed(pb.levels)):
        if u.shape != la.image.shape:
            taps, (scale_x, scale_y) = _upsample_taps(la.image.shape, u.shape)
            u = _interpolate(_pad_edge(u), taps)
            u *= scale_x
            v = _interpolate(_pad_edge(v), taps)
            v *= scale_y

        shape = la.image.shape
        sxx, sxy, neg_syy, inv_det = la.tensor
        prod = np.empty((2,) + shape, dtype=np.float32)
        for _ in range(iterations):
            it = _interpolate(lb.padded, _bilinear_taps(shape, la.rows + v, la.cols + u))
            it -= la.image
            np.multiply(la.grad, it, out=prod)
            sxt, syt = _box_sum(prod, radius)
            du = neg_syy * sxt
            du += sxy * syt
            du *= inv_det
            dv = sxy * sxt
            dv -= sxx * syt
            dv *= inv_det
            # A single increment larger than the window is never trustworthy.
            np.clip(du, -radius, radius, out=du)
            np.clip(dv, -radius, radius, out=dv)
            u += du
            v += dv

    return FlowField(width=pa.shape[1], height=pa.shape[0], u=u, v=v)


def median_filter_3x3(field: np.ndarray) -> np.ndarray:
    """3x3 median with edge replication; stabilizes flow before tracking.

    Devillard's `opt_med9` min/max selection network. Its first nine
    compare-exchanges sort three triples; taking each triple as a column of
    the window lets neighbouring windows share those sorts, so the columns
    are sorted once and the remaining ten exchanges run on shifted views.
    For finite input the result equals `np.median` over the nine values, in
    the input's floating-point dtype (integers become float64): the network
    only selects values. Non-finite input is rejected because NaN ordering
    is undefined here.
    """
    a = np.asarray(field)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError("median filter input contains non-finite values")
    p = np.pad(a, 1, mode="edge")
    h, w = a.shape
    # Sort every vertical triple of the padded field: lo <= mid <= hi.
    top, center, bottom = p[:-2], p[1:-1], p[2:]
    mid = np.minimum(center, bottom)
    hi = np.maximum(center, bottom)
    lo = np.minimum(top, mid)
    np.maximum(top, mid, out=mid)
    mid, hi = np.minimum(mid, hi), np.maximum(mid, hi, out=hi)
    # Window columns x, x+1, x+2 hold (p0..p2), (p3..p5), (p6..p8).
    l0, l1, l2 = lo[:, :w], lo[:, 1 : w + 1], lo[:, 2:]
    m0, m1, m2 = mid[:, :w], mid[:, 1 : w + 1], mid[:, 2:]
    h0, h1, h2 = hi[:, :w], hi[:, 1 : w + 1], hi[:, 2:]
    p3 = np.maximum(l0, l1)                 # sort(p0, p3): only the max is used
    p5 = np.minimum(h1, h2)                 # sort(p5, p8): only the min
    p4 = np.minimum(m1, m2)                 # sort(p4, p7)
    p7 = np.maximum(m1, m2)
    p6 = np.maximum(p3, l2, out=p3)         # sort(p3, p6): max
    np.maximum(m0, p4, out=p4)              # sort(p1, p4): max
    p2 = np.minimum(h0, p5, out=p5)         # sort(p2, p5): min
    np.minimum(p4, p7, out=p4)              # sort(p4, p7): min
    lo4 = np.minimum(p4, p2)                # sort(p4, p2)
    np.maximum(p4, p2, out=p2)
    np.maximum(p6, lo4, out=lo4)            # sort(p6, p4): max
    return np.minimum(lo4, p2, out=lo4)     # sort(p4, p2): min
