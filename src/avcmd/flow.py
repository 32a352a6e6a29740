"""Dense optical flow via iterative pyramidal Lucas-Kanade.

Every frame gets a `FramePyramid`: its Gaussian pyramid and, per level, the
image gradients and the windowed gradient normal matrix (the structure
tensor) with its inverted determinant. A pyramid is built for a (T, h, w)
stack of frames at once, one numpy pass per level, and frame t's pyramid
is views into the stacks; one frame is the stack of T = 1. `track` builds
a clip's pyramids in chunks of frames, and frame t serves as `nxt` for the
pair (t-1, t) and as `prev` for the pair (t, t+1). The bilinear taps that
resize a flow field onto a finer level depend only on the two shapes, so
they are built once per shape pair and shared.

Everything runs in float32, from the conversion of the frames, each checked
against `MAX_INTENSITY` so that no float32 sum overflows, to the flow field.
Every pyramid operation is elementwise or per image, so a frame's pyramid
is the same bit for bit whichever stack it was built in. Window sums add
the 2r+1 shifted slices of a zero-padded stack along each axis rather than
differencing an integral image, whose large running sums would cancel in
float32. The float64 form of the estimator is the test oracle in
`tests/reference_tracker.py`; against it the flow differs by a stated
tolerance, not bit for bit.

The estimator refines a dense displacement field coarse-to-fine. At every
level the second frame is warped back by the current estimate and a windowed
least-squares increment is solved in closed form per pixel from the first
frame's structure tensor. Textureless pixels (small minimum eigenvalue of the
normal matrix) receive no increment, which leaves them at the value
interpolated from coarser levels. The estimate is one float32 (2, h, w)
field (u, v) from the coarsest level to the caller: the bilinear helpers
read every image of a stack at one set of taps, so each increment is one
warp, one 2x2 solve, one clip and one add, and one upsample moves both
components to the next level.

The recipe is fixed: a (2 `LK_RADIUS` + 1)^2 window, `LK_ITERATIONS`
increments per level and the eigenvalue floor `MIN_EIG`. The one setting
is the pyramid depth, which `FramePyramid` takes and `dense_flow` reads
from the pyramids it is given.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidParameterError

# Pyramid depth of `FramePyramid`, and the tracker's default.
PYRAMID_LEVELS = 3
# Lucas-Kanade: the window's radius (7x7), increments per level, and the
# minimum eigenvalue of the normal matrix below which a pixel gets none.
LK_RADIUS = 3
LK_ITERATIONS = 3
MIN_EIG = 1e-3

# 5-tap binomial kernel of `binomial_blur`.
_BINOMIAL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@cache
def _binomial_taps(dtype: np.dtype) -> tuple:
    """The kernel's taps as scalars of `dtype`, built once per dtype."""
    return tuple(_BINOMIAL.astype(dtype))


# Largest intensity magnitude M a frame may hold: every integer up to it is
# exact in float32, and a gradient is at most 2M, so a 7x7 sum of gradient
# products is at most 196 M^2 and a determinant about 4e4 M^4 = 3e33 < 3.4e38.
MAX_INTENSITY = 2.0**24


def _as_float_stack(frames) -> tuple[np.ndarray, bool]:
    """`frames` as a (T, h, w) float32 stack, and whether it was one frame.

    One frame is a 2-D array, such as a row of `Clip.frames`; a stack is a
    3-D array, such as `Clip.frames` or a slice of it, or a sequence of
    frames. Anything numpy converts to such an array of real numbers, each
    finite and at most `MAX_INTENSITY` in magnitude, is accepted; the check
    comes before the cast, so none warns, and skips uint8 and uint16 frames.
    """
    try:
        a = np.asarray(frames)
    except ValueError:
        raise InvalidParameterError("frames must be intensity images of one shape") from None
    if a.ndim not in (2, 3) or 0 in a.shape or a.dtype.kind not in "biuf":
        raise InvalidParameterError("expected a 2-D image of real intensities or a non-empty stack of them")
    if a.dtype not in (np.uint8, np.uint16) and not (-MAX_INTENSITY <= a.min() and a.max() <= MAX_INTENSITY):
        raise InvalidParameterError(f"frame intensities must be finite and at most {MAX_INTENSITY:.0f} in magnitude")
    a = a.astype(np.float32, copy=False)
    return (a[None], True) if a.ndim == 2 else (a, False)


def binomial_blur(img: np.ndarray, mode: str, stride: int = 1) -> np.ndarray:
    """Separable 5-tap binomial blur of an image, or of each image of a
    (T, h, w) stack; `mode` is the `np.pad` mode of the border.

    With `stride` s only every s-th row and column is computed, starting
    with the first: the values of `binomial_blur(img, mode)[..., ::s, ::s]`,
    as a pyramid level takes them. The result has the dtype of a
    floating-point input; any other input is blurred in float64.
    """
    if img.dtype.kind != "f":
        img = img.astype(np.float64)
    lead, (h, w) = img.shape[:-2], img.shape[-2:]
    taps = _binomial_taps(img.dtype)
    p = np.pad(img, ((0, 0), (2, 2), (2, 2)), mode=mode) if lead else np.pad(img, 2, mode=mode)
    rows = (h - 1) // stride + 1
    tmp = np.zeros((*lead, rows, w + 4), dtype=img.dtype)
    for k, wgt in enumerate(taps):
        tmp += wgt * p[..., k : k + h : stride, :]
    out = np.zeros((*lead, rows, (w - 1) // stride + 1), dtype=img.dtype)
    for k, wgt in enumerate(taps):
        out += wgt * tmp[..., k : k + w : stride]
    return out


def _window_sums(padded: np.ndarray, radius: int) -> np.ndarray:
    """Sum over every (2r+1)^2 window of each zero-padded (h+2r, w+2r) slice.

    The 2r+1 shifted slices are added along the rows, then along the
    columns of that result, so each window sum adds only values of its own
    window; an (h, w) window clipped at the borders adds the zeros of the
    padding.
    """
    r = radius
    h, w = padded.shape[-2] - 2 * r, padded.shape[-1] - 2 * r
    rows = np.add(padded[..., :h, :], padded[..., 1 : 1 + h, :])
    for d in range(2, 2 * r + 1):
        rows += padded[..., d : d + h, :]
    out = np.add(rows[..., :w], rows[..., 1 : 1 + w])
    for d in range(2, 2 * r + 1):
        out += rows[..., d : d + w]
    return out


def _structure_tensor(grad: np.ndarray, radius: int):
    """Window sums (sxx, sxy, syy) of the gradient products of `grad` =
    (gx, gy) over a border-clipped (2r+1)^2 window, and the minimum
    eigenvalue of each 2x2 normal matrix. Lucas-Kanade uses the flow
    window's radius; point sampling scores corners with radius 1. gx and gy
    may be stacks of frames; the products go straight into the padded
    buffer of the window sums.
    """
    gx, gy = grad
    *lead, h, w = gx.shape
    r = radius
    p = np.zeros((3, *lead, h + 2 * r, w + 2 * r), dtype=gx.dtype)
    inner = p[..., r : r + h, r : r + w]
    np.multiply(gx, gx, out=inner[0])
    np.multiply(gx, gy, out=inner[1])
    np.multiply(gy, gy, out=inner[2])
    sxx, sxy, syy = _window_sums(p, r)
    # 0.5 * (sxx + syy - sqrt(max((sxx - syy)^2 + 4 sxy^2, 0))), in place
    root = sxx - syy
    root *= root
    t = 4.0 * sxy
    t *= sxy
    root += t
    np.maximum(root, 0.0, out=root)
    np.sqrt(root, out=root)
    lam_min = sxx + syy
    lam_min -= root
    lam_min *= 0.5
    return sxx, sxy, syy, lam_min


def _pad_edge(img: np.ndarray) -> np.ndarray:
    """`img` (..., h, w) with its last row and column repeated once: (..., h+1, w+1)."""
    *lead, h, w = img.shape
    out = np.empty((*lead, h + 1, w + 1), dtype=img.dtype)
    out[..., :h, :w] = img
    out[..., h, :w] = img[..., -1, :]
    out[..., :, w] = out[..., :, w - 1]
    return out


def _gradients(images: np.ndarray) -> np.ndarray:
    """Central-difference gradients of a (T, h, w) stack as (T, 2, h, w) = (gx, gy).

    `np.gradient`'s values: halved central differences inside, one-sided
    differences on the first and last row and column.
    """
    t, h, w = images.shape
    if h < 2 or w < 2:
        raise InvalidParameterError("frames must be at least 2x2 pixels")
    grad = np.empty((t, 2, h, w), dtype=images.dtype)
    gx, gy = grad[:, 0], grad[:, 1]
    np.subtract(images[:, :, 2:], images[:, :, :-2], out=gx[:, :, 1:-1])
    gx[:, :, 1:-1] *= 0.5
    np.subtract(images[:, :, 1], images[:, :, 0], out=gx[:, :, 0])
    np.subtract(images[:, :, -1], images[:, :, -2], out=gx[:, :, -1])
    np.subtract(images[:, 2:], images[:, :-2], out=gy[:, 1:-1])
    gy[:, 1:-1] *= 0.5
    np.subtract(images[:, 1], images[:, 0], out=gy[:, 0])
    np.subtract(images[:, -1], images[:, -2], out=gy[:, -1])
    return grad


def _bilinear_taps(shape: tuple[int, int], yx: np.ndarray):
    """Where bilinear lookups at the points `yx` = (ys, xs), a (2, ...)
    array, read in an (h, w) image.

    Coordinates are clamped to the image. Returns the flat index of each
    point's top-left neighbour in the `_pad_edge`-padded image, whose extra
    row and column stand in for the clamped neighbours past the last row or
    column, and the fractional offsets (fy, fx) as one (2, ...) array.
    """
    h, w = shape
    yx = np.maximum(yx, 0.0)
    np.minimum(yx[0], h - 1.0, out=yx[0])
    np.minimum(yx[1], w - 1.0, out=yx[1])
    corner = np.floor(yx)
    yx -= corner
    y0, x0 = corner
    y0 *= w + 1
    y0 += x0  # exact: integers below 2**24, even in float32
    return y0.astype(np.intp), yx


def _interpolate(padded: np.ndarray, taps) -> np.ndarray:
    """Bilinear values of each image of a stack, given its `_pad_edge` copy
    (..., h+1, w+1), at `taps`: an array of shape (..., *points)."""
    idx, (fy, fx) = taps
    flat = padded.reshape(*padded.shape[:-2], -1)
    row = padded.shape[-1]
    gx = 1.0 - fx
    top = flat.take(idx, axis=-1)
    top *= gx
    t = flat[..., 1:].take(idx, axis=-1)
    t *= fx
    top += t
    bot = flat[..., row:].take(idx, axis=-1)
    bot *= gx
    flat[..., row + 1 :].take(idx, axis=-1, out=t)
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
    idx, frac = _bilinear_taps(coarse_shape, np.stack(np.meshgrid(ys, xs, indexing="ij")))
    taps = (idx, frac.astype(np.float32))
    for a in taps:
        a.flags.writeable = False
    return taps, (w / wc, h / hc)


@dataclass(frozen=True, eq=False)
class _Level:
    """One pyramid level of a stack of frames, or of one frame.

    `image` and its `_pad_edge` copy `padded` serve the level as `nxt` of a
    frame pair. The stacked central-difference gradients `grad` (gx, gy)
    and `tensor` serve it as `prev`. `tensor` is (coef, inv_det): the
    windowed normal matrix [[sxx, sxy], [sxy, syy]] as the three planes
    coef = (-syy, sxy, -sxx), so that its negated adjugate's rows are
    coef[:2] and coef[1:], and its inverted determinant, zero where the
    minimum eigenvalue is too small. `grid` is the (2, h, w) float32 grid of
    (row, column) coordinates, shared by a stack's frames. A stack's level
    holds (T, ...) arrays, and `frame(t)` is frame t's level as views into
    them. `grad` is an array of its own, so a view of it keeps neither the
    tensor nor other levels alive.
    """

    image: np.ndarray
    padded: np.ndarray
    grad: np.ndarray
    tensor: tuple[np.ndarray, np.ndarray]
    grid: np.ndarray

    @classmethod
    def of_stack(cls, images: np.ndarray) -> "_Level":
        """The level of a (T, h, w) float32 stack, every field built at once."""
        grad = _gradients(images)
        sxx, sxy, syy, lam_min = _structure_tensor(grad.swapaxes(0, 1), LK_RADIUS)
        det = sxx * syy
        det -= sxy * sxy
        valid = (lam_min > MIN_EIG) & (det > 1e-12)
        inv_det = np.divide(1.0, det, out=np.zeros_like(det), where=valid)
        coef = np.stack([-syy, sxy, -sxx], axis=1)
        grid = np.indices(images.shape[1:], dtype=np.float32)
        return cls(images, _pad_edge(images), grad, (coef, inv_det), grid)

    def frame(self, t: int) -> "_Level":
        tensor = tuple(a[t] for a in self.tensor)
        return _Level(self.image[t], self.padded[t], self.grad[t], tensor, self.grid)


class FramePyramid:
    """Gaussian pyramids with per-level gradients and structure tensors.

    `FramePyramid(frame)` is one frame's pyramid; pass it to `dense_flow` as
    `prev` or `nxt`. `FramePyramid(frames)`, for a sequence of frames or a
    (T, h, w) array, builds the pyramids of all T frames in one pass per
    level, and `frame(t)` is frame t's pyramid as views into those stacks,
    bit for bit the pyramid `FramePyramid(frames[t])` would build. `levels`
    asks for the depth; a level smaller than 8 pixels on a side gets no
    coarser one. `levels[0]` is the full-resolution frame in float32, and
    `levels[0].grad` its stacked central-difference gradients (gx, gy),
    which `track` also uses to sample points and to build hog.
    """

    def __init__(self, frames, levels: int = PYRAMID_LEVELS):
        if levels < 1:
            raise InvalidParameterError("levels must be >= 1")
        images, one = _as_float_stack(frames)
        self.shape = images.shape[1:]
        self.n_frames = None if one else len(images)
        self.levels = [_Level.of_stack(images)]
        while len(self.levels) < levels and min(images.shape[1:]) >= 8:
            images = binomial_blur(images, "edge", stride=2)
            self.levels.append(_Level.of_stack(images))
        if one:
            self.levels = [lvl.frame(0) for lvl in self.levels]

    def frame(self, t: int) -> "FramePyramid":
        """Frame t's pyramid, as views into this stack's arrays."""
        if self.n_frames is None:
            raise InvalidParameterError("a single frame's pyramid has no frame axis")
        pyramid = copy.copy(self)
        pyramid.n_frames = None
        pyramid.levels = [lvl.frame(t) for lvl in self.levels]
        return pyramid


def _pyramid(frame) -> FramePyramid:
    if not isinstance(frame, FramePyramid):
        frame = FramePyramid(frame)
    if frame.n_frames is not None:
        raise InvalidParameterError("dense_flow takes one frame's pyramid: pass stack.frame(t)")
    return frame


def dense_flow(prev, nxt) -> np.ndarray:
    """Estimate dense displacement from `prev` to `nxt`, in pixels/frame.

    Inputs are 2-D arrays of equal shape, such as rows of `Clip.frames`,
    each converted to float32 and built into a `FramePyramid` of the
    default depth, or one frame's pyramid each (`FramePyramid(frame,
    levels)` or `stack.frame(t)`), used as it is. The two pyramids must
    have the same shape and the same number of levels. Returns the float32
    (2, h, w) field (u, v), u horizontal and v vertical. For a pure integer
    translation of a textured image the interior median of the result
    matches the translation to well under a quarter pixel per component.
    """
    pa, pb = _pyramid(prev), _pyramid(nxt)
    if pa.shape != pb.shape or len(pa.levels) != len(pb.levels):
        raise InvalidParameterError("frames must share dimensions and pyramid depth")

    uv = np.zeros((2, *pa.levels[-1].image.shape), dtype=np.float32)  # (u, v)
    for la, lb in zip(reversed(pa.levels), reversed(pb.levels)):
        shape = la.image.shape
        if uv.shape[1:] != shape:
            taps, (scale_x, scale_y) = _upsample_taps(shape, uv.shape[1:])
            uv = _interpolate(_pad_edge(uv), taps)
            uv[0] *= scale_x
            uv[1] *= scale_y

        coef, inv_det = la.tensor
        r = LK_RADIUS
        p = np.zeros((2, shape[0] + 2 * r, shape[1] + 2 * r), dtype=np.float32)
        prod = p[:, r : r + shape[0], r : r + shape[1]]
        for _ in range(LK_ITERATIONS):
            it = _interpolate(lb.padded, _bilinear_taps(shape, la.grid + uv[::-1]))
            it -= la.image
            np.multiply(la.grad, it, out=prod)
            sxt, syt = _window_sums(p, r)
            d = coef[:2] * sxt
            d += coef[1:] * syt
            d *= inv_det
            # A single increment larger than the window is never trustworthy.
            np.clip(d, -r, r, out=d)
            uv += d

    return uv


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
