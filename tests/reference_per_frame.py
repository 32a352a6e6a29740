"""Reference oracles for the stacked pyramid, the flow field and the tracker's integral passes.

These are the float32 tracker's earlier forms, one frame at a time: a
`FramePyramid` built per frame, with each level's gradients and structure
tensor built lazily on first use from 2-D blur, box-sum and edge-padding
helpers; the Lucas-Kanade loop that carries u and v as two arrays, with its
bilinear helpers for one image and one coordinate array per axis; point
sampling by a Python loop over the grid nodes with a set of occupied cells;
orientation bins counted in intp; an integral histogram with `np.cumsum` as
its column prefix, read as [y, x]; and the tracking loop that builds one
pyramid per frame and advances points one flow component at a time. The
package's chunked stacks, (2, h, w) flow field, array sampling and
transposed integrals must reproduce them bit for bit; the tests compare
with `np.array_equal` and `.tobytes()`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from avcmd import flow
from avcmd.flow import median_filter_3x3
from avcmd.frames import Clip, GrayFrame
from avcmd.trajectories import (
    TrackerParams,
    TrackResult,
    TrajectorySet,
    _l2_rows,
    _tube_inside,
    descriptor_traj,
    is_erratic,
    is_static,
)

# ---------------------------------------------------------------------------
# per-frame pyramid


def binomial_blur(img: np.ndarray, mode: str) -> np.ndarray:
    if img.dtype.kind != "f":
        img = img.astype(np.float64)
    h, w = img.shape
    taps = flow._BINOMIAL.astype(img.dtype)
    p = np.pad(img, 2, mode=mode)
    tmp = np.zeros((h, p.shape[1]), dtype=img.dtype)
    for k, wgt in enumerate(taps):
        tmp += wgt * p[k : k + h, :]
    out = np.zeros((h, w), dtype=img.dtype)
    for k, wgt in enumerate(taps):
        out += wgt * tmp[:, k : k + w]
    return out


def _box_sum(stack: np.ndarray, radius: int) -> np.ndarray:
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
    gx, gy = grad
    sxx, sxy, syy = _box_sum(np.stack([gx * gx, gx * gy, gy * gy]), radius)
    lam_min = 0.5 * (sxx + syy - np.sqrt(np.maximum((sxx - syy) ** 2 + 4.0 * sxy * sxy, 0.0)))
    return sxx, sxy, syy, lam_min


def _pad_edge(img: np.ndarray) -> np.ndarray:
    h, w = img.shape
    out = np.empty((h + 1, w + 1), dtype=img.dtype)
    out[:h, :w] = img
    out[h, :w] = img[-1]
    out[:, w] = out[:, w - 1]
    return out


class _Level:
    def __init__(self, image: np.ndarray, radius: int, min_eig: float):
        h, w = image.shape
        self.image = image
        self.padded = _pad_edge(image)
        self.rows = np.arange(h, dtype=np.float32)[:, None]
        self.cols = np.arange(w, dtype=np.float32)
        self.grid = np.stack(np.broadcast_arrays(self.rows, self.cols))
        self.radius = radius
        self.min_eig = min_eig

    @cached_property
    def grad(self) -> np.ndarray:
        gy, gx = np.gradient(self.image)
        return np.stack([gx, gy])

    @cached_property
    def normal(self):
        """The normal matrix as (sxx, sxy, -syy) and its inverted determinant."""
        sxx, sxy, syy, lam_min = _structure_tensor(self.grad, self.radius)
        det = sxx * syy - sxy * sxy
        valid = (lam_min > self.min_eig) & (det > 1e-12)
        inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        return sxx, sxy, -syy, inv_det

    @cached_property
    def tensor(self):
        """`normal` in the package's layout: ((-syy, sxy, -sxx), inv_det)."""
        sxx, sxy, neg_syy, inv_det = self.normal
        return np.stack([neg_syy, sxy, -sxx]), inv_det


class FramePyramid(flow.FramePyramid):
    """One frame's pyramid, built as before stacks; both `dense_flow`s accept it."""

    def __init__(self, frame, levels: int = 3, window: int = 7, min_eig: float = 1e-3):
        if isinstance(frame, GrayFrame):
            img = frame.data.astype(np.float32)
        else:
            img = np.asarray(frame, dtype=np.float32)
        self.shape = img.shape
        self.n_frames = None
        radius = max(1, window // 2)
        images = [img]
        for _ in range(levels - 1):
            if min(images[-1].shape) < 8:
                break
            images.append(np.ascontiguousarray(binomial_blur(images[-1], "edge")[::2, ::2]))
        self.levels = [_Level(im, radius, min_eig) for im in images]


# ---------------------------------------------------------------------------
# Lucas-Kanade, one flow component at a time


def _bilinear_taps(shape: tuple[int, int], ys: np.ndarray, xs: np.ndarray):
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


def _upsample_taps(shape: tuple[int, int], coarse_shape: tuple[int, int]):
    h, w = shape
    hc, wc = coarse_shape
    ys = (np.arange(h) + 0.5) * (hc / h) - 0.5
    xs = (np.arange(w) + 0.5) * (wc / w) - 0.5
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    idx, fx, fy = _bilinear_taps(coarse_shape, grid_y, grid_x)
    return (idx, fx.astype(np.float32), fy.astype(np.float32)), (w / wc, h / hc)


def dense_flow(prev, nxt) -> np.ndarray:
    """Flow between two frames or their per-frame pyramids, u and v apart,
    returned as the package returns it: np.stack([u, v]).

    The window radius is the pyramids' own, so they must be built with the
    window that `avcmd.flow.LK_RADIUS` gives the package's pyramids.
    """
    pa = prev if isinstance(prev, FramePyramid) else FramePyramid(prev)
    pb = nxt if isinstance(nxt, FramePyramid) else FramePyramid(nxt)
    assert pa.shape == pb.shape and len(pa.levels) == len(pb.levels)

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
        r = la.radius
        sxx, sxy, neg_syy, inv_det = la.normal
        prod = np.empty((2,) + shape, dtype=np.float32)
        for _ in range(flow.LK_ITERATIONS):
            it = _interpolate(lb.padded, _bilinear_taps(shape, la.rows + v, la.cols + u))
            it -= la.image
            np.multiply(la.grad, it, out=prod)
            sxt, syt = _box_sum(prod, r)
            du = neg_syy * sxt
            du += sxy * syt
            du *= inv_det
            dv = sxy * sxt
            dv -= sxx * syt
            dv *= inv_det
            np.clip(du, -r, r, out=du)
            np.clip(dv, -r, r, out=dv)
            u += du
            v += dv

    return np.stack([u, v])


# ---------------------------------------------------------------------------
# sampling and descriptors


def sample_points(grad: np.ndarray, step: int, occupied=(), quality: float = 0.001) -> list[tuple[float, float]]:
    _, h, w = grad.shape
    score = _structure_tensor(grad, 1)[3]
    max_score = float(score.max())
    if max_score <= 0.0:
        return []
    threshold = quality * max_score
    taken = {(int(x // step), int(y // step)) for x, y in occupied}
    return [
        (float(x), float(y))
        for y in range(step // 2, h, step)
        for x in range(step // 2, w, step)
        if (x // step, y // step) not in taken and score[y, x] >= threshold and score[y, x] > 0.0
    ]


def _orientation_bins(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = (gy < 0) | ((gy == 0) & (gx < 0))
    x = np.where(lower, -gx, gx)
    y = np.where(lower, -gy, gy)
    bins = (y >= x).astype(np.intp)
    bins += x <= 0
    bins += y <= -x
    bins += 4 * lower
    return bins, np.hypot(gx, gy)


def _rect_sums(integ, y0, y1, x0, x1):
    return integ[y1, x1] - integ[y0, x1] - integ[y1, x0] + integ[y0, x0]


def frame_integrals(grad, flow_uv, bbox, params: TrackerParams) -> np.ndarray:
    """The integral histogram as [y, x, bin], column prefix by `np.cumsum`."""
    nb = params.n_bins
    y0, y1, x0, x1 = bbox
    gx, gy = grad
    u, v = flow_uv
    dy, dx = np.gradient(np.stack([u, v]), axis=(1, 2))
    box = np.s_[y0:y1, x0:x1]
    bins, weights = _orientation_bins(
        np.stack([gx[box], u[box], dx[0][box], dx[1][box]]),
        np.stack([gy[box], v[box], dy[0][box], dy[1][box]]),
    )
    still = weights[1] < params.hof_zero_thresh
    bins[1][still] = nb
    weights[1][still] = 1.0
    bins += np.array([0, nb, 2 * nb + 1, 3 * nb + 1])[:, None, None]

    bh, bw = y1 - y0, x1 - x0
    integ = np.zeros((bh + 1, bw + 1, 4 * nb + 1), dtype=np.float32)
    maps = integ[1:, 1:]
    maps[np.arange(bh)[:, None], np.arange(bw), bins] = weights
    for y in range(1, bh):
        np.add(maps[y - 1], maps[y], out=maps[y])
    np.cumsum(maps, axis=1, out=maps)
    return integ


def describe_batch(starts, paths, grads, flows, params: TrackerParams):
    p = params
    L = p.traj_len
    nb = p.n_bins
    half = p.tube_size // 2
    cs = p.tube_size // p.spatial_cells
    n = len(starts)

    acc = np.zeros((n, p.temporal_cells, p.spatial_cells, p.spatial_cells, 4 * nb + 1))
    centers = np.rint(paths[:, :L]).astype(np.intp)
    tube_frames = starts[:, None] + np.arange(L)
    for f in np.unique(tube_frames):
        idxs, ts = np.nonzero(tube_frames == f)
        tcs = ts // (L // p.temporal_cells)
        cxs = centers[idxs, ts, 0]
        cys = centers[idxs, ts, 1]
        bbox = (int(cys.min() - half), int(cys.max() + half), int(cxs.min() - half), int(cxs.max() + half))
        integ = frame_integrals(grads[f], flows[f], bbox, params)
        bys = cys - bbox[0]
        bxs = cxs - bbox[2]
        for cy_i in range(p.spatial_cells):
            y0 = bys - half + cy_i * cs
            y1 = y0 + cs
            for cx_i in range(p.spatial_cells):
                x0 = bxs - half + cx_i * cs
                x1 = x0 + cs
                acc[idxs, tcs, cy_i, cx_i] += _rect_sums(integ, y0, y1, x0, x1)

    cells = p.temporal_cells * p.spatial_cells ** 2
    hog = acc[..., :nb].reshape(n, cells * nb)
    hof = acc[..., nb : 2 * nb + 1].reshape(n, cells * (nb + 1))
    mbh = np.concatenate(
        [acc[..., 2 * nb + 1 : 3 * nb + 1].reshape(n, cells * nb), acc[..., 3 * nb + 1 :].reshape(n, cells * nb)],
        axis=1,
    )
    return _l2_rows(hog), _l2_rows(hof), _l2_rows(mbh)


# ---------------------------------------------------------------------------
# tracking loop, one pyramid per frame


def track(clip: Clip, params: TrackerParams = TrackerParams()) -> TrackResult:
    L = params.traj_len
    n_frames = len(clip.frames)
    if n_frames < L + 1:
        return TrackResult(TrajectorySet.empty())

    h, w = clip.frames[0].shape
    half = params.tube_size // 2
    grads, flows = [], []
    starts = np.empty(0, dtype=np.intp)
    paths = np.empty((0, L + 1, 2))
    done = [(starts, paths)]

    def spawn(frame_idx: int, grad: np.ndarray) -> None:
        nonlocal starts, paths
        occupied = paths[np.arange(len(starts)), frame_idx - starts].tolist()
        new = sample_points(grad, params.grid_step, occupied, params.quality)
        if new:
            fresh = np.zeros((len(new), L + 1, 2))
            fresh[:, 0] = new
            starts = np.concatenate([starts, np.full(len(new), frame_idx, dtype=np.intp)])
            paths = np.concatenate([paths, fresh])

    nxt = FramePyramid(clip.frames[0], levels=params.pyramid_levels)
    spawn(0, nxt.levels[0].grad)
    for t in range(n_frames - 1):
        prev, nxt = nxt, FramePyramid(clip.frames[t + 1], levels=params.pyramid_levels)
        field = dense_flow(prev, nxt)
        grads.append(prev.levels[0].grad)
        flows.append(field)
        u_med = median_filter_3x3(field[0])
        v_med = median_filter_3x3(field[1])

        if len(starts):
            xs, ys = paths[np.arange(len(starts)), t - starts].T
            taps = _bilinear_taps((h, w), ys, xs)
            nxs = xs + _interpolate(_pad_edge(u_med), taps)
            nys = ys + _interpolate(_pad_edge(v_med), taps)
            inside = (0.0 <= nxs) & (nxs <= w - 1.0) & (0.0 <= nys) & (nys <= h - 1.0)
            starts, paths = starts[inside], paths[inside]
            age = t + 1 - starts
            paths[np.arange(len(starts)), age] = np.stack([nxs[inside], nys[inside]], axis=1)
            complete = age == L
            done.append((starts[complete], paths[complete]))
            starts, paths = starts[~complete], paths[~complete]
        if (n_frames - 1) - (t + 1) >= L:
            spawn(t + 1, nxt.levels[0].grad)

    starts = np.concatenate([s for s, _ in done])
    paths = np.concatenate([p for _, p in done])
    keep = (
        _tube_inside(paths, L, half, w, h)
        & ~is_static(paths, params.sigma_min)
        & ~is_erratic(paths)
    )
    starts, paths = starts[keep], paths[keep]
    order = np.lexsort((paths[:, 0, 1], paths[:, 0, 0], starts))
    starts, paths = starts[order], paths[order]
    hog, hof, mbh = describe_batch(starts, paths, grads, flows, params)
    # The set rounds the float64 points and descriptors once to float32, as in `track`.
    return TrackResult(TrajectorySet(starts, paths, np.hstack([descriptor_traj(paths), hog, hof, mbh])))
