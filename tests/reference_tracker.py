"""Reference oracles for the tracker's fast paths.

These are the straightforward float64 forms of the 3x3 median filter, the
pyramidal Lucas-Kanade flow, point sampling, the integral-histogram
descriptors and the tracking loop: one `np.median` over nine shifted views,
a fresh pyramid per frame pair, integral-image window sums, orientation bins
from `arctan2`, one integral image per histogram kind and one Python record
per trajectory.

The median filter selects values, so `avcmd.flow.median_filter_3x3` must
equal it bit for bit on the same input. The package's tracker runs in
float32 with direct window sums, so the flow, the sampling and the tracker
are compared with the tolerances stated in the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from avcmd.frames import Clip, GrayFrame
from avcmd.trajectories import (
    TrackerParams,
    Trajectory,
    TrackResult,
)

_BINOMIAL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


# ---------------------------------------------------------------------------
# median filter

def median_filter_3x3(field: np.ndarray) -> np.ndarray:
    p = np.pad(field, 1, mode="edge")
    h, w = field.shape
    stack = np.empty((9, h, w))
    k = 0
    for dy in range(3):
        for dx in range(3):
            stack[k] = p[dy : dy + h, dx : dx + w]
            k += 1
    return np.median(stack, axis=0)


# ---------------------------------------------------------------------------
# dense flow

def _as_float_image(frame) -> np.ndarray:
    if isinstance(frame, GrayFrame):
        return frame.data.astype(np.float64)
    return np.asarray(frame, dtype=np.float64)


def _smooth(img: np.ndarray) -> np.ndarray:
    p = np.pad(img, 2, mode="edge")
    out = np.zeros_like(img)
    tmp = np.zeros((img.shape[0], p.shape[1]))
    for k, w in enumerate(_BINOMIAL):
        tmp += w * p[k : k + img.shape[0], :]
    for k, w in enumerate(_BINOMIAL):
        out += w * tmp[:, k : k + img.shape[1]]
    return out


def _build_pyramid(img: np.ndarray, levels: int) -> list[np.ndarray]:
    pyr = [img]
    for _ in range(levels - 1):
        if min(pyr[-1].shape) < 8:
            break
        pyr.append(_smooth(pyr[-1])[::2, ::2])
    return pyr


def _box_sum(img: np.ndarray, radius: int) -> np.ndarray:
    h, w = img.shape
    r = radius
    c = img.cumsum(axis=0).cumsum(axis=1)
    integ = np.zeros((h + 2 * r + 1, w + 2 * r + 1))
    integ[r + 1 : r + 1 + h, r + 1 : r + 1 + w] = c
    integ[r + 1 + h :, r + 1 : r + 1 + w] = c[-1]
    integ[r + 1 : r + 1 + h, r + 1 + w :] = c[:, -1:]
    integ[r + 1 + h :, r + 1 + w :] = c[-1, -1]
    return (
        integ[2 * r + 1 :, 2 * r + 1 :]
        - integ[:h, 2 * r + 1 :]
        - integ[2 * r + 1 :, :w]
        + integ[:h, :w]
    )


def sample_bilinear(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = img.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _resize_flow(u: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    h, w = u.shape
    ht, wt = shape
    ys = (np.arange(ht) + 0.5) * (h / ht) - 0.5
    xs = (np.arange(wt) + 0.5) * (w / wt) - 0.5
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return sample_bilinear(u, grid_y, grid_x)


class Flow(NamedTuple):
    """A float64 flow field: u horizontal, v vertical, each (height, width)."""

    u: np.ndarray
    v: np.ndarray


def dense_flow(prev, nxt, levels: int = 3, window: int = 7, iterations: int = 3,
               min_eig: float = 1e-3) -> Flow:
    a = _as_float_image(prev)
    b = _as_float_image(nxt)
    radius = max(1, window // 2)
    pyr_a = _build_pyramid(a, levels)
    pyr_b = _build_pyramid(b, levels)
    u = np.zeros_like(pyr_a[-1])
    v = np.zeros_like(pyr_a[-1])
    for lvl in range(len(pyr_a) - 1, -1, -1):
        pa, pb = pyr_a[lvl], pyr_b[lvl]
        h, w = pa.shape
        if u.shape != pa.shape:
            scale_y = h / u.shape[0]
            scale_x = w / u.shape[1]
            u = _resize_flow(u, (h, w)) * scale_x
            v = _resize_flow(v, (h, w)) * scale_y
        gy, gx = np.gradient(pa)
        sxx = _box_sum(gx * gx, radius)
        sxy = _box_sum(gx * gy, radius)
        syy = _box_sum(gy * gy, radius)
        det = sxx * syy - sxy * sxy
        trace = sxx + syy
        lam_min = 0.5 * (trace - np.sqrt(np.maximum((sxx - syy) ** 2 + 4.0 * sxy * sxy, 0.0)))
        valid = (lam_min > min_eig) & (det > 1e-12)
        inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        grid_y, grid_x = np.meshgrid(
            np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij"
        )
        for _ in range(iterations):
            warped = sample_bilinear(pb, grid_y + v, grid_x + u)
            it = warped - pa
            sxt = _box_sum(gx * it, radius)
            syt = _box_sum(gy * it, radius)
            du = (-syy * sxt + sxy * syt) * inv_det
            dv = (sxy * sxt - sxx * syt) * inv_det
            np.clip(du, -radius, radius, out=du)
            np.clip(dv, -radius, radius, out=dv)
            u = u + du
            v = v + dv
    return Flow(u, v)


# ---------------------------------------------------------------------------
# point sampling

def sample_points(img: np.ndarray, step: int, occupied=(), quality: float = 0.001):
    """Grid nodes whose 3x3 (border-clipped) min eigenvalue reaches quality x max."""
    h, w = img.shape
    gy, gx = np.gradient(img)
    sxx = _box_sum(gx * gx, 1)
    sxy = _box_sum(gx * gy, 1)
    syy = _box_sum(gy * gy, 1)
    score = 0.5 * (sxx + syy - np.sqrt(np.maximum((sxx - syy) ** 2 + 4.0 * sxy * sxy, 0.0)))
    max_score = float(score.max())
    if max_score <= 0.0:
        return []
    taken = {(int(x // step), int(y // step)) for x, y in occupied}
    out = []
    for y in range(step // 2, h, step):
        for x in range(step // 2, w, step):
            s = score[y, x]
            if (x // step, y // step) not in taken and s >= quality * max_score and s > 0.0:
                out.append((float(x), float(y)))
    return out


# ---------------------------------------------------------------------------
# descriptors over per-kind integral histograms

def _integral_hist(bins: np.ndarray, weights: np.ndarray, n_bins: int) -> np.ndarray:
    h, w = bins.shape
    maps = np.zeros((h, w, n_bins))
    np.put_along_axis(maps, bins[..., None], weights[..., None], axis=2)
    integ = np.zeros((h + 1, w + 1, n_bins))
    integ[1:, 1:] = maps.cumsum(axis=0).cumsum(axis=1)
    return integ


def _orientation_bins(gx: np.ndarray, gy: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    ang = np.arctan2(gy, gx) % (2.0 * np.pi)
    bins = np.minimum((ang * (n_bins / (2.0 * np.pi))).astype(np.intp), n_bins - 1)
    return bins, np.hypot(gx, gy)


def _rect_sums(integ, y0, y1, x0, x1):
    return integ[y1, x1] - integ[y0, x1] - integ[y1, x0] + integ[y0, x0]


def _frame_integrals(images, flows, f: int, bbox, params: TrackerParams) -> dict[str, np.ndarray]:
    p = params
    y0, y1, x0, x1 = bbox
    h, w = images[0].shape
    gy0, gy1 = max(0, y0 - 1), min(h, y1 + 1)
    gx0, gx1 = max(0, x0 - 1), min(w, x1 + 1)
    oy, ox = y0 - gy0, x0 - gx0

    out = {}
    img = images[f][gy0:gy1, gx0:gx1]
    gy, gx = np.gradient(img)
    bins, weights = _orientation_bins(
        gx[oy:, ox:][: y1 - y0, : x1 - x0], gy[oy:, ox:][: y1 - y0, : x1 - x0], p.n_bins
    )
    out["hog"] = _integral_hist(bins, weights, p.n_bins)

    u, v = flows[f]
    bins, weights = _orientation_bins(u[y0:y1, x0:x1], v[y0:y1, x0:x1], p.n_bins)
    still = weights < p.hof_zero_thresh
    bins = np.where(still, p.n_bins, bins)
    weights = np.where(still, 1.0, weights)
    out["hof"] = _integral_hist(bins, weights, p.n_bins + 1)

    for kind, comp in (("mbhu", u), ("mbhv", v)):
        crop = comp[gy0:gy1, gx0:gx1]
        cgy, cgx = np.gradient(crop)
        bins, weights = _orientation_bins(
            cgx[oy:, ox:][: y1 - y0, : x1 - x0], cgy[oy:, ox:][: y1 - y0, : x1 - x0], p.n_bins
        )
        out[kind] = _integral_hist(bins, weights, p.n_bins)
    return out


def _l2(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else v


def describe_batch(candidates, images, flows, params: TrackerParams):
    p = params
    half = p.tube_size // 2
    cs = p.tube_size // p.spatial_cells
    slots_per_tc = p.traj_len // p.temporal_cells
    n = len(candidates)

    hog = np.zeros((n, p.temporal_cells, p.spatial_cells, p.spatial_cells, p.n_bins))
    hof = np.zeros((n, p.temporal_cells, p.spatial_cells, p.spatial_cells, p.n_bins + 1))
    mbu = np.zeros_like(hog)
    mbv = np.zeros_like(hog)

    by_frame: dict[int, list[tuple[int, int, int, int]]] = {}
    for idx, (start, points) in enumerate(candidates):
        for t in range(p.traj_len):
            cx = int(round(points[t, 0]))
            cy = int(round(points[t, 1]))
            by_frame.setdefault(start + t, []).append((idx, t, cx, cy))

    for f, entries in by_frame.items():
        idxs = np.array([e[0] for e in entries], dtype=np.intp)
        tcs = np.array([e[1] // slots_per_tc for e in entries], dtype=np.intp)
        cxs = np.array([e[2] for e in entries], dtype=np.intp)
        cys = np.array([e[3] for e in entries], dtype=np.intp)
        bbox = (
            int(cys.min() - half),
            int(cys.max() + half),
            int(cxs.min() - half),
            int(cxs.max() + half),
        )
        stacks = _frame_integrals(images, flows, f, bbox, params)
        bys = cys - bbox[0]
        bxs = cxs - bbox[2]
        for cy_i in range(p.spatial_cells):
            y0 = bys - half + cy_i * cs
            y1 = y0 + cs
            for cx_i in range(p.spatial_cells):
                x0 = bxs - half + cx_i * cs
                x1 = x0 + cs
                hog[idxs, tcs, cy_i, cx_i] += _rect_sums(stacks["hog"], y0, y1, x0, x1)
                hof[idxs, tcs, cy_i, cx_i] += _rect_sums(stacks["hof"], y0, y1, x0, x1)
                mbu[idxs, tcs, cy_i, cx_i] += _rect_sums(stacks["mbhu"], y0, y1, x0, x1)
                mbv[idxs, tcs, cy_i, cx_i] += _rect_sums(stacks["mbhv"], y0, y1, x0, x1)

    out = []
    for i in range(n):
        mbh = np.concatenate([mbu[i].ravel(), mbv[i].ravel()])
        out.append((_l2(hog[i].ravel()), _l2(hof[i].ravel()), _l2(mbh)))
    return out


# ---------------------------------------------------------------------------
# tracking loop

def is_static(points: np.ndarray, sigma_min: float) -> bool:
    std = math.sqrt(float(points[:, 0].var() + points[:, 1].var()))
    return std < sigma_min


def is_erratic(points: np.ndarray, frac: float) -> bool:
    steps = np.diff(points, axis=0)
    norms = np.hypot(steps[:, 0], steps[:, 1])
    total = float(norms.sum())
    return total > 0.0 and float(norms.max()) > frac * total


def descriptor_traj(points: np.ndarray) -> np.ndarray:
    steps = np.diff(points, axis=0)
    return (steps / float(np.hypot(steps[:, 0], steps[:, 1]).sum())).ravel()


def _tube_inside(points: np.ndarray, traj_len: int, half: int, w: int, h: int) -> bool:
    for t in range(traj_len):
        cx = int(round(points[t, 0]))
        cy = int(round(points[t, 1]))
        if cx - half < 0 or cx + half > w or cy - half < 0 or cy + half > h:
            return False
    return True


def track(clip: Clip, params: TrackerParams = TrackerParams()) -> TrackResult:
    L = params.traj_len
    n_frames = len(clip.frames)
    if n_frames < L + 1:
        return TrackResult([])

    images = [f.astype(np.float64) for f in clip.frames]
    h, w = images[0].shape
    half = params.tube_size // 2

    flows: list[tuple[np.ndarray, np.ndarray]] = []
    live: list[dict] = []
    finished: list[dict] = []

    def spawn(frame_idx: int):
        occupied = [tr["points"][-1] for tr in live]
        for x, y in sample_points(images[frame_idx], params.grid_step, occupied, params.quality):
            live.append({"start": frame_idx, "points": [(x, y)]})

    spawn(0)
    for t in range(n_frames - 1):
        field = dense_flow(images[t], images[t + 1], levels=params.pyramid_levels)
        flows.append((field.u, field.v))
        u_med = median_filter_3x3(field.u)
        v_med = median_filter_3x3(field.v)

        keep = []
        if live:
            xs = np.array([tr["points"][-1][0] for tr in live])
            ys = np.array([tr["points"][-1][1] for tr in live])
            nxs = xs + sample_bilinear(u_med, ys, xs)
            nys = ys + sample_bilinear(v_med, ys, xs)
            for tr, nx, ny in zip(live, nxs, nys):
                if not (0.0 <= nx <= w - 1.0 and 0.0 <= ny <= h - 1.0):
                    continue
                tr["points"].append((float(nx), float(ny)))
                if len(tr["points"]) == L + 1:
                    finished.append(tr)
                else:
                    keep.append(tr)
        live = keep
        if (n_frames - 1) - (t + 1) >= L:
            spawn(t + 1)

    candidates = []
    for tr in finished:
        points = np.asarray(tr["points"], dtype=np.float64)
        if is_static(points, params.sigma_min):
            continue
        if is_erratic(points, params.erratic_frac):
            continue
        if not _tube_inside(points, L, half, w, h):
            continue
        candidates.append((tr["start"], points))

    candidates.sort(key=lambda c: (c[0], c[1][0, 0], c[1][0, 1]))
    described = describe_batch(candidates, images, flows, params)
    return TrackResult([
        Trajectory(start_frame=start, points=points, traj=descriptor_traj(points),
                   hog=hog, hof=hof, mbh=mbh)
        for (start, points), (hog, hof, mbh) in zip(candidates, described)
    ])
