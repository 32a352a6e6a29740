"""Dense point sampling, trajectory tracking, and the four local descriptors.

Points are sampled on a regular grid wherever the image has enough 2-D
structure, tracked through median-filtered dense flow for a fixed number of
steps, and pruned when static or erratic. Each surviving trajectory carries
four descriptors computed over a 32x32 space-time tube split into a 2x2
spatial by 3 temporal cell grid:

* traj: the 15 successive displacements, normalized by total path length
* hog:  8 orientation bins of image gradients per cell (96 values)
* hof:  8 flow-orientation bins plus one zero-motion bin per cell (108)
* mbh:  8 bins on the spatial gradients of u and of v separately (192)

hog/hof/mbh are each L2-normalized as a whole; an all-zero descriptor is
legal for structureless input.

The layout is fixed: L = 15, 2x2x3 cells and 8 bins give the 30 + 96 + 108
+ 192 = 426 values of the standard dense-trajectory descriptor, and
`TrackerParams` holds it, with the tube size and the erratic and
zero-motion thresholds, as class constants; its four settable fields are
the config's tracking keys.

The tracker computes in float32, as `flow` does: each frame's pyramid
supplies the gradients that score sampling nodes (the flow's structure
tensor with a 3x3 window) and feed hog, and the integral histograms are
float32. Orientations are binned by sign and magnitude comparisons, not by
a float32 angle, so a gradient on a bin edge gets the bin of its exact
angle. `track` holds points in float64 but advances them by float32
displacements read from the float32 flow, and computes descriptors in
float64; both are rounded once to float32, the values IGTF stores, so
`read_features` hands back exactly the set that `write_features` was given.

Trajectories travel as one columnar `TrajectorySet`: start frames (N,),
point paths (N, 16, 2) and the descriptors (N, 426) in traj|hog|hof|mbh
order. `track` builds it, IGTF files store it record for record, and the
per-channel matrices are its column slices. Iterating a set yields
`Trajectory` rows of views, for code that wants one trajectory at a time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import FormatError, InvalidParameterError, check_payload, unpack_header
from .flow import (
    PYRAMID_LEVELS, FramePyramid, _bilinear_taps, _gradients, _interpolate, _pad_edge, _structure_tensor,
    dense_flow, median_filter_3x3,
)
from .frames import Clip

TRAJ_DIM = 30
HOG_DIM = 96
HOF_DIM = 108
MBH_DIM = 192
DESC_DIM = TRAJ_DIM + HOG_DIM + HOF_DIM + MBH_DIM  # 426

FEATURES_MAGIC = b"IGTF"
FEATURES_VERSION = 2


@dataclass(frozen=True)
class TrackerParams:
    # The descriptor layout behind DESC_DIM and the IGTF records; not settable.
    traj_len: ClassVar[int] = 15        # L: steps per trajectory (L+1 points)
    spatial_cells: ClassVar[int] = 2
    temporal_cells: ClassVar[int] = 3
    n_bins: ClassVar[int] = 8
    tube_size: ClassVar[int] = 32       # px, 2 cells of 16
    # Pruning and binning constants of the published tracker.
    erratic_frac: ClassVar[float] = 0.7     # single step vs total path length
    hof_zero_thresh: ClassVar[float] = 0.4  # px/frame; below this flow counts as still

    # The settable fields, each a config key.
    grid_step: int = 5            # sampling grid spacing, px
    quality: float = 0.001        # corner threshold, fraction of frame max
    sigma_min: float = math.sqrt(3.0)  # static-pruning position std, px
    pyramid_levels: int = PYRAMID_LEVELS


class Trajectory(NamedTuple):
    """One row of a `TrajectorySet`; the arrays are float32 views into the set."""

    start_frame: int
    points: np.ndarray    # (L+1, 2), columns (x, y)
    traj: np.ndarray      # (30,)
    hog: np.ndarray       # (96,)
    hof: np.ndarray       # (108,)
    mbh: np.ndarray       # (192,)


# float64 magnitudes from here up round to float32 inf: FLT_MAX plus half its ulp.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def _as_float32(a: np.ndarray, what: str) -> np.ndarray:
    """`a` rounded once to float32, or kept without a copy if it is float32.

    Every value must be finite in float32. The check comes before any cast,
    so none warns; widening a float32 signalling NaN would warn too.
    """
    if a.dtype == np.float32:
        finite = np.isfinite(a)
    else:
        finite = np.abs(a.astype(np.float64, copy=False)) < _FLOAT32_OVERFLOW
    if not finite.all():
        raise InvalidParameterError(f"trajectory {what} must be finite in float32")
    return a.astype(np.float32, copy=False)


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """N trajectories as columns; traj, hog, hof and mbh are slices of desc.

    `points` and `desc` hold the float32 values IGTF stores: other input is
    rounded once, as `write_features` rounds, and float32 input is kept as
    it is. Start frames must fit IGTF's u4 field, so every set has the one
    IGTF form that reads back equal to it.
    """

    start: np.ndarray   # (N,) start frames in [0, 2**32)
    points: np.ndarray  # (N, L+1, 2) float32, columns (x, y); L = 15
    desc: np.ndarray    # (N, 426) float32, traj | hog | hof | mbh

    def __post_init__(self):
        start = np.asarray(self.start, dtype=np.intp)
        points, desc = np.asarray(self.points), np.asarray(self.desc)
        if start.ndim != 1 or points.shape != (len(start), TrackerParams.traj_len + 1, 2):
            raise InvalidParameterError(
                f"a trajectory set needs (N,) start frames and (N, {TrackerParams.traj_len + 1}, 2) points"
            )
        if desc.shape != (len(start), DESC_DIM):
            raise InvalidParameterError(f"a trajectory set needs (N, {DESC_DIM}) descriptors")
        if len(start) and not (start.min() >= 0 and start.max() < 2**32):
            raise InvalidParameterError("start frames must lie in [0, 2**32)")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "points", _as_float32(points, "points"))
        object.__setattr__(self, "desc", _as_float32(desc, "descriptors"))

    @classmethod
    def empty(cls) -> "TrajectorySet":
        return cls([], np.empty((0, TrackerParams.traj_len + 1, 2), np.float32), np.empty((0, DESC_DIM), np.float32))

    traj = property(lambda self: self.desc[:, :TRAJ_DIM])
    hog = property(lambda self: self.desc[:, TRAJ_DIM : TRAJ_DIM + HOG_DIM])
    hof = property(lambda self: self.desc[:, TRAJ_DIM + HOG_DIM : DESC_DIM - MBH_DIM])
    mbh = property(lambda self: self.desc[:, DESC_DIM - MBH_DIM :])

    def __len__(self) -> int:
        return len(self.start)

    def __iter__(self):
        columns = (self.start.tolist(), self.points, self.traj, self.hog, self.hof, self.mbh)
        return map(Trajectory._make, zip(*columns))


@dataclass
class TrackResult:
    trajectories: TrajectorySet


# ---------------------------------------------------------------------------
# pruning predicates (re-checkable post hoc)

def is_static(points: np.ndarray, sigma_min: float) -> np.ndarray:
    """Per path in (..., L+1, 2): is the position std below sigma_min?"""
    p = np.asarray(points, dtype=np.float64)
    return np.sqrt(p[..., 0].var(axis=-1) + p[..., 1].var(axis=-1)) < sigma_min


def is_erratic(points: np.ndarray) -> np.ndarray:
    """Per path in (..., L+1, 2): does one step exceed `TrackerParams.erratic_frac`
    of the path length?"""
    steps = np.diff(np.asarray(points, dtype=np.float64), axis=-2)
    norms = np.hypot(steps[..., 0], steps[..., 1])
    total = norms.sum(axis=-1)
    return (total > 0.0) & (norms.max(axis=-1) > TrackerParams.erratic_frac * total)


# ---------------------------------------------------------------------------
# point sampling

def sample_points(
    grad: np.ndarray, step: int, occupied=(), quality: float = TrackerParams.quality
) -> list[tuple[float, float]]:
    """Grid positions with enough texture and no live trajectory in their cell.

    `grad` is the frame's stacked gradients (gx, gy), as its pyramid's
    `levels[0].grad` holds them; a node's texture is the minimum eigenvalue
    of the gradient normal matrix over its border-clipped 3x3 window, and it
    must reach `quality` times the frame's largest. `occupied` holds the
    (x, y) positions of currently tracked points, as an (n, 2) array or any
    sequence of pairs; a grid node is skipped when its step-sized cell
    already holds one. Nodes come row by row, as (x, y) pairs.
    """
    if step < 1:
        raise InvalidParameterError("step must be >= 1")
    grad = np.asarray(grad)
    if grad.ndim != 3 or len(grad) != 2:
        raise InvalidParameterError("grad must be the stacked (gx, gy) of a frame: (2, h, w)")
    score = _structure_tensor(grad, 1)[3]
    max_score = float(score.max())
    if max_score <= 0.0:
        return []
    # Grid node (i, j) sits at (step // 2 + j * step, step // 2 + i * step),
    # inside cell (j, i).
    nodes = score[step // 2 :: step, step // 2 :: step]
    free = (nodes >= quality * max_score) & (nodes > 0.0)
    cells = np.floor_divide(np.asarray(occupied, dtype=np.float64).reshape(-1, 2), step)
    cx, cy = cells.T
    on_grid = (cx >= 0) & (cx < free.shape[1]) & (cy >= 0) & (cy < free.shape[0])
    free[cy[on_grid].astype(np.intp), cx[on_grid].astype(np.intp)] = False
    iy, ix = np.nonzero(free)
    xs = (ix * step + step // 2).astype(np.float64)
    ys = (iy * step + step // 2).astype(np.float64)
    return list(zip(xs.tolist(), ys.tolist()))


# ---------------------------------------------------------------------------
# orientation histograms

def _orientation_bins(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vector's octant (bin b holds angles in [45b, 45b + 45) degrees) and its length.

    The octant comes from signs and comparisons of gx, gy and their
    negations, which are exact, so a vector on a bin edge (an axis or a
    diagonal) gets the bin of its exact angle in any dtype; float32 arctan2
    puts gx == gy > 0 in bin 0. Vectors in the lower half-plane, angles in
    [180, 360), are turned by 180 degrees and get 4 added. A zero vector has
    no angle and weight 0, so its bin adds nothing.
    """
    lower = gy < 0
    lower |= (gy == 0) & (gx < 0)
    x = np.where(lower, -gx, gx)
    y = np.where(lower, -gy, gy)
    bins = np.add(y >= x, x <= 0, dtype=np.int8)
    bins += y <= np.negative(x, out=x)
    bins += np.left_shift(lower, 2, dtype=np.int8)
    return bins, np.hypot(gx, gy)


def _l2_rows(m: np.ndarray) -> np.ndarray:
    """Each row of m divided by its L2 norm, in place; zero rows stay zero.

    The batched (1, d) @ (d, 1) products are one dot product per row, the
    same sum np.linalg.norm takes of a single row.
    """
    norms = np.sqrt(np.matmul(m[:, None, :], m[:, :, None])[:, 0, 0])
    return np.divide(m, norms[:, None], out=m, where=norms[:, None] > 0)


def descriptor_traj(points: np.ndarray) -> np.ndarray:
    """Per path in (..., L+1, 2): successive displacements over the total path length (2L values)."""
    p = np.asarray(points, dtype=np.float64)
    steps = np.diff(p, axis=-2)
    total = np.hypot(steps[..., 0], steps[..., 1]).sum(axis=-1)
    if np.any(total <= 0.0):
        raise InvalidParameterError(
            "zero total displacement: static trajectories must be pruned before description"
        )
    return (steps / total[..., None, None]).reshape(*steps.shape[:-2], 2 * steps.shape[-2])


# ---------------------------------------------------------------------------
# fast descriptor accumulation over integral histograms

def _rect_sums(integ_t, y0, y1, x0, x1):
    """Box sums of the rectangles [y0, y1) x [x0, x1) from a transposed
    integral histogram, `integ_t[x, y]`."""
    return integ_t[x1, y1] - integ_t[x1, y0] - integ_t[x0, y1] + integ_t[x0, y0]


def _frame_integrals(grad, flow, bbox, params: TrackerParams) -> np.ndarray:
    """One float32 integral histogram over a bounding box for all four descriptors.

    `grad` is the frame's (gx, gy) and `flow` its (u, v) field, full-frame;
    the flow's gradients are taken on the box with a one-pixel margin, so
    the box edges get central differences wherever the frame has a
    neighbour. The last axis holds the hog bins, the hof bins with the
    zero-motion bin, then the mbh bins of u and of v. The result is
    transposed, (bw + 1, bh + 1, bins): entry [x, y] sums the box's columns
    below x and rows below y.
    """
    nb = params.n_bins
    nc = 4 * nb + 1
    y0, y1, x0, x1 = bbox
    bh, bw = y1 - y0, x1 - x0
    gx, gy = grad
    u, v = flow
    my, mx = max(y0 - 1, 0), max(x0 - 1, 0)
    # (u, v) x (d/dx, d/dy) on the box
    dflow = _gradients(flow[:, my : y1 + 1, mx : x1 + 1])[:, :, y0 - my : y0 - my + bh, x0 - mx : x0 - mx + bw]
    box = np.s_[y0:y1, x0:x1]
    bins, weights = _orientation_bins(
        np.stack([gx[box], u[box], dflow[0, 0], dflow[1, 0]]),
        np.stack([gy[box], v[box], dflow[0, 1], dflow[1, 1]]),
    )
    still = weights[1] < params.hof_zero_thresh
    bins[1][still] = nb
    weights[1][still] = 1.0

    # Scatter every pixel's four weights through one flat index into (bh, bw, nc).
    first_bin = np.array([0, nb, 2 * nb + 1, 3 * nb + 1])[:, None, None]
    index = np.arange(0, bh * bw * nc, nc).reshape(bh, bw) + first_bin
    index += bins
    maps = np.zeros((bh, bw, nc), dtype=np.float32)
    maps.ravel()[index] = weights
    del index, bins, weights  # not alive beside the transposed copy below
    # The prefix sums run along the rows, then along the columns, one whole
    # contiguous slab at a time: row y adds row y - 1, then, in the
    # transposed copy that is returned, column x adds column x - 1. These
    # are the float32 sums of a cumsum along each axis in turn, added in the
    # same order.
    for y in range(1, bh):
        np.add(maps[y - 1], maps[y], out=maps[y])
    integ_t = np.zeros((bw + 1, bh + 1, nc), dtype=np.float32)
    cols = integ_t[1:, 1:]
    cols[...] = maps.transpose(1, 0, 2)
    del maps
    for x in range(1, bw):
        np.add(cols[x - 1], cols[x], out=cols[x])
    return integ_t


def _describe_batch(starts, paths, grads, flows, params: TrackerParams):
    """hog/hof/mbh of the trajectories (starts[i], paths[i]) via integrals.

    `grads` are the (gx, gy) of each frame and `flows` its (2, h, w) flow field.

    Returns three (n, dim) arrays, each row L2-normalized.
    """
    p = params
    L = p.traj_len
    nb = p.n_bins
    half = p.tube_size // 2
    cs = p.tube_size // p.spatial_cells
    n = len(starts)
    cell_offsets = np.arange(p.spatial_cells) * cs - half

    acc = np.zeros((n, p.temporal_cells, p.spatial_cells, p.spatial_cells, 4 * nb + 1))
    centers = np.rint(paths[:, :L]).astype(np.intp)  # (n, L, 2) tube centers (x, y)
    tube_frames = starts[:, None] + np.arange(L)
    # Ascending frames: the order in which each cell sums its frames.
    for f in np.unique(tube_frames):
        idxs, ts = np.nonzero(tube_frames == f)
        tcs = ts // (L // p.temporal_cells)
        cxs = centers[idxs, ts, 0]
        cys = centers[idxs, ts, 1]
        bbox = (
            int(cys.min() - half),
            int(cys.max() + half),
            int(cxs.min() - half),
            int(cxs.max() + half),
        )
        integ = _frame_integrals(grads[f], flows[f], bbox, params)
        # All 2x2 cells in one gather; a trajectory is in frame f once, so no row repeats.
        y0 = (cys - bbox[0])[:, None, None] + cell_offsets[:, None]
        x0 = (cxs - bbox[2])[:, None, None] + cell_offsets
        acc[idxs, tcs] += _rect_sums(integ, y0, y0 + cs, x0, x0 + cs)

    cells = p.temporal_cells * p.spatial_cells ** 2
    hog = acc[..., :nb].reshape(n, cells * nb)
    hof = acc[..., nb : 2 * nb + 1].reshape(n, cells * (nb + 1))
    mbh = np.concatenate(
        [acc[..., 2 * nb + 1 : 3 * nb + 1].reshape(n, cells * nb), acc[..., 3 * nb + 1 :].reshape(n, cells * nb)],
        axis=1,
    )
    return _l2_rows(hog), _l2_rows(hof), _l2_rows(mbh)


def _tube_inside(paths: np.ndarray, traj_len: int, half: int, w: int, h: int) -> np.ndarray:
    """Per trajectory: does every tube of its first traj_len points fit the frame?"""
    c = np.rint(paths[:, :traj_len])
    x, y = c[..., 0], c[..., 1]
    return ((x - half >= 0) & (x + half <= w) & (y - half >= 0) & (y + half <= h)).all(axis=1)


# Frame pixels whose pyramids `track` builds in one stack: 4 frames at
# 96 x 96 and 2 at 120 x 120. A frame's pyramid holds about 42 bytes of
# float32 arrays per pixel over its levels, so a chunk is about 1.7 MB. Two
# chunks are alive at a chunk boundary; at this budget that stays below the
# memory that describing the clip's trajectories needs, and stacks of up to
# 8 frames were no faster.
PYRAMID_BATCH_PIXELS = 39_583


def track(clip: Clip, params: TrackerParams = TrackerParams()) -> TrackResult:
    """Extract dense trajectories with descriptors from a clip.

    The set is empty when the clip has fewer than traj_len + 1 frames.
    Output ordering is deterministic: trajectories are
    sorted by (start_frame, x0, y0). Points advance by float32 displacements
    of the median-filtered flow and descriptors are computed in float64;
    both are rounded once to float32 when the set is built, so writing the
    set to IGTF and reading it back gives it back unchanged.
    """
    L = params.traj_len
    n_frames = len(clip)
    if n_frames < L + 1:
        return TrackResult(TrajectorySet.empty())

    h, w = clip.height, clip.width
    half = params.tube_size // 2

    # Per frame pair (t, t+1): frame t's gradients and the flow from t.
    grads: list[np.ndarray] = []
    flows: list[np.ndarray] = []
    # Live trajectories, one row each: start frame and an (L+1, 2) point
    # buffer filled up to index (current frame - start).
    starts = np.empty(0, dtype=np.intp)
    paths = np.empty((0, L + 1, 2))
    done = [(starts, paths)]  # finished trajectories, in batches

    def spawn(frame_idx: int, grad: np.ndarray) -> None:
        nonlocal starts, paths
        occupied = paths[np.arange(len(starts)), frame_idx - starts]
        new = sample_points(grad, params.grid_step, occupied, params.quality)
        if new:
            fresh = np.zeros((len(new), L + 1, 2))
            fresh[:, 0] = new
            starts = np.concatenate([starts, np.full(len(new), frame_idx, dtype=np.intp)])
            paths = np.concatenate([paths, fresh])

    def pyramids():
        """Each frame's pyramid, built PYRAMID_BATCH_PIXELS worth of frames at a time."""
        chunk = max(1, PYRAMID_BATCH_PIXELS // (h * w))
        for first in range(0, n_frames, chunk):
            stack = FramePyramid(clip.frames[first : first + chunk], levels=params.pyramid_levels)
            yield from map(stack.frame, range(stack.n_frames))

    frame_pyramids = pyramids()
    prev = next(frame_pyramids)
    spawn(0, prev.levels[0].grad)
    for t, nxt in enumerate(frame_pyramids):
        field = dense_flow(prev, nxt)
        grads.append(prev.levels[0].grad)
        flows.append(field)
        uv_med = np.stack([median_filter_3x3(field[0]), median_filter_3x3(field[1])])

        if len(starts):
            xy = paths[np.arange(len(starts)), t - starts].T
            nxy = xy + _interpolate(_pad_edge(uv_med), _bilinear_taps((h, w), xy[::-1]))
            nxs, nys = nxy
            # Drop trajectories that left the frame.
            inside = (0.0 <= nxs) & (nxs <= w - 1.0) & (0.0 <= nys) & (nys <= h - 1.0)
            starts, paths = starts[inside], paths[inside]
            age = t + 1 - starts
            paths[np.arange(len(starts)), age] = nxy[:, inside].T
            complete = age == L
            done.append((starts[complete], paths[complete]))
            starts, paths = starts[~complete], paths[~complete]
        # Refill only while a new track can still complete within the clip.
        if (n_frames - 1) - (t + 1) >= L:
            spawn(t + 1, nxt.levels[0].grad)
        prev = nxt
    # Let the last chunk's pyramids go: describing needs only `grads`.
    del prev, nxt

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
    hog, hof, mbh = _describe_batch(starts, paths, grads, flows, params)
    return TrackResult(TrajectorySet(starts, paths, np.hstack([descriptor_traj(paths), hog, hof, mbh])))


# ---------------------------------------------------------------------------
# feature dump

_FEATURES_HEADER = struct.Struct("<4sHII")
# One IGTF record: start frame, the L+1 points (x, y), the 426 descriptor values.
_FEATURE_RECORD = np.dtype(
    [("start", "<u4"), ("points", "<f4", (TrackerParams.traj_len + 1, 2)), ("desc", "<f4", (DESC_DIM,))]
)


def write_features(path: str | Path, trajectories: TrajectorySet) -> None:
    """IGTF v2: magic, version u16, count u32, L u32 (0 when empty), records."""
    n = len(trajectories)
    header = _FEATURES_HEADER.pack(FEATURES_MAGIC, FEATURES_VERSION, n, TrackerParams.traj_len if n else 0)
    records = np.empty(n, dtype=_FEATURE_RECORD)
    if n:
        records["start"] = trajectories.start
        records["points"] = trajectories.points
        records["desc"] = trajectories.desc
    Path(path).write_bytes(header + records.tobytes())


def read_features(path: str | Path) -> TrajectorySet:
    """Read an IGTF v2 file: count records of L = 15, or none with L = 0.

    The payload must be exactly count records, or the read fails. The set's
    `points` and `desc` are the stored float32 values, read-only views into
    the file's one buffer, at half the bytes of a float64 copy.
    """
    raw = Path(path).read_bytes()
    count, traj_len = unpack_header(raw, _FEATURES_HEADER, FEATURES_MAGIC, FEATURES_VERSION, "feature")
    want_len = TrackerParams.traj_len if count else 0
    if traj_len != want_len:
        raise FormatError(f"trajectory length {traj_len}, expected {want_len}")
    check_payload(len(raw), _FEATURES_HEADER.size + count * _FEATURE_RECORD.itemsize, "feature")
    records = np.frombuffer(raw, dtype=_FEATURE_RECORD, count=count, offset=_FEATURES_HEADER.size)
    return TrajectorySet(records["start"], records["points"], records["desc"])
