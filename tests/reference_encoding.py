"""Reference oracles for the single chi-square, kernel, detection and blur paths.

These are the forms each idea had before it was folded into one
implementation: a symmetric chi-square matrix filled from its upper triangle
by its own row loop, a Gram builder and a cross-kernel builder that each sum
the per-channel distance terms themselves, the session runner's inline
activity-detection loop, the synthetic generator's own wrap-padded
binomial blur and its one renderer of a gray and a log-depth frame, and the
one-histogram L1 normalization `BovwHist` had beside the row-wise one. The
merged code must reproduce them bit for bit; the tests compare with
`np.array_equal` and `==`.

The k-means oracle is the form that recomputed the pool's squared norms
`(x * x).sum(axis=1)` on every distance call: k times on the whole pool in
k-means++ and once per `_assign_rows(k)` block in every Lloyd iteration. The
encoding layer now computes them once per pool, and must give the same
centroids and the same assignments.
"""

from __future__ import annotations

import numpy as np

from avcmd.detector import ActivityDetector, activity_score, segments_from_events
from avcmd.encoding import KMEANS_RTOL, Channel, Codebook, _assign_rows, _cluster_sums
from avcmd.errors import DegenerateInputError, InvalidParameterError
from avcmd.frames import log_depth
from avcmd.synth import D_MAX, _paint


def chi2_distance_matrix(hists: np.ndarray) -> np.ndarray:
    h = np.asarray(hists, dtype=np.float64)
    n = h.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        diff = h[i][None, :] - h[i + 1 :]
        denom = h[i][None, :] + h[i + 1 :]
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(denom > 0, diff * diff / np.where(denom > 0, denom, 1.0), 0.0)
        out[i, i + 1 :] = 0.5 * terms.sum(axis=1)
    return out + out.T


def multichannel_gram(dist_matrices: dict, channel_means: dict) -> np.ndarray:
    if set(dist_matrices) != set(channel_means):
        raise InvalidParameterError("distance matrices and channel means must cover the same channels")
    first = next(iter(dist_matrices.values()))
    total = np.zeros_like(np.asarray(first, dtype=np.float64))
    for ch, d in dist_matrices.items():
        a_c = channel_means[ch]
        if a_c <= 0:
            raise DegenerateInputError(f"channel mean for {ch.name} must be positive")
        total += np.asarray(d, dtype=np.float64) / a_c
    gram = np.exp(-total)
    gram = np.triu(gram, k=1)
    gram = gram + gram.T
    np.fill_diagonal(gram, 1.0)
    return gram


def cross_gram(dists: dict, channel_means: dict) -> np.ndarray:
    total = None
    for ch, d in dists.items():
        a_c = channel_means[ch]
        if a_c <= 0:
            raise DegenerateInputError(f"channel mean for {ch.name} must be positive")
        term = np.asarray(d, dtype=np.float64) / a_c
        total = term if total is None else total + term
    return np.exp(-total)


def session_segments(frames, params) -> list[tuple[int, int]]:
    """`run_session`'s inline detection loop; `params` is a `SessionParams`."""
    det = ActivityDetector(
        params.theta_on, params.theta_off, params.min_dur_frames, params.max_gap_frames
    )
    events = []
    events.extend(det.push(0.0))  # frame 0 has no predecessor
    for t in range(1, len(frames)):
        score = activity_score(frames[t - 1], frames[t], params.tau_noise)
        events.extend(det.push(score))
    events.extend(det.flush())
    return segments_from_events(events)


def smooth_field(rng: np.random.Generator, h: int, w: int, passes: int = 3) -> np.ndarray:
    field = rng.standard_normal((h, w))
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    for _ in range(passes):
        padded = np.pad(field, 2, mode="wrap")
        tmp = np.zeros((h, padded.shape[1]))
        for k, wgt in enumerate(kernel):
            tmp += wgt * padded[k : k + h, :]
        out = np.zeros((h, w))
        for k, wgt in enumerate(kernel):
            out += wgt * tmp[:, k : k + w]
        field = out
    field -= field.min()
    field /= max(field.max(), 1e-12)
    return field


def render(world, cx: float, cy: float, rng: np.random.Generator, noise_sigma: float,
           depth_noise: float = 6.0):
    """`synth._World.render`: the gray and the log-depth frame."""
    gray = _paint(world.bg, world.limb_tex, cx, cy)
    depth = _paint(world.bg_depth, world.limb_depth, cx, cy)
    gray = gray + rng.normal(0.0, noise_sigma, gray.shape) if noise_sigma > 0 else gray
    depth = depth + rng.normal(0.0, depth_noise, depth.shape) if depth_noise > 0 else depth
    rgb_frame = np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    depth_u16 = np.clip(np.rint(depth), 0, D_MAX).astype(np.uint16)
    ld_frame = log_depth(depth_u16, D_MAX)
    return rgb_frame, ld_frame


def l1_normalized(counts: np.ndarray) -> np.ndarray:
    total = float(counts.sum())
    return counts / total if total > 0 else counts.copy()


def pairwise_sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    d = (x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (x @ c.T)
    return np.maximum(d, 0.0)


def assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[0]
    labels = np.empty(n, dtype=np.intp)
    dists = np.empty(n)
    rows = _assign_rows(centroids.shape[0])
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d = pairwise_sq_dists(x[lo:hi], centroids)
        labels[lo:hi] = d.argmin(axis=1)
        dists[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
    return labels, dists


def kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = pairwise_sq_dists(x, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[i:] = x[rng.choice(n, size=k - i, replace=False)]
            break
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centroids[i] = x[idx]
        closest = np.minimum(closest, pairwise_sq_dists(x, centroids[i : i + 1]).ravel())
    return centroids


def train_codebook(descriptors, k: int, seed: int, channel=Channel.TRAJ, max_iter: int = 100,
                   subsample: int | None = None) -> Codebook:
    x = np.asarray(descriptors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    if subsample is not None and x.shape[0] > subsample:
        keep = rng.choice(x.shape[0], size=subsample, replace=False)
        keep.sort()
        x = x[keep]
    centroids = kmeans_pp_init(x, k, rng)
    prev_inertia = np.inf
    for _ in range(max_iter):
        labels, dists = assign(x, centroids)
        inertia = float(dists.sum())
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = _cluster_sums(x, labels, k)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if np.any(~nonempty):
            order = np.argsort(dists)[::-1]
            for slot, point in zip(np.flatnonzero(~nonempty), order):
                centroids[slot] = x[point]
        if prev_inertia < np.inf and prev_inertia - inertia < KMEANS_RTOL * max(prev_inertia, 1e-12):
            break
        prev_inertia = inertia
    return Codebook(channel=channel, centroids=centroids.astype(np.float32), seed=seed)
