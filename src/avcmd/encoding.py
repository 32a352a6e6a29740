"""Codebook learning and clip-level encodings.

A codebook is learned per descriptor channel with seeded k-means++ Lloyd
iterations. A clip is then represented per channel by a hard-assignment
visual-word histogram (BoVW). Histogram channels are compared with the
chi-square distance and combined into one kernel value as
exp(-sum_c D_c / A_c), where A_c is the mean pairwise training distance of
channel c.

Every chi-square distance comes from `chi2_cross_matrix`
(`chi2_distance_matrix` is its (h, h) case), and every kernel value from
`cross_gram` (`multichannel_gram` symmetrizes it with a unit diagonal).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    TruncatedPayloadError,
    check_payload,
    unpack_header,
)

CODEBOOK_MAGIC = b"IGCB"
CODEBOOK_VERSION = 1
_CODEBOOK_HEADER = struct.Struct("<4sHBIIQ")

# Rows per nearest-centroid block: bounds the (rows, K) distance block.
_ASSIGN_CHUNK = 16384
# Bytes per block of the one-time squared-norm pass (at least one row): a
# fixed budget at any descriptor width, so no temporary grows with the pool.
_SQ_NORM_BYTES = 1 << 18

# Descriptors a codebook is learned on at most; larger pools are thinned.
DESCRIPTOR_SUBSAMPLE = 100_000
# Lloyd iterations stop once inertia improves by less than this fraction,
# or after KMEANS_MAX_ITER of them.
KMEANS_RTOL = 1e-4
KMEANS_MAX_ITER = 100


class Channel(IntEnum):
    TRAJ = 0
    HOG = 1
    HOF = 2
    MBH = 3


CHANNEL_ORDER = (Channel.TRAJ, Channel.HOG, Channel.HOF, Channel.MBH)


def channel_from_tag(tag: int) -> Channel:
    try:
        return Channel(tag)
    except ValueError:
        raise FormatError(f"unknown channel tag {tag}") from None


def check_tag_order(table: dict, count: int, what: str) -> None:
    """Refuse a table of `count` channels unless its tags were strictly increasing."""
    if len(table) != count or list(table) != sorted(table):
        raise FormatError(f"{what} channel tags must be strictly increasing")


@dataclass(frozen=True)
class Codebook:
    channel: Channel
    centroids: np.ndarray  # (K, dim) float32
    seed: int

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float32)
        if c.ndim != 2 or c.shape[0] < 1:
            raise InvalidParameterError("centroids must be a (K, dim) matrix with K >= 1")
        if not np.all(np.isfinite(c)):
            raise InvalidParameterError("centroids must be finite")
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(bytes([int(self.channel)]))
        h.update(struct.pack("<IIQ", self.k, self.dim, self.seed))
        h.update(self.centroids.astype("<f4").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class BovwHist:
    """Raw visual-word counts, integers in [0, 2**24]; normalization is derived on demand."""

    counts: np.ndarray
    channel: Channel

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64)
        if c.ndim != 1:
            raise InvalidParameterError("counts must be a vector")
        check_counts(c, InvalidParameterError, "visual-word")
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    def l1_normalized(self) -> np.ndarray:
        return _l1_rows(self.counts[None, :])[0]


def _l1_rows(h: np.ndarray) -> np.ndarray:
    """Each row divided by its sum; all-zero rows stay zero."""
    h = np.asarray(h, dtype=np.float64)
    sums = h.sum(axis=1, keepdims=True)
    return np.divide(h, sums, out=np.zeros_like(h), where=sums > 0)


# ---------------------------------------------------------------------------
# k-means

def _sq_norms(x: np.ndarray) -> np.ndarray:
    """`(x * x).sum(axis=1)`, bit for bit, in blocks of at most `_SQ_NORM_BYTES`
    float64 bytes: each row is summed on its own, so the blocking changes no bit."""
    out = np.empty(x.shape[0])
    rows = max(1, _SQ_NORM_BYTES // (8 * x.shape[1]))
    for lo in range(0, x.shape[0], rows):
        blk = x[lo : lo + rows]
        out[lo : lo + rows] = (blk * blk).sum(axis=1)
    return out


def _pairwise_sq_dists(x: np.ndarray, c: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of x to those of c; `x_sq` is `_sq_norms(x)`.

    The operations of `max(x_sq + |c|^2 - 2 * (x @ c.T), 0)` in that order, bit
    for bit, with two (rows, k) buffers: the sum is built and clamped in place."""
    d = x_sq[:, None] + (c * c).sum(axis=1)[None, :]
    xc = x @ c.T
    xc *= 2.0
    d -= xc
    return np.maximum(d, 0.0, out=d)


def _assign(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row (ties to the lowest index) and the distance."""
    n = x.shape[0]
    labels = np.empty(n, dtype=np.intp)
    dists = np.empty(n)
    for lo in range(0, n, _ASSIGN_CHUNK):
        hi = min(lo + _ASSIGN_CHUNK, n)
        d = _pairwise_sq_dists(x[lo:hi], centroids, x_sq[lo:hi])
        labels[lo:hi] = d.argmin(axis=1)
        dists[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
    return labels, dists


def _cluster_sums(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, dim) column sums of the rows of x in each cluster, one bincount per column."""
    sums = np.zeros((k, x.shape[1]))
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    return sums


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator, x_sq: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = _pairwise_sq_dists(x, centroids[:1], x_sq).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining mass is on existing centroids; pick arbitrary rows.
            centroids[i:] = x[rng.choice(n, size=k - i, replace=False)]
            break
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centroids[i] = x[idx]
        closest = np.minimum(closest, _pairwise_sq_dists(x, centroids[i : i + 1], x_sq).ravel())
    return centroids


def train_codebook(
    descriptors: np.ndarray,
    k: int,
    seed: int,
    channel: Channel = Channel.TRAJ,
    subsample: int = DESCRIPTOR_SUBSAMPLE,
) -> Codebook:
    """Seeded k-means++ followed by Lloyd iterations.

    Runs until the relative inertia improvement drops below `KMEANS_RTOL` or
    for `KMEANS_MAX_ITER` iterations. Deterministic for a fixed seed. Descriptor sets
    larger than `subsample` are thinned with the same seeded generator before
    clustering.
    """
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise InvalidParameterError("descriptors must be a (N, dim) matrix")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("descriptors contain non-finite values")
    rng = np.random.default_rng(seed)
    if x.shape[0] > subsample:
        keep = rng.choice(x.shape[0], size=subsample, replace=False)
        keep.sort()
        x = x[keep]
    if x.shape[0] < k:
        raise InvalidParameterError(f"need at least {k} descriptors, got {x.shape[0]}")

    x_sq = _sq_norms(x)
    centroids = _kmeans_pp_init(x, k, rng, x_sq)
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITER):
        labels, dists = _assign(x, centroids, x_sq)
        inertia = float(dists.sum())
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = _cluster_sums(x, labels, k)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if np.any(~nonempty):
            # Re-seed empty clusters on the points currently worst represented.
            order = np.argsort(dists)[::-1]
            for slot, point in zip(np.flatnonzero(~nonempty), order):
                centroids[slot] = x[point]
        if prev_inertia < np.inf and prev_inertia - inertia < KMEANS_RTOL * max(prev_inertia, 1e-12):
            break
        prev_inertia = inertia

    return Codebook(channel=channel, centroids=centroids.astype(np.float32), seed=seed)


# ---------------------------------------------------------------------------
# encodings

def bovw_encode(descriptors: np.ndarray, codebook: Codebook) -> BovwHist:
    """Hard-assignment histogram; counts sum to the number of descriptors."""
    x = np.asarray(descriptors, dtype=np.float64)
    counts = np.zeros(codebook.k)
    if x.size:
        if x.ndim != 2 or x.shape[1] != codebook.dim:
            raise InvalidParameterError(
                f"descriptor dim {x.shape[-1] if x.ndim == 2 else '?'} does not match codebook dim {codebook.dim}"
            )
        labels, _ = _assign(x, codebook.centroids.astype(np.float64), _sq_norms(x))
        counts = np.bincount(labels, minlength=codebook.k).astype(np.float64)
    return BovwHist(counts=counts, channel=codebook.channel)


# ---------------------------------------------------------------------------
# chi-square machinery

def chi2_cross_matrix(hists_a: np.ndarray, hists_b: np.ndarray) -> np.ndarray:
    """Chi-square distances between two histogram sets, (len(a), len(b)).

    0.5 * sum (a-b)^2/(a+b) over bins with a nonzero denominator.
    """
    a = np.asarray(hists_a, dtype=np.float64)
    b = np.asarray(hists_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidParameterError("histograms must be (n, K) matrices with one K")
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        diff = a[i][None, :] - b
        denom = a[i][None, :] + b
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(denom > 0, diff * diff / np.where(denom > 0, denom, 1.0), 0.0)
        out[i] = 0.5 * terms.sum(axis=1)
    return out


def chi2_distance_matrix(hists: np.ndarray) -> np.ndarray:
    """Pairwise distances of one set; (h_j-h_i)^2 == (h_i-h_j)^2 and
    h_j+h_i == h_i+h_j exactly, so it is symmetric bit for bit, zero diagonal."""
    return chi2_cross_matrix(hists, hists)


def channel_mean_distance(dist_matrix: np.ndarray) -> float:
    """Mean over unordered distinct training pairs."""
    d = np.asarray(dist_matrix, dtype=np.float64)
    n = d.shape[0]
    if n < 2:
        raise DegenerateInputError("need at least two samples to average pair distances")
    iu = np.triu_indices(n, k=1)
    return float(d[iu].mean())


def cross_gram(
    dists: dict[Channel, np.ndarray],
    channel_means: dict[Channel, float],
) -> np.ndarray:
    """Kernel values exp(-sum_c D_c / A_c) from per-channel distance matrices.

    `dists` and `channel_means` must cover the same, nonempty channel set and
    every A_c must be positive. Channels are summed in the order of `dists`.
    """
    if not dists or set(dists) != set(channel_means):
        raise InvalidParameterError("distance matrices and channel means must cover the same channels")
    total = None
    for ch, d in dists.items():
        a_c = channel_means[ch]
        if a_c <= 0:
            raise DegenerateInputError(f"channel mean for {ch.name} must be positive")
        term = np.asarray(d, dtype=np.float64) / a_c
        total = term if total is None else total + term
    return np.exp(-total)


def multichannel_gram(
    dist_matrices: dict[Channel, np.ndarray],
    channel_means: dict[Channel, float],
) -> np.ndarray:
    """Training Gram matrix: `cross_gram`, symmetrized, with a unit diagonal."""
    gram = np.triu(cross_gram(dist_matrices, channel_means), k=1)
    gram = gram + gram.T
    np.fill_diagonal(gram, 1.0)
    return gram


# ---------------------------------------------------------------------------
# encoded-video file: magic, version u16, clip count u32, channel count u8,
# per channel (tag u8, K u32) in increasing tag order; then per clip, per
# channel, raw counts f32. Clip order matches the annotation sidecar the file
# was produced from. A file has channels exactly when it has clips, and every
# K >= 1, so the payload, exactly clips x sum(4 K) bytes, bounds the declared
# clip count.

ENCODED_MAGIC = b"IGEV"
ENCODED_VERSION = 1
_ENCODED_HEADER = struct.Struct("<4sHIB")
# The largest count float32 stores with every smaller integer: 2**24 + 1 is not representable.
_MAX_ENCODED_COUNT = 2**24


def check_counts(counts: np.ndarray, error: type[Exception], what: str) -> None:
    """Raise `error` unless every count is an integer in [0, 2**24]. Checked in the dtype
    given, so a reader checks its float32 before widening a signalling NaN, which would warn."""
    in_range = np.all(np.isfinite(counts)) and np.all((counts >= 0) & (counts <= _MAX_ENCODED_COUNT))
    if not (in_range and np.array_equal(counts, np.floor(counts))):
        raise error(f"{what} counts must be finite integers in [0, {_MAX_ENCODED_COUNT}], which float32 stores exactly")


def write_encoded(path: str | Path, clips: list[dict[Channel, BovwHist]]) -> None:
    def layout(hists):
        return [(ch, hists[ch].counts.shape[0]) for ch in CHANNEL_ORDER if ch in hists]

    table = layout(clips[0]) if clips else []
    if clips and not (table and min(k for _, k in table) >= 1):
        raise InvalidParameterError("clips need at least one channel, each with at least one bin")
    if any(layout(hists) != table for hists in clips):
        raise InvalidParameterError("all clips must share the same channels and histogram sizes")
    with open(path, "wb") as fh:
        fh.write(_ENCODED_HEADER.pack(ENCODED_MAGIC, ENCODED_VERSION, len(clips), len(table)))
        for ch, k in table:
            fh.write(struct.pack("<BI", int(ch), k))
        for hists in clips:
            for ch, _ in table:
                fh.write(hists[ch].counts.astype("<f4").tobytes())


def read_encoded(path: str | Path) -> list[dict[Channel, BovwHist]]:
    raw = Path(path).read_bytes()
    n_clips, n_channels = unpack_header(raw, _ENCODED_HEADER, ENCODED_MAGIC, ENCODED_VERSION, "encoded-video")
    head = _ENCODED_HEADER.size
    if (n_clips > 0) != (n_channels > 0):
        raise FormatError(f"encoded-video file declares {n_clips} clips and {n_channels} channels")
    off = head + 5 * n_channels
    if len(raw) < off:
        raise TruncatedPayloadError("encoded-video channel table truncated")
    channels: dict[Channel, int] = {}
    for tag, k in struct.iter_unpack("<BI", raw[head:off]):
        channels[channel_from_tag(tag)] = k
        if k == 0:
            raise FormatError(f"channel tag {tag} declares zero bins")
    check_tag_order(channels, n_channels, "encoded-video")
    row = sum(channels.values())
    check_payload(len(raw), off + 4 * row * n_clips, "encoded-video")
    counts = np.frombuffer(raw, dtype="<f4", count=n_clips * row, offset=off)
    check_counts(counts, FormatError, "encoded-video")
    counts = counts.astype(np.float64).reshape(n_clips, row)
    bounds = np.cumsum([0, *channels.values()])
    spans = list(zip(channels, bounds[:-1], bounds[1:]))
    return [{ch: BovwHist(counts=c[lo:hi], channel=ch) for ch, lo, hi in spans} for c in counts]


# ---------------------------------------------------------------------------
# codebook file format: magic, version u16, channel u8, K u32, dim u32,
# seed u64, centroids f32 row-major

def write_codebook(path: str | Path, codebook: Codebook) -> None:
    header = _CODEBOOK_HEADER.pack(
        CODEBOOK_MAGIC, CODEBOOK_VERSION, int(codebook.channel), codebook.k, codebook.dim, codebook.seed
    )
    Path(path).write_bytes(header + codebook.centroids.astype("<f4").tobytes())


def read_codebook(path: str | Path) -> Codebook:
    raw = Path(path).read_bytes()
    channel, k, dim, seed = unpack_header(raw, _CODEBOOK_HEADER, CODEBOOK_MAGIC, CODEBOOK_VERSION, "codebook")
    if k == 0 or dim == 0:
        raise FormatError(f"codebook declares an empty {k} x {dim} centroid matrix")
    check_payload(len(raw), _CODEBOOK_HEADER.size + k * dim * 4, "codebook")
    ch = channel_from_tag(channel)
    centroids = np.frombuffer(raw, dtype="<f4", offset=_CODEBOOK_HEADER.size).reshape(k, dim)
    return Codebook(channel=ch, centroids=centroids, seed=seed)
