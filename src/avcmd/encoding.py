"""Codebook learning and clip-level encodings.

A codebook is learned per descriptor channel with seeded k-means++ Lloyd
iterations. Clips are then represented either as hard-assignment visual-word
histograms (BoVW) or as aggregated first-order residuals (VLAD). Histogram
channels are compared with the chi-square distance and combined into one
kernel value as exp(-sum_c D_c / A_c), where A_c is the mean pairwise
training distance of channel c.

Every chi-square distance comes from `chi2_cross_matrix` (`chi2_distance`
and `chi2_distance_matrix` are its 1x1 and (h, h) cases), and every kernel
value from `cross_gram` (`multichannel_gram` symmetrizes it with a unit
diagonal; `multichannel_kernel` is its single-pair case).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)

CODEBOOK_MAGIC = b"IGCB"
CODEBOOK_VERSION = 1

_ASSIGN_CHUNK = 16384  # rows per nearest-centroid block, bounds memory


class Channel(IntEnum):
    TRAJ = 0
    HOG = 1
    HOF = 2
    MBH = 3


CHANNEL_ORDER = (Channel.TRAJ, Channel.HOG, Channel.HOF, Channel.MBH)


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
    """Raw visual-word counts; normalization is derived on demand."""

    counts: np.ndarray
    channel: Channel

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64)
        if c.ndim != 1:
            raise InvalidParameterError("counts must be a vector")
        if np.any(c < 0):
            raise InvalidParameterError("counts must be nonnegative")
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    def l1_normalized(self) -> np.ndarray:
        total = float(self.counts.sum())
        return self.counts / total if total > 0 else self.counts.copy()


@dataclass(frozen=True)
class VladVec:
    values: np.ndarray  # (K * dim,)
    n_descriptors: int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def is_empty(self) -> bool:
        return self.n_descriptors == 0


# ---------------------------------------------------------------------------
# k-means

def _pairwise_sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    d = (x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (x @ c.T)
    return np.maximum(d, 0.0)


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row (ties to the lowest index) and the distance."""
    n = x.shape[0]
    labels = np.empty(n, dtype=np.intp)
    dists = np.empty(n)
    for lo in range(0, n, _ASSIGN_CHUNK):
        hi = min(lo + _ASSIGN_CHUNK, n)
        d = _pairwise_sq_dists(x[lo:hi], centroids)
        labels[lo:hi] = d.argmin(axis=1)
        dists[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
    return labels, dists


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = _pairwise_sq_dists(x, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining mass is on existing centroids; pick arbitrary rows.
            centroids[i:] = x[rng.choice(n, size=k - i, replace=False)]
            break
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centroids[i] = x[idx]
        closest = np.minimum(closest, _pairwise_sq_dists(x, centroids[i : i + 1]).ravel())
    return centroids


def train_codebook(
    descriptors: np.ndarray,
    k: int,
    seed: int,
    channel: Channel = Channel.TRAJ,
    max_iter: int = 100,
    rtol: float = 1e-4,
    subsample: int | None = 100_000,
) -> Codebook:
    """Seeded k-means++ followed by Lloyd iterations.

    Runs until the relative inertia improvement drops below `rtol` or
    `max_iter` iterations. Deterministic for a fixed seed. Descriptor sets
    larger than `subsample` are thinned with the same seeded generator before
    clustering.
    """
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise InvalidParameterError("descriptors must be a (N, dim) matrix")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("descriptors contain non-finite values")
    rng = np.random.default_rng(seed)
    if subsample is not None and x.shape[0] > subsample:
        keep = rng.choice(x.shape[0], size=subsample, replace=False)
        keep.sort()
        x = x[keep]
    if x.shape[0] < k:
        raise InvalidParameterError(f"need at least {k} descriptors, got {x.shape[0]}")

    centroids = _kmeans_pp_init(x, k, rng)
    prev_inertia = np.inf
    for _ in range(max_iter):
        labels, dists = _assign(x, centroids)
        inertia = float(dists.sum())
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = np.zeros_like(centroids)
        for j in range(x.shape[1]):
            sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if np.any(~nonempty):
            # Re-seed empty clusters on the points currently worst represented.
            order = np.argsort(dists)[::-1]
            for slot, point in zip(np.flatnonzero(~nonempty), order):
                centroids[slot] = x[point]
        if prev_inertia < np.inf and prev_inertia - inertia < rtol * max(prev_inertia, 1e-12):
            break
        prev_inertia = inertia

    return Codebook(channel=channel, centroids=centroids.astype(np.float32), seed=seed)


def kmeans_inertia(descriptors: np.ndarray, codebook: Codebook) -> float:
    _, dists = _assign(np.asarray(descriptors, dtype=np.float64), codebook.centroids.astype(np.float64))
    return float(dists.sum())


# ---------------------------------------------------------------------------
# encodings

def _check_dim(descriptors: np.ndarray, codebook: Codebook) -> np.ndarray:
    x = np.asarray(descriptors, dtype=np.float64)
    if x.size == 0:
        return x.reshape(0, codebook.dim)
    if x.ndim != 2 or x.shape[1] != codebook.dim:
        raise InvalidParameterError(
            f"descriptor dim {x.shape[-1] if x.ndim == 2 else '?'} does not match codebook dim {codebook.dim}"
        )
    return x


def bovw_encode(descriptors: np.ndarray, codebook: Codebook) -> BovwHist:
    """Hard-assignment histogram; counts sum to the number of descriptors."""
    x = _check_dim(descriptors, codebook)
    counts = np.zeros(codebook.k)
    if x.shape[0]:
        labels, _ = _assign(x, codebook.centroids.astype(np.float64))
        counts = np.bincount(labels, minlength=codebook.k).astype(np.float64)
    return BovwHist(counts=counts, channel=codebook.channel)


def vlad_encode(descriptors: np.ndarray, codebook: Codebook) -> VladVec:
    """Aggregate residuals to the nearest word, then signed sqrt + global L2."""
    x = _check_dim(descriptors, codebook)
    c = codebook.centroids.astype(np.float64)
    agg = np.zeros((codebook.k, codebook.dim))
    if x.shape[0]:
        labels, _ = _assign(x, c)
        for j in range(codebook.dim):
            agg[:, j] = np.bincount(labels, weights=x[:, j], minlength=codebook.k)
        counts = np.bincount(labels, minlength=codebook.k).astype(np.float64)
        agg -= counts[:, None] * c
    flat = agg.ravel()
    flat = np.sign(flat) * np.sqrt(np.abs(flat))
    norm = float(np.linalg.norm(flat))
    if norm > 0:
        flat = flat / norm
    return VladVec(values=flat, n_descriptors=int(x.shape[0]))


def combine_vlad(per_channel: dict[Channel, VladVec]) -> np.ndarray:
    """Concatenate channel VLAD vectors in the fixed TRAJ|HOG|HOF|MBH order."""
    missing = [ch.name for ch in CHANNEL_ORDER if ch not in per_channel]
    if missing:
        raise InvalidParameterError(f"missing channels: {', '.join(missing)}")
    return np.concatenate([per_channel[ch].values for ch in CHANNEL_ORDER])


# ---------------------------------------------------------------------------
# chi-square machinery

def chi2_cross_matrix(hists_a: np.ndarray, hists_b: np.ndarray) -> np.ndarray:
    """Chi-square distances between two histogram sets, (len(a), len(b)).

    0.5 * sum (a-b)^2/(a+b) over bins with a nonzero denominator.
    """
    a = np.asarray(hists_a, dtype=np.float64)
    b = np.asarray(hists_b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        diff = a[i][None, :] - b
        denom = a[i][None, :] + b
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(denom > 0, diff * diff / np.where(denom > 0, denom, 1.0), 0.0)
        out[i] = 0.5 * terms.sum(axis=1)
    return out


def chi2_distance(h1: np.ndarray, h2: np.ndarray) -> float:
    """Chi-square distance of two histograms: the 1x1 `chi2_cross_matrix`."""
    a = np.asarray(h1, dtype=np.float64)
    b = np.asarray(h2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidParameterError("histograms must be vectors of equal length")
    return float(chi2_cross_matrix(a[None, :], b[None, :])[0, 0])


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


def multichannel_kernel(
    sample_i: dict[Channel, BovwHist],
    sample_j: dict[Channel, BovwHist],
    channel_means: dict[Channel, float],
) -> float:
    """exp(-sum_c D(h_i^c, h_j^c) / A_c): `cross_gram` over 1x1 distances."""
    if set(sample_i) != set(sample_j):
        raise InvalidParameterError("both samples must cover the same channels")
    dists = {
        ch: chi2_cross_matrix(h.l1_normalized()[None, :], sample_j[ch].l1_normalized()[None, :])
        for ch, h in sample_i.items()
    }
    return float(cross_gram(dists, channel_means)[0, 0])


# ---------------------------------------------------------------------------
# encoded-video file: magic, version u16, clip count u32, channel count u8,
# per channel (tag u8, K u32); then per clip, per channel, raw counts f32.
# Clip order matches the annotation sidecar the file was produced from. With
# clips there is a channel and every K >= 1, so the payload, exactly
# clips x sum(4 K) bytes, bounds the declared clip count.

ENCODED_MAGIC = b"IGEV"
ENCODED_VERSION = 1


def write_encoded(path: str | Path, clips: list[dict[Channel, BovwHist]]) -> None:
    def layout(hists):
        return [(ch, hists[ch].counts.shape[0]) for ch in CHANNEL_ORDER if ch in hists]

    table = layout(clips[0]) if clips else []
    if clips and not (table and min(k for _, k in table) >= 1):
        raise InvalidParameterError("clips need at least one channel, each with at least one bin")
    if any(layout(hists) != table for hists in clips):
        raise InvalidParameterError("all clips must share the same channels and histogram sizes")
    with open(path, "wb") as fh:
        fh.write(ENCODED_MAGIC)
        fh.write(struct.pack("<HIB", ENCODED_VERSION, len(clips), len(table)))
        for ch, k in table:
            fh.write(struct.pack("<BI", int(ch), k))
        for hists in clips:
            for ch, _ in table:
                fh.write(hists[ch].counts.astype("<f4").tobytes())


def read_encoded(path: str | Path) -> list[dict[Channel, BovwHist]]:
    raw = Path(path).read_bytes()
    head = struct.calcsize("<4sHIB")
    if len(raw) < head:
        raise TruncatedPayloadError("encoded-video file shorter than its header")
    magic, version, n_clips, n_channels = struct.unpack_from("<4sHIB", raw)
    if magic != ENCODED_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != ENCODED_VERSION:
        raise UnsupportedVersionError(f"encoded-video version {version} not supported")
    if n_clips > 0 and n_channels == 0:
        raise FormatError(f"encoded-video file declares {n_clips} clips and no channels")
    off = head + 5 * n_channels
    if len(raw) < off:
        raise TruncatedPayloadError("encoded-video channel table truncated")
    channels: list[tuple[Channel, int]] = []
    for tag, k in struct.iter_unpack("<BI", raw[head:off]):
        try:
            channels.append((Channel(tag), k))
        except ValueError:
            raise FormatError(f"unknown channel tag {tag}") from None
        if k == 0:
            raise FormatError(f"channel tag {tag} declares zero bins")
    row = sum(k for _, k in channels)
    extra = len(raw) - off - 4 * row * n_clips
    if extra < 0:
        raise TruncatedPayloadError("encoded-video payload truncated")
    if extra > 0:
        raise FormatError(f"{extra} bytes after the encoded-video payload")
    counts = np.frombuffer(raw, dtype="<f4", count=n_clips * row, offset=off)
    counts = counts.astype(np.float64).reshape(n_clips, row)
    bounds = np.cumsum([0] + [k for _, k in channels])
    spans = [(ch, lo, hi) for (ch, _), lo, hi in zip(channels, bounds[:-1], bounds[1:])]
    return [{ch: BovwHist(counts=c[lo:hi], channel=ch) for ch, lo, hi in spans} for c in counts]


# ---------------------------------------------------------------------------
# VLAD vector file: magic, version u16, count u32, dim u32, then count x dim
# f32 rows (finalized vectors, clip order as in the annotation sidecar).

VLAD_MAGIC = b"IGVL"
VLAD_VERSION = 1


def write_vlad_vectors(path: str | Path, vectors: np.ndarray) -> None:
    v = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(VLAD_MAGIC)
        fh.write(struct.pack("<HII", VLAD_VERSION, v.shape[0], v.shape[1]))
        fh.write(v.astype("<f4").tobytes())


def read_vlad_vectors(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    head = struct.calcsize("<4sHII")
    if len(raw) < head:
        raise TruncatedPayloadError("vlad file shorter than its header")
    magic, version, count, dim = struct.unpack_from("<4sHII", raw)
    if magic != VLAD_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VLAD_VERSION:
        raise UnsupportedVersionError(f"vlad version {version} not supported")
    if len(raw) < head + count * dim * 4:
        raise TruncatedPayloadError("vlad payload truncated")
    return (
        np.frombuffer(raw, dtype="<f4", count=count * dim, offset=head)
        .reshape(count, dim)
        .astype(np.float64)
    )


# ---------------------------------------------------------------------------
# codebook file format: magic, version u16, channel u8, K u32, dim u32,
# seed u64, centroids f32 row-major

def write_codebook(path: str | Path, codebook: Codebook) -> None:
    with open(path, "wb") as fh:
        fh.write(CODEBOOK_MAGIC)
        fh.write(
            struct.pack(
                "<HBIIQ",
                CODEBOOK_VERSION,
                int(codebook.channel),
                codebook.k,
                codebook.dim,
                codebook.seed,
            )
        )
        fh.write(codebook.centroids.astype("<f4").tobytes())


def read_codebook(path: str | Path) -> Codebook:
    raw = Path(path).read_bytes()
    header = struct.calcsize("<4sHBIIQ")
    if len(raw) < header:
        raise TruncatedPayloadError("codebook file shorter than its header")
    magic, version, channel, k, dim, seed = struct.unpack_from("<4sHBIIQ", raw)
    if magic != CODEBOOK_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != CODEBOOK_VERSION:
        raise UnsupportedVersionError(f"codebook version {version} not supported")
    expected = header + k * dim * 4
    if len(raw) < expected:
        raise TruncatedPayloadError("codebook payload truncated")
    try:
        ch = Channel(channel)
    except ValueError:
        raise FormatError(f"unknown channel tag {channel}") from None
    centroids = np.frombuffer(raw, dtype="<f4", count=k * dim, offset=header).reshape(k, dim)
    return Codebook(channel=ch, centroids=centroids, seed=seed)
