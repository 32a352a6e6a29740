"""Soft-margin kernel SVM training and one-against-all prediction.

The SVM works on a precomputed Gram matrix, one binary problem per class,
solved with SMO-style pairwise updates (maximal-violating-pair selection,
KKT stop). One batched solver advances every problem of a fit, and of a
whole stack of Grams such as the folds of a leave-one-out run, in a single
loop; each problem's arithmetic is that of solving it alone, so the results
are the same bit for bit.

The trainers refuse a C that is not finite and positive and a Gram with
non-finite entries. IGSV stores only deployable models (`_check_tables`), and
its reader accepts only what `write_model` writes: it refuses a model kind
other than kernel, a non-finite number, a C the trainers refuse, fewer than
two classes, and class ids or channel tags that are not strictly increasing.

Prediction picks the class with the highest decision value; exact ties go to
the lowest class id and are flagged. Raw decision values are exposed because
the fusion layer consumes ranked hypothesis lists, not probabilities.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .encoding import Channel, channel_from_tag, check_counts, check_tag_order
from .errors import (
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    check_payload,
    unpack_header,
)

MODEL_MAGIC = b"IGSV"
MODEL_VERSION = 1
KIND_KERNEL = 0  # the only model kind; its header byte stays so files keep their layout
_MODEL_HEADER = struct.Struct("<4sHBHd")  # magic, version, kind, class count, C

DEFAULT_C = 100.0
SMO_TOL = 1e-3  # KKT gap at which a binary problem stops
SMO_MAX_ITER = 10_000  # iterations after which a binary problem stops unconverged


@dataclass(frozen=True)
class Prediction:
    label: int
    scores: np.ndarray  # per-class decision values, aligned with model.classes
    tie: bool


@dataclass
class BinarySolution:
    support: np.ndarray  # indices into the training set
    coef: np.ndarray     # alpha_i * y_i at the support indices
    bias: float
    iterations: int


def _solution(alpha: np.ndarray, y: np.ndarray, f: np.ndarray, c: float, iterations: int) -> BinarySolution:
    """One problem's bias and support expansion from its final alpha and f."""
    eps = 1e-12
    vals = y - f
    free = (alpha > eps) & (alpha < c - eps)
    if free.any():
        bias = float(vals[free].mean())
    else:
        up = ((y > 0) & (alpha < c - eps)) | ((y < 0) & (alpha > eps))
        low = ((y < 0) & (alpha < c - eps)) | ((y > 0) & (alpha > eps))
        hi = vals[up].max() if up.any() else 0.0
        lo = vals[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    support = np.flatnonzero(alpha > 1e-8)
    return BinarySolution(support=support, coef=alpha[support] * y[support], bias=bias, iterations=iterations)


def _smo_solve(grams: np.ndarray, which: np.ndarray, ys: np.ndarray, c: float) -> list[BinarySolution]:
    """Solve P binary soft-margin duals together on precomputed kernels.

    Problem p uses the Gram `grams[which[p]]` and the +-1 labels `ys[p]`.
    Each problem keeps f_i = sum_k alpha_k y_k K_ik and repeatedly updates its
    maximal violating pair until its KKT gap drops below `SMO_TOL`, for at
    most `SMO_MAX_ITER` iterations. All active problems take one step per
    iteration as (P,) vectors of the same scalar operations, so every
    problem's path is the one it takes alone; a problem leaves the active set
    at the iteration where it stops. Only the kernel columns and entries a
    step needs are gathered.
    """
    n_prob, n = ys.shape
    eps = 1e-12
    final_alpha = np.zeros((n_prob, n))
    final_f = np.zeros((n_prob, n))
    iterations = np.full(n_prob, SMO_MAX_ITER)

    act = np.arange(n_prob)
    w, y = np.asarray(which), ys
    pos = y > 0  # labels are +-1
    alpha = np.zeros((n_prob, n))
    f = np.zeros((n_prob, n))
    for it in range(1, SMO_MAX_ITER + 1):
        vals = y - f  # equals -E_i; also -y_i * grad_i
        below, above = alpha < c - eps, alpha > eps
        up = np.where(pos, below, above)
        low = np.where(pos, above, below)
        # first maximum over `up`, first minimum over `low`
        i = np.argmax(np.where(up, vals, -np.inf), axis=1)
        j = np.argmin(np.where(low, vals, np.inf), axis=1)
        r = np.arange(act.size)
        stop = ~up.any(axis=1) | ~low.any(axis=1) | (vals[r, i] - vals[r, j] < SMO_TOL)
        if stop.any():
            done = act[stop]
            iterations[done] = it
            final_alpha[done], final_f[done] = alpha[stop], f[stop]
            go = ~stop
            act, w, y, pos, alpha, f, i, j = (a[go] for a in (act, w, y, pos, alpha, f, i, j))
            if act.size == 0:
                break
            r = np.arange(act.size)

        eta = grams[w, i, i] + grams[w, j, j] - 2.0 * grams[w, i, j]
        eta = np.where(eta <= 0, 1e-12, eta)
        a_j_old, a_i_old = alpha[r, j], alpha[r, i]
        y_i, y_j = y[r, i], y[r, j]
        # box bounds on alpha_j holding alpha_i + s*alpha_j fixed
        differ = y_i != y_j
        lo = np.where(differ, a_j_old - a_i_old, a_i_old + a_j_old - c)
        hi = np.where(differ, c + a_j_old - a_i_old, a_i_old + a_j_old)
        lo = np.where(lo > 0.0, lo, 0.0)
        hi = np.where(hi < c, hi, c)
        e_i = f[r, i] - y_i
        e_j = f[r, j] - y_j
        a_j = np.clip(a_j_old + y_j * (e_i - e_j) / eta, lo, hi)
        a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
        alpha[r, i] = a_i
        alpha[r, j] = a_j
        f += grams[w, :, i] * (y_i * (a_i - a_i_old))[:, None] + grams[w, :, j] * (y_j * (a_j - a_j_old))[:, None]
    final_alpha[act], final_f[act] = alpha, f  # problems that ran out of iterations

    return [
        _solution(final_alpha[p], ys[p], final_f[p], c, int(iterations[p])) for p in range(n_prob)
    ]


def _check_labels(labels: np.ndarray) -> np.ndarray:
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateInputError("training needs at least two classes")
    return classes


@dataclass
class KernelSvmModel:
    """One-against-all kernel SVM over chi-square histogram channels.

    Keeps the support expansion per class; a deployable model also keeps the
    training histograms, channel means and codebook hashes of one channel
    set, which kernelize new samples (`train_kernel_svms` leaves them empty).
    """

    classes: np.ndarray
    solutions: list[BinarySolution]
    n_train: int
    c: float
    train_hists: dict[Channel, np.ndarray] = field(default_factory=dict)  # (n_train, K) raw counts
    channel_means: dict[Channel, float] = field(default_factory=dict)
    codebook_hashes: dict[Channel, str] = field(default_factory=dict)

    def decision_values(self, kernel_rows: np.ndarray) -> np.ndarray:
        """Per-class scores for kernel rows of shape (n_test, n_train)."""
        k = np.atleast_2d(np.asarray(kernel_rows, dtype=np.float64))
        if k.shape[1] != self.n_train:
            raise InvalidParameterError(
                f"kernel rows have {k.shape[1]} columns, expected {self.n_train}"
            )
        out = np.empty((k.shape[0], self.classes.size))
        for idx, sol in enumerate(self.solutions):
            out[:, idx] = k[:, sol.support] @ sol.coef + sol.bias
        return out

    def predict(self, kernel_rows: np.ndarray) -> list[Prediction]:
        return [_argmax_prediction(self.classes, row) for row in self.decision_values(kernel_rows)]


def _argmax_prediction(classes: np.ndarray, scores: np.ndarray) -> Prediction:
    best = int(np.argmax(scores))  # first maximum = lowest class id
    tie = bool(np.sum(scores == scores[best]) > 1)
    return Prediction(label=int(classes[best]), scores=scores.copy(), tie=tie)


def _check_tables(hists: dict, means: dict, hashes: dict, n_train: int, error: type[Exception]) -> None:
    """A deployable model's tables: one nonempty channel set in all three, (n_train, K >= 1)
    histograms of counts that float32 stores exactly, finite positive means, and
    codebook hashes of 64 lowercase hex digits, the sha256 digests IGSV stores."""
    if not hists or set(hists) != set(means) or set(hists) != set(hashes):
        raise error("a model needs training histograms, channel means and codebook hashes of one channel set")
    for ch, digest in hashes.items():
        if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
            raise error(f"codebook hash for {ch.name} must be 64 lowercase hex digits")
    for ch, h in hists.items():
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[0] != n_train or h.shape[1] < 1:
            raise error(f"{ch.name} training histograms must be an (n_train, K >= 1) matrix")
        check_counts(h, error, f"{ch.name} training")
        if not (math.isfinite(means[ch]) and means[ch] > 0):
            raise error(f"channel mean for {ch.name} must be finite and positive")


def train_kernel_svm(
    gram: np.ndarray,
    labels: np.ndarray,
    c: float = DEFAULT_C,
    *,
    train_hists: dict[Channel, np.ndarray],
    channel_means: dict[Channel, float],
    codebook_hashes: dict[Channel, str],
) -> KernelSvmModel:
    """The deployable model: one binary SMO problem per class on a precomputed
    Gram matrix, with the tables that classify new samples (`KernelSvmModel`)."""
    (model,) = train_kernel_svms(np.asarray(gram)[None], [labels], c=c)
    _check_tables(train_hists, channel_means, codebook_hashes, model.n_train, InvalidParameterError)
    return replace(
        model,
        train_hists=train_hists,
        channel_means=channel_means,
        codebook_hashes=dict(codebook_hashes),
    )


def train_kernel_svms(
    grams: np.ndarray,
    labels_per_gram,
    c: float = DEFAULT_C,
) -> list[KernelSvmModel]:
    """One one-against-all model per Gram of a (G, n, n) stack, in one SMO solve.

    `labels_per_gram[g]` labels the n samples of `grams[g]`; each Gram has
    its own classes. Every binary problem of every Gram advances in the same
    batched solver, and each model equals the one `train_kernel_svm` fits on
    its Gram alone, without its tables: a bare fit, which `write_model` refuses.
    """
    g = np.asarray(grams, dtype=np.float64)
    if g.ndim != 3 or g.shape[1] != g.shape[2]:
        raise InvalidParameterError("grams must be a (G, n, n) stack of square matrices")
    labels = [np.asarray(lab) for lab in labels_per_gram]
    if len(labels) != g.shape[0]:
        raise InvalidParameterError("gram count and label set count differ")
    if any(lab.shape != (g.shape[1],) for lab in labels):
        raise InvalidParameterError("gram size and label count differ")
    if not (math.isfinite(c) and c > 0):
        raise InvalidParameterError(f"C must be finite and positive, got {c}")
    if not np.all(np.isfinite(g)):
        raise InvalidParameterError("gram matrix contains non-finite values")
    if not all(np.allclose(m, m.T, atol=1e-6) for m in g):  # one Gram at a time: no stack-sized temporaries
        raise InvalidParameterError("gram matrix is not symmetric (tolerance 1e-6)")
    classes = [_check_labels(lab) for lab in labels]

    which = np.repeat(np.arange(g.shape[0]), [cls.size for cls in classes])
    ys = np.concatenate([np.where(lab == cls[:, None], 1.0, -1.0) for lab, cls in zip(labels, classes)])
    solutions = _smo_solve(g, which, ys, c)
    models, start = [], 0
    for cls in classes:
        models.append(
            KernelSvmModel(classes=cls, solutions=solutions[start:start + cls.size], n_train=g.shape[1], c=c)
        )
        start += cls.size
    return models


# ---------------------------------------------------------------------------
# model file: magic, version u16, kind u8 (0 = kernel; any other value is
# refused), class count u16, C f64; the codebook table (count u8, then per
# channel tag u8 and its sha256 digest, so a classifier refuses histograms
# produced by a different vocabulary); n_train u32 and a channel count u8,
# then per channel (tag u8, K u32, mean distance f64) and n_train x K f32
# training counts; then per class (id i32, bias f64, support count u32), the
# support indices u32 and their coefficients f64.

_TRAIN_SET = struct.Struct("<IB")      # n_train, channel count
_HIST_RECORD = struct.Struct("<BId")   # channel tag, K, mean distance
_CLASS_RECORD = struct.Struct("<idI")  # class id, bias, support count


def _pack_hashes(hashes: dict[Channel, str]) -> bytes:
    out = [struct.pack("<B", len(hashes))]
    for ch in sorted(hashes, key=int):
        out.append(struct.pack("<B", int(ch)))
        out.append(bytes.fromhex(hashes[ch]))
    return b"".join(out)


def _array(raw: bytes, off: int, dtype: str, count: int) -> tuple[np.ndarray, int]:
    """`count` values of `dtype` at `off`, checked against the file length."""
    end = off + count * np.dtype(dtype).itemsize
    if end > len(raw):
        raise TruncatedPayloadError("model file truncated")
    return np.frombuffer(raw, dtype=dtype, count=count, offset=off), end


def _unpack_hashes(raw: bytes, off: int) -> tuple[dict[Channel, str], int]:
    (count,) = struct.unpack_from("<B", raw, off)
    off += 1
    hashes = {}
    for _ in range(count):
        (tag,) = struct.unpack_from("<B", raw, off)
        digest, off = _array(raw, off + 1, "u1", 32)
        hashes[channel_from_tag(tag)] = digest.tobytes().hex()
    check_tag_order(hashes, count, "codebook hash")
    return hashes, off


def _finite(*values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise FormatError("model file holds non-finite numbers")


def write_model(path: str | Path, model: KernelSvmModel) -> None:
    _check_tables(model.train_hists, model.channel_means, model.codebook_hashes, model.n_train, InvalidParameterError)
    parts = [
        _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, KIND_KERNEL, model.classes.size, model.c),
        _pack_hashes(model.codebook_hashes),
        _TRAIN_SET.pack(model.n_train, len(model.train_hists)),
    ]
    for ch in sorted(model.train_hists, key=int):
        h = np.asarray(model.train_hists[ch])
        parts.append(_HIST_RECORD.pack(int(ch), h.shape[1], float(model.channel_means[ch])))
        parts.append(h.astype("<f4").tobytes())
    for cls, sol in zip(model.classes, model.solutions):
        parts.append(_CLASS_RECORD.pack(int(cls), sol.bias, sol.support.size))
        parts.append(sol.support.astype("<u4").tobytes())
        parts.append(sol.coef.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_model(path: str | Path) -> KernelSvmModel:
    raw = Path(path).read_bytes()
    kind, n_classes, c = unpack_header(raw, _MODEL_HEADER, MODEL_MAGIC, MODEL_VERSION, "model")
    if kind != KIND_KERNEL:
        raise UnsupportedVersionError(f"model kind {kind} not supported (only {KIND_KERNEL}, kernel)")
    _finite(c)
    if c <= 0:
        raise FormatError(f"model C must be positive, got {c}")
    if n_classes < 2:
        raise FormatError(f"model holds {n_classes} classes, fewer than two")
    try:
        hashes, off = _unpack_hashes(raw, _MODEL_HEADER.size)
        n_train, n_hists = _TRAIN_SET.unpack_from(raw, off)
        off += _TRAIN_SET.size
        train_hists: dict[Channel, np.ndarray] = {}
        means: dict[Channel, float] = {}
        for _ in range(n_hists):
            tag, k, a_c = _HIST_RECORD.unpack_from(raw, off)
            h, off = _array(raw, off + _HIST_RECORD.size, "<f4", n_train * k)
            _finite(a_c, h)
            ch = channel_from_tag(tag)
            train_hists[ch] = h.reshape(n_train, k)  # float32 until checked
            means[ch] = a_c
        check_tag_order(train_hists, n_hists, "histogram")
        _check_tables(train_hists, means, hashes, n_train, FormatError)
        classes, solutions = [], []
        for _ in range(n_classes):
            cls, bias, n_sv = _CLASS_RECORD.unpack_from(raw, off)
            support, off = _array(raw, off + _CLASS_RECORD.size, "<u4", n_sv)
            coef, off = _array(raw, off, "<f8", n_sv)
            _finite(bias, coef)
            if n_sv and int(support.max()) >= n_train:
                raise FormatError("support index beyond the training set")
            classes.append(cls)
            solutions.append(
                BinarySolution(support=support.astype(np.intp), coef=coef.astype(np.float64), bias=bias, iterations=0)
            )
    except struct.error:
        raise TruncatedPayloadError("model file truncated") from None
    check_payload(len(raw), off, "model")
    if np.any(np.diff(classes) <= 0):
        raise FormatError("model class ids must be strictly increasing")
    return KernelSvmModel(
        classes=np.asarray(classes),
        solutions=solutions,
        n_train=n_train,
        c=c,
        train_hists={ch: h.astype(np.float64) for ch, h in train_hists.items()},
        channel_means=means,
        codebook_hashes=hashes,
    )
