"""Reference oracles for the batched SMO solver and the batched LOO.

These are the forms the kernel SVM had before every binary problem of a fit,
and of all leave-one-out folds, moved into one vectorised loop: a scalar SMO
loop that solves one problem at a time, a per-class training loop over it,
and a leave-one-out loop that builds, trains and predicts one fold at a
time. The batched code must reproduce them bit for bit; the tests compare
with `np.array_equal` and `==`.
"""

from __future__ import annotations

import numpy as np

from avcmd.encoding import CHANNEL_ORDER, channel_mean_distance, cross_gram, multichannel_gram
from avcmd.svm import BinarySolution, KernelSvmModel


def smo_binary(gram: np.ndarray, y: np.ndarray, c: float, tol: float = 1e-3,
               max_iter: int = 10_000) -> BinarySolution:
    n = y.shape[0]
    alpha = np.zeros(n)
    f = np.zeros(n)
    eps = 1e-12
    it = 0
    for it in range(1, max_iter + 1):
        vals = y - f
        up = ((y > 0) & (alpha < c - eps)) | ((y < 0) & (alpha > eps))
        low = ((y < 0) & (alpha < c - eps)) | ((y > 0) & (alpha > eps))
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(vals[up])])
        j = int(np.flatnonzero(low)[np.argmin(vals[low])])
        if vals[i] - vals[j] < tol:
            break

        eta = gram[i, i] + gram[j, j] - 2.0 * gram[i, j]
        if eta <= 0:
            eta = 1e-12
        a_j_old, a_i_old = alpha[j], alpha[i]
        if y[i] != y[j]:
            lo = max(0.0, a_j_old - a_i_old)
            hi = min(c, c + a_j_old - a_i_old)
        else:
            lo = max(0.0, a_i_old + a_j_old - c)
            hi = min(c, a_i_old + a_j_old)
        e_i = f[i] - y[i]
        e_j = f[j] - y[j]
        a_j = np.clip(a_j_old + y[j] * (e_i - e_j) / eta, lo, hi)
        a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
        alpha[i], alpha[j] = a_i, a_j
        f += gram[:, i] * (y[i] * (a_i - a_i_old)) + gram[:, j] * (y[j] * (a_j - a_j_old))

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
    return BinarySolution(support=support, coef=alpha[support] * y[support], bias=bias, iterations=it)


def train_kernel_svm(gram: np.ndarray, labels: np.ndarray, c: float, tol: float = 1e-3,
                     max_iter: int = 10_000) -> KernelSvmModel:
    """One `smo_binary` problem per class, one after another."""
    g = np.asarray(gram, dtype=np.float64)
    classes = np.unique(labels)
    solutions = [
        smo_binary(g, np.where(labels == cls, 1.0, -1.0), c, tol=tol, max_iter=max_iter) for cls in classes
    ]
    return KernelSvmModel(classes=classes, solutions=solutions, n_train=g.shape[0], c=c)


def loo_folds(dists: dict, labels: np.ndarray, channels: tuple = CHANNEL_ORDER):
    """(held-out index, fold Gram, fold labels, held-out kernel row) per fold."""
    n = labels.shape[0]
    for i in range(n):
        keep = np.arange(n) != i
        fold_dists = {ch: dists[ch][np.ix_(keep, keep)] for ch in channels}
        means = {ch: channel_mean_distance(d) for ch, d in fold_dists.items()}
        gram = multichannel_gram(fold_dists, means)
        row = cross_gram({ch: dists[ch][i, keep][None, :] for ch in channels}, means)
        yield i, gram, labels[keep], row


def evaluate_loo_bovw(dists: dict, labels: np.ndarray, channels: tuple = CHANNEL_ORDER,
                      c: float = 100.0) -> float:
    """Leave-one-out accuracy, one fold trained and predicted at a time."""
    labels = np.asarray(labels)
    correct = 0
    for i, gram, fold_labels, row in loo_folds(dists, labels, channels):
        if train_kernel_svm(gram, fold_labels, c).predict(row)[0].label == labels[i]:
            correct += 1
    return correct / labels.shape[0]
