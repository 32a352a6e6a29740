"""End-to-end gesture classification pipeline.

Wires the stages together: dense-trajectory extraction, per-channel BoVW
encoding against trained codebooks, chi-square distances with per-channel
mean normalizers, and a one-against-all kernel SVM on the resulting Gram
matrix. The trained bundle carries everything prediction needs, including
codebook content hashes so mismatched artifacts are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import (
    CHANNEL_ORDER,
    DESCRIPTOR_SUBSAMPLE,
    BovwHist,
    Channel,
    Codebook,
    _l1_rows,
    bovw_encode,
    channel_mean_distance,
    chi2_cross_matrix,
    chi2_distance_matrix,
    cross_gram,
    multichannel_gram,
    train_codebook,
)
from .errors import InvalidParameterError, PipelineMismatchError
from .frames import Clip
from .svm import DEFAULT_C, KernelSvmModel, Prediction, train_kernel_svm, train_kernel_svms
from .trajectories import TrackerParams, TrajectorySet, track
from .vocabulary import BACKGROUND_LABEL

# Fold Grams stacked into one batched SMO solve; a 7 x 20 corpus (21.6 MB of
# float64 fold Grams) is one batch, and larger corpora stay at O(n^2) memory.
LOO_BATCH_BYTES = 32 << 20


def channel_matrices(trajectories: TrajectorySet) -> dict[Channel, np.ndarray]:
    """Per-channel descriptor matrices: column views of the set (possibly 0-row)."""
    return {ch: getattr(trajectories, ch.name.lower()) for ch in CHANNEL_ORDER}


def extract_channel_descriptors(
    clip: Clip, params: TrackerParams = TrackerParams()
) -> dict[Channel, np.ndarray]:
    """Per-channel descriptor matrices for one clip (possibly 0-row)."""
    return channel_matrices(track(clip, params).trajectories)


@dataclass
class GesturePipeline:
    codebooks: dict[Channel, Codebook]
    model: KernelSvmModel
    tracker: TrackerParams = field(default_factory=TrackerParams)

    def __post_init__(self):
        have = {ch: cb.content_hash() for ch, cb in self.codebooks.items()}
        bad = [ch.name for ch in CHANNEL_ORDER if have.get(ch) != self.model.codebook_hashes.get(ch)]
        if bad:
            raise PipelineMismatchError(f"codebook vocabulary does not match the model's for {', '.join(bad)}")
        self._train_l1 = {ch: _l1_rows(h) for ch, h in self.model.train_hists.items()}
        # Whether some training clip kept no trajectory, as the synthetic
        # background clips do: then an empty clip is a pattern the model knows.
        self._knows_empty = any(not h.any(axis=1).all() for h in self._train_l1.values())

    def encode_clip(self, clip: Clip) -> dict[Channel, BovwHist]:
        descs = extract_channel_descriptors(clip, self.tracker)
        return {ch: bovw_encode(descs[ch], cb) for ch, cb in self.codebooks.items()}

    def kernel_rows(self, hists: dict[Channel, BovwHist]) -> np.ndarray:
        dists = {}
        for ch, train_l1 in self._train_l1.items():
            if ch not in hists:
                raise InvalidParameterError(f"missing channel {ch.name}")
            test_l1 = hists[ch].l1_normalized()[None, :]
            dists[ch] = chi2_cross_matrix(test_l1, train_l1)
        return cross_gram(dists, self.model.channel_means)

    def classify_hists(self, hists: dict[Channel, BovwHist]) -> Prediction:
        return self.model.predict(self.kernel_rows(hists))[0]

    def classify_clip(self, clip: Clip) -> Prediction | None:
        """None when the clip is too short to track, or when no trajectory
        survives in it and no training clip was empty either: its all-zero
        histograms then match nothing the model has seen."""
        if len(clip.frames) < self.tracker.traj_len + 1:
            return None
        hists = self.encode_clip(clip)
        if not self._knows_empty and not any(h.counts.any() for h in hists.values()):
            return None
        return self.classify_hists(hists)

    def command_2best(self, prediction: Prediction) -> list[tuple[int, float]] | None:
        """Top-2 command hypotheses; None when the clip looks like background."""
        if prediction.label == BACKGROUND_LABEL:
            return None
        classes = self.model.classes
        keep = classes != BACKGROUND_LABEL
        order = np.lexsort((classes[keep], -prediction.scores[keep]))
        kept_classes = classes[keep]
        kept_scores = prediction.scores[keep]
        return [(int(kept_classes[i]), float(kept_scores[i])) for i in order[:2]]


def train_gesture_pipeline(
    clips: list[Clip],
    labels: list[int],
    k: int = 64,
    seed: int = 0,
    c: float = DEFAULT_C,
    tracker: TrackerParams = TrackerParams(),
    subsample: int = DESCRIPTOR_SUBSAMPLE,
) -> GesturePipeline:
    if len(clips) != len(labels):
        raise InvalidParameterError("clip and label counts differ")
    per_clip = [extract_channel_descriptors(cl, tracker) for cl in clips]
    hists, codebooks = encode_corpus(per_clip, k=k, seed=seed, subsample=subsample)
    model = train_bovw_model(hists, chi2_distances(hists), labels, c, codebooks)
    return GesturePipeline(codebooks=codebooks, model=model, tracker=tracker)


def train_codebooks(
    per_clip_descriptors: list[dict[Channel, np.ndarray]],
    k: int,
    seed: int,
    subsample: int = DESCRIPTOR_SUBSAMPLE,
) -> dict[Channel, Codebook]:
    """One codebook per channel on the pooled descriptors; channel i uses seed + i.

    Each pool is stacked straight into float64, the dtype k-means runs in, so
    `train_codebook` keeps it without a second copy.
    """
    return {
        ch: train_codebook(
            np.vstack([d[ch] for d in per_clip_descriptors if d[ch].shape[0]], dtype=np.float64),
            k=k,
            seed=seed + offset,
            channel=ch,
            subsample=subsample,
        )
        for offset, ch in enumerate(CHANNEL_ORDER)
    }


def encode_corpus(
    per_clip_descriptors: list[dict[Channel, np.ndarray]],
    k: int,
    seed: int,
    subsample: int = DESCRIPTOR_SUBSAMPLE,
) -> tuple[dict[Channel, np.ndarray], dict[Channel, Codebook]]:
    """Train per-channel codebooks on the pool and encode every clip."""
    codebooks = train_codebooks(per_clip_descriptors, k, seed, subsample)
    hists = {
        ch: np.stack([bovw_encode(d[ch], cb).counts for d in per_clip_descriptors])
        for ch, cb in codebooks.items()
    }
    return hists, codebooks


def chi2_distances(hists: dict[Channel, np.ndarray]) -> dict[Channel, np.ndarray]:
    """Per-channel pairwise chi-square distances of L1-normalized count rows."""
    return {ch: chi2_distance_matrix(_l1_rows(h)) for ch, h in hists.items()}


def train_bovw_model(
    hists: dict[Channel, np.ndarray],
    dists: dict[Channel, np.ndarray],
    labels,
    c: float,
    codebooks: dict[Channel, Codebook],
) -> KernelSvmModel:
    """The multichannel chi-square kernel SVM on training count histograms.

    `dists` is `chi2_distances(hists)`; the model keeps the histograms, the
    channel means and the codebook hashes that prediction needs.
    """
    means = {ch: channel_mean_distance(d) for ch, d in dists.items()}
    return train_kernel_svm(
        multichannel_gram(dists, means),
        np.asarray(labels),
        c=c,
        train_hists=hists,
        channel_means=means,
        codebook_hashes={ch: cb.content_hash() for ch, cb in codebooks.items()},
    )


def evaluate_loo_bovw(
    dists: dict[Channel, np.ndarray],
    labels: np.ndarray,
    channels: tuple[Channel, ...] = CHANNEL_ORDER,
    c: float = DEFAULT_C,
) -> float:
    """Leave-one-clip-out accuracy from precomputed chi-square distances.

    Channel normalizers and the SVM are re-trained per fold on the held-in
    samples only; the codebooks behind `dists` were learned once on the full
    descriptor pool, which is the usual vocabulary treatment. The folds'
    Grams are stacked, up to `LOO_BATCH_BYTES` at a time, and every fold's
    one-against-all problems are solved together by `train_kernel_svms`;
    each fold's model is the one `train_kernel_svm` fits on that fold alone.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    per_batch = max(1, LOO_BATCH_BYTES // (8 * max(n - 1, 1) ** 2))
    correct = 0
    for start in range(0, n, per_batch):
        folds = range(start, min(n, start + per_batch))
        grams = np.empty((len(folds), n - 1, n - 1))
        fold_labels, rows = [], []
        for slot, i in enumerate(folds):
            keep = np.arange(n) != i
            fold_dists = {ch: dists[ch][np.ix_(keep, keep)] for ch in channels}
            means = {ch: channel_mean_distance(d) for ch, d in fold_dists.items()}
            grams[slot] = multichannel_gram(fold_dists, means)
            fold_labels.append(labels[keep])
            rows.append(cross_gram({ch: dists[ch][i, keep][None, :] for ch in channels}, means))
        models = train_kernel_svms(grams, fold_labels, c=c)
        for i, model, row in zip(folds, models, rows):
            if model.predict(row)[0].label == labels[i]:
                correct += 1
    return correct / n
