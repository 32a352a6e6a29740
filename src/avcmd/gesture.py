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

    def classify_clip(self, clip: Clip) -> Prediction | None:
        """Track, encode, and predict from the clip's kernel row against the
        training histograms. None when the clip is too short to track, or when
        no trajectory survives in it and no training clip was empty either: its
        all-zero histograms then match nothing the model has seen."""
        if len(clip.frames) < self.tracker.traj_len + 1:
            return None
        descs = extract_channel_descriptors(clip, self.tracker)
        hists = {ch: bovw_encode(descs[ch], cb) for ch, cb in self.codebooks.items()}
        if not self._knows_empty and not any(h.counts.any() for h in hists.values()):
            return None
        dists = {
            ch: chi2_cross_matrix(hists[ch].l1_normalized()[None, :], train_l1)
            for ch, train_l1 in self._train_l1.items()
        }
        return self.model.predict(cross_gram(dists, self.model.channel_means))[0]

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
    model = train_bovw_model(hists, labels, c, codebooks)
    return GesturePipeline(codebooks=codebooks, model=model, tracker=tracker)


def train_codebooks(
    per_clip_descriptors: list[dict[Channel, np.ndarray]],
    k: int,
    seed: int,
    subsample: int = DESCRIPTOR_SUBSAMPLE,
) -> dict[Channel, Codebook]:
    """One codebook per channel on the pooled descriptors; channel i uses seed + i.

    Every clip's rows are stacked, 0-row clips included, so an empty pool
    reaches `train_codebook`'s refusal. Each pool is stacked straight into
    float64, the dtype k-means runs in, so `train_codebook` keeps it without a
    second copy.
    """
    if not per_clip_descriptors:
        raise InvalidParameterError("no clips to learn codebooks from")
    return {
        ch: train_codebook(
            np.vstack([d[ch] for d in per_clip_descriptors], dtype=np.float64),
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
    hists: dict[Channel, np.ndarray], labels, c: float, codebooks: dict[Channel, Codebook]
) -> KernelSvmModel:
    """The multichannel chi-square kernel SVM on training count histograms,
    each channel's K that of its codebook. The model keeps the histograms, the
    channel means and the codebook hashes that prediction needs.
    """
    for ch, h in hists.items():
        if ch in codebooks and h.shape[1] != codebooks[ch].k:
            raise InvalidParameterError(f"{ch.name} histograms have {h.shape[1]} bins, its codebook {codebooks[ch].k}")
    dists = chi2_distances(hists)
    means = {ch: channel_mean_distance(d) for ch, d in dists.items()}
    return train_kernel_svm(
        multichannel_gram(dists, means),
        np.asarray(labels),
        c=c,
        train_hists=hists,
        channel_means=means,
        codebook_hashes={ch: cb.content_hash() for ch, cb in codebooks.items()},
    )


def evaluate_loo_bovw(dists: dict[Channel, np.ndarray], labels: np.ndarray, c: float = DEFAULT_C) -> float:
    """Leave-one-clip-out accuracy from precomputed chi-square distances over
    the channels that key `dists`.

    Channel normalizers and the SVM are re-trained per fold on the held-in
    samples only; the codebooks behind `dists` were learned once on the full
    descriptor pool, which is the usual vocabulary treatment. Every fold's
    one-against-all problems are solved together by `train_kernel_svms`, on
    the stacked fold Grams (21.6 MB of float64 for a 7 x 20 corpus); each
    fold's model is the one `train_kernel_svm` fits on that fold alone.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    grams = np.empty((n, n - 1, n - 1))
    fold_labels, rows = [], []
    for i in range(n):
        keep = np.arange(n) != i
        fold_dists = {ch: d[np.ix_(keep, keep)] for ch, d in dists.items()}
        means = {ch: channel_mean_distance(d) for ch, d in fold_dists.items()}
        grams[i] = multichannel_gram(fold_dists, means)
        fold_labels.append(labels[keep])
        rows.append(cross_gram({ch: d[i, keep][None, :] for ch, d in dists.items()}, means))
    models = train_kernel_svms(grams, fold_labels, c=c)
    return sum(m.predict(row)[0].label == label for m, row, label in zip(models, rows, labels.tolist())) / n
