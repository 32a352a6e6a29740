from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import reference_encoding as ref
from conftest import traced_peak
from avcmd.encoding import (
    CHANNEL_ORDER,
    Channel,
    channel_mean_distance,
    chi2_distance_matrix,
    train_codebook,
)
from avcmd.errors import InvalidParameterError, PipelineMismatchError
from avcmd.frames import Clip, GrayFrame, Modality
from avcmd.gesture import (
    GesturePipeline,
    _l1_rows,
    channel_matrices,
    chi2_distances,
    encode_corpus,
    evaluate_loo_bovw,
    extract_channel_descriptors,
    train_bovw_model,
    train_codebooks,
    train_gesture_pipeline,
)
from avcmd.svm import read_model, train_kernel_svm, write_model
from avcmd.trajectories import TrajectorySet, track
from avcmd.synth import default_spec, generate_corpus, generate_gesture_clip
from avcmd.vocabulary import BACKGROUND_LABEL, Command, MotionPattern


@pytest.fixture(scope="module")
def small_corpus():
    samples = generate_corpus(clips_per_class=3, seed=77, frames=20, size=96)
    return [s.rgb for s in samples], [s.label for s in samples]


def _largest_pool(per_clip):
    """The most rows any channel pools: as `subsample`, it thins no pool."""
    return max(sum(len(d[ch]) for d in per_clip) for ch in CHANNEL_ORDER)


@pytest.fixture(scope="module")
def pipeline(small_corpus):
    clips, labels = small_corpus
    return train_gesture_pipeline(clips, labels, k=16, seed=3, c=100.0)


class TestDescriptorExtraction:
    def test_channel_shapes(self, small_corpus):
        clips, _ = small_corpus
        descs = extract_channel_descriptors(clips[0])
        assert descs[Channel.TRAJ].shape[1] == 30
        assert descs[Channel.HOG].shape[1] == 96
        assert descs[Channel.HOF].shape[1] == 108
        assert descs[Channel.MBH].shape[1] == 192
        counts = {ch: d.shape[0] for ch, d in descs.items()}
        assert len(set(counts.values())) == 1  # one row per trajectory everywhere


    def test_channel_matrices_stack_trajectory_rows(self, small_corpus):
        clips, _ = small_corpus
        trajs = track(clips[1]).trajectories
        mats = channel_matrices(trajs)
        for ch, attr in zip(CHANNEL_ORDER, ("traj", "hog", "hof", "mbh")):
            assert np.array_equal(mats[ch], np.stack([getattr(t, attr) for t in trajs]))
        assert all(np.shares_memory(m, trajs.desc) for m in mats.values())
        empty = channel_matrices(TrajectorySet.empty())
        assert {ch: m.shape for ch, m in empty.items()} == {
            Channel.TRAJ: (0, 30), Channel.HOG: (0, 96), Channel.HOF: (0, 108), Channel.MBH: (0, 192)
        }
        assert all(m.dtype == np.float32 for m in (*mats.values(), *empty.values()))


class TestTrainingRecipe:
    """The shared codebook and kernel-SVM training equals the written-out recipe."""

    def _corpus(self, n=24, seed=6):
        rng = np.random.default_rng(seed)
        per_clip = [
            {ch: rng.normal(size=(int(rng.integers(0, 9)), 3 + int(ch))) for ch in CHANNEL_ORDER}
            for _ in range(n)
        ]
        for d in per_clip[:2]:
            for ch in CHANNEL_ORDER:
                d[ch] = rng.normal(size=(8, 3 + int(ch)))
        return per_clip, np.arange(n) % 4

    def test_codebooks_use_seed_plus_channel_offset(self):
        per_clip, _ = self._corpus()
        books = train_codebooks(per_clip, k=5, seed=11, subsample=40)
        for offset, ch in enumerate(CHANNEL_ORDER):
            pool = np.vstack([d[ch] for d in per_clip if d[ch].shape[0]])
            want = train_codebook(pool, k=5, seed=11 + offset, channel=ch, subsample=40)
            assert books[ch].content_hash() == want.content_hash()

    def test_a_pool_without_rows_is_refused(self):
        # the 0-row clips were filtered out, and vstack of nothing raised ValueError
        per_clip, _ = self._corpus()
        empty = [{ch: d[ch][:0] for ch in CHANNEL_ORDER} for d in per_clip]
        with pytest.raises(InvalidParameterError, match="need at least 5 descriptors, got 0"):
            train_codebooks(empty, k=5, seed=0)
        with pytest.raises(InvalidParameterError, match="no clips"):
            train_codebooks([], k=5, seed=0)

    def test_histograms_of_another_width_than_their_codebook_refused(self):
        per_clip, labels = self._corpus()
        hists, books = encode_corpus(per_clip, k=5, seed=2)
        wide = {**hists, Channel.HOF: np.hstack([hists[Channel.HOF], hists[Channel.HOF]])}
        with pytest.raises(InvalidParameterError, match="HOF histograms have 10 bins, its codebook 5"):
            train_bovw_model(wide, labels, 10.0, books)

    def test_each_pool_is_held_once_in_float64(self):
        # 16 separated blobs, so k-means converges in a few iterations.
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(16, 64)) * 20.0
        per_clip = [
            {ch: (centers[rng.integers(16, size=500)] + rng.normal(size=(500, 64))).astype(np.float32)
             for ch in CHANNEL_ORDER}
            for _ in range(40)
        ]
        pool_bytes = 40 * 500 * 64 * 8
        peak = traced_peak(lambda: train_codebooks(per_clip, k=16, seed=0))
        assert peak < 1.75 * pool_bytes

    def test_bovw_model_equals_written_out_recipe(self):
        per_clip, labels = self._corpus()
        hists, books = encode_corpus(per_clip, k=5, seed=2, subsample=_largest_pool(per_clip))
        for offset, ch in enumerate(CHANNEL_ORDER):
            # the whole pool, as the oracle's subsample=None clusters it
            pool = np.vstack([d[ch] for d in per_clip if d[ch].shape[0]])
            assert np.array_equal(books[ch].centroids, ref.train_codebook(pool, k=5, seed=2 + offset).centroids)
        dists = chi2_distances(hists)
        old_dists = {ch: ref.chi2_distance_matrix(_l1_rows(hists[ch])) for ch in CHANNEL_ORDER}
        assert all(np.array_equal(dists[ch], old_dists[ch]) for ch in CHANNEL_ORDER)
        means = {ch: channel_mean_distance(d) for ch, d in old_dists.items()}
        want = train_kernel_svm(
            ref.multichannel_gram(old_dists, means),
            labels,
            c=10.0,
            train_hists=hists,
            channel_means=means,
            codebook_hashes={ch: cb.content_hash() for ch, cb in books.items()},
        )
        got = train_bovw_model(hists, list(labels), 10.0, books)
        assert got.channel_means == want.channel_means
        assert got.codebook_hashes == want.codebook_hashes
        assert np.array_equal(got.classes, want.classes)
        for a, b in zip(got.solutions, want.solutions):
            assert np.array_equal(a.support, b.support)
            assert np.array_equal(a.coef, b.coef)
            assert a.bias == b.bias and a.iterations == b.iterations


class TestPipeline:
    def test_training_accuracy_on_train_set(self, pipeline, small_corpus):
        clips, labels = small_corpus
        correct = 0
        for clip, label in zip(clips, labels):
            pred = pipeline.classify_clip(clip)
            correct += int(pred.label == label)
        assert correct / len(clips) >= 0.9

    def test_background_rejection_in_2best(self, pipeline):
        bg = generate_gesture_clip(default_spec(MotionPattern.BACKGROUND), seed=901, frames=20)
        pred = pipeline.classify_clip(bg.rgb)
        assert pred.label == BACKGROUND_LABEL
        assert pipeline.command_2best(pred) is None

    def test_command_2best_excludes_background(self, pipeline, small_corpus):
        clips, labels = small_corpus
        idx = labels.index(int(Command.HALT))
        pred = pipeline.classify_clip(clips[idx])
        two = pipeline.command_2best(pred)
        assert two is not None and len(two) == 2
        assert all(cmd != BACKGROUND_LABEL for cmd, _ in two)
        assert two[0][1] >= two[1][1]

    def test_too_short_clip_returns_none(self, pipeline, small_corpus):
        clips, _ = small_corpus
        assert pipeline.classify_clip(clips[0].subclip(0, 10)) is None

    def test_clip_without_trajectories(self, pipeline, small_corpus):
        # 16 static 8x8 frames: long enough to track, but nothing moves and no
        # tube fits, so every histogram is zero.
        frame = GrayFrame.from_array(np.arange(64, dtype=np.uint8).reshape(8, 8))
        clip = Clip(frames=(frame,) * 16, fps=15.0, modality=Modality.RGB)
        assert len(track(clip).trajectories) == 0
        # The corpus's background clips keep no trajectory either, so this
        # model knows the empty pattern as background.
        assert pipeline.classify_clip(clip).label == BACKGROUND_LABEL
        # Trained without them, a model has no evidence for an empty clip.
        labels = np.asarray(small_corpus[1])
        keep = labels != BACKGROUND_LABEL
        hists = {ch: h[keep] for ch, h in pipeline.model.train_hists.items()}
        model = train_bovw_model(hists, labels[keep], 100.0, pipeline.codebooks)
        assert GesturePipeline(pipeline.codebooks, model, pipeline.tracker).classify_clip(clip) is None

    def test_clips_without_trajectories_or_no_clips_are_refused(self):
        frame = GrayFrame.from_array(np.arange(64, dtype=np.uint8).reshape(8, 8))
        clip = Clip(frames=(frame,) * 16, fps=15.0, modality=Modality.RGB)
        with pytest.raises(InvalidParameterError, match="need at least 2 descriptors, got 0"):
            train_gesture_pipeline([clip, clip], [0, 1], k=2)
        with pytest.raises(InvalidParameterError, match="no clips"):
            train_gesture_pipeline([], [], k=2)

    def test_model_round_trip_preserves_predictions(self, pipeline, small_corpus, tmp_path):
        clips, _ = small_corpus
        path = tmp_path / "model.igsv"
        write_model(path, pipeline.model)
        model2 = read_model(path)
        restored = GesturePipeline(
            codebooks=pipeline.codebooks, model=model2, tracker=pipeline.tracker
        )
        p1 = pipeline.classify_clip(clips[0])
        p2 = restored.classify_clip(clips[0])
        assert p1.label == p2.label
        np.testing.assert_allclose(p1.scores, p2.scores, atol=1e-5)

    def test_mismatched_codebooks_refused(self, pipeline, small_corpus):
        clips, labels = small_corpus
        other = train_gesture_pipeline(clips, labels, k=8, seed=99, c=10.0)
        with pytest.raises(PipelineMismatchError):
            GesturePipeline(
                codebooks=other.codebooks, model=pipeline.model, tracker=pipeline.tracker
            )

    def test_codebooks_of_another_channel_set_refused(self, pipeline):
        # a model whose hash table lacked a channel used to skip its check
        books, model = pipeline.codebooks, pipeline.model
        fewer = {ch: cb for ch, cb in books.items() if ch != Channel.HOF}
        with pytest.raises(PipelineMismatchError, match="HOF"):
            GesturePipeline(codebooks=fewer, model=model)
        hashes = {ch: h for ch, h in model.codebook_hashes.items() if ch != Channel.MBH}
        with pytest.raises(PipelineMismatchError, match="MBH"):
            GesturePipeline(codebooks=books, model=replace(model, codebook_hashes=hashes))
        with pytest.raises(PipelineMismatchError, match="TRAJ, HOG, HOF, MBH"):
            GesturePipeline(codebooks=books, model=replace(model, codebook_hashes={}))


class TestLooEvaluation:
    def test_single_channel_subset(self, small_corpus):
        clips, labels = small_corpus
        per_clip = [extract_channel_descriptors(c) for c in clips]
        hists, _ = encode_corpus(per_clip, k=12, seed=5, subsample=_largest_pool(per_clip))
        dists = {ch: chi2_distance_matrix(_l1_rows(hists[ch])) for ch in CHANNEL_ORDER}
        acc_comb = evaluate_loo_bovw(dists, np.asarray(labels), c=100.0)
        acc_hof = evaluate_loo_bovw({Channel.HOF: dists[Channel.HOF]}, np.asarray(labels), c=100.0)
        assert 0.0 <= acc_hof <= 1.0
        assert 0.0 <= acc_comb <= 1.0

    def test_default_c_not_beaten_by_smaller_values(self, small_corpus):
        # the shipped default C=100 must hold up against C in {1, 10} on the
        # same synthetic split
        clips, labels = small_corpus
        per_clip = [extract_channel_descriptors(c) for c in clips]
        hists, _ = encode_corpus(per_clip, k=12, seed=5, subsample=_largest_pool(per_clip))
        dists = {ch: chi2_distance_matrix(_l1_rows(hists[ch])) for ch in CHANNEL_ORDER}
        labels = np.asarray(labels)
        acc = {c: evaluate_loo_bovw(dists, labels, c=c) for c in (1.0, 10.0, 100.0)}
        assert acc[100.0] >= acc[1.0]
        assert acc[100.0] >= acc[10.0]
