from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import reference_svm as ref
from conftest import traced_peak
from avcmd import svm
from avcmd.encoding import CHANNEL_ORDER, Channel, chi2_distance_matrix
from avcmd.gesture import GesturePipeline, _l1_rows, evaluate_loo_bovw
from avcmd.errors import (
    AvcmdError,
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    UnsupportedVersionError,
)
from avcmd.svm import (
    KernelSvmModel,
    Prediction,
    read_model,
    train_kernel_svm,
    train_kernel_svms,
    write_model,
)


def separable_points(rng, n_per=20, gap=4.0):
    a = rng.normal(size=(n_per, 2)) + [-gap, 0.0]
    b = rng.normal(size=(n_per, 2)) + [gap, 0.0]
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def _tables(n_train, channels=(Channel.HOG, Channel.HOF), seed=0):
    """`train_kernel_svm`'s tables over one channel set: integer training
    counts, positive channel means and one digest per channel."""
    rng = np.random.default_rng(seed)
    return {
        "train_hists": {ch: rng.integers(0, 6, size=(n_train, 3)).astype(np.float64) for ch in channels},
        "channel_means": {ch: 0.4 + 0.1 * i for i, ch in enumerate(channels)},
        "codebook_hashes": {ch: f"{int(ch) + 10:02x}" * 32 for ch in channels},
    }


class TestKernelSvm:
    def test_separable_training_accuracy_100(self, rng):
        x, y = separable_points(rng)
        gram = x @ x.T
        model = train_kernel_svms(gram[None], [y], c=10.0)[0]
        preds = model.predict(gram)
        assert all(p.label == t for p, t in zip(preds, y))

    def test_duplicated_training_set_same_argmax(self, rng):
        x, y = separable_points(rng, n_per=12)
        probe = rng.normal(size=(15, 2)) * 3.0
        gram = x @ x.T
        model1 = train_kernel_svms(gram[None], [y], c=5.0)[0]
        labels1 = [p.label for p in model1.predict(probe @ x.T)]

        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        model2 = train_kernel_svms((x2 @ x2.T)[None], [y2], c=5.0)[0]
        labels2 = [p.label for p in model2.predict(probe @ x2.T)]
        assert labels1 == labels2

    def test_kkt_conditions_hold_after_training(self, rng):
        x, y01 = separable_points(rng, n_per=15, gap=2.0)
        gram = x @ x.T
        c = 5.0
        model = train_kernel_svms(gram[None], [y01], c=c)[0]
        for cls_idx, cls in enumerate(model.classes):
            y = np.where(y01 == cls, 1.0, -1.0)
            sol = model.solutions[cls_idx]
            alpha = np.zeros(len(y))
            alpha[sol.support] = sol.coef * y[sol.support]
            assert np.all(alpha >= -1e-9) and np.all(alpha <= c + 1e-9)
            f = gram @ (alpha * y) + sol.bias
            margin = y * f
            slack = 2e-3
            free = (alpha > 1e-6) & (alpha < c - 1e-6)
            assert np.all(margin[alpha < 1e-6] >= 1.0 - slack)
            assert np.all(margin[alpha > c - 1e-6] <= 1.0 + slack)
            assert np.all(np.abs(margin[free] - 1.0) <= slack)

    def test_single_class_rejected(self):
        gram = np.eye(4)
        with pytest.raises(DegenerateInputError):
            train_kernel_svms(gram[None], [np.zeros(4, dtype=int)])

    def test_asymmetric_gram_rejected(self, rng):
        gram = rng.normal(size=(6, 6))
        with pytest.raises(InvalidParameterError):
            train_kernel_svms(gram[None], [np.array([0, 0, 0, 1, 1, 1])])

    def test_symmetry_check_copies_no_stack(self):
        # comparing the whole (G, n, n) stack with its transpose peaked at 2.1x its bytes
        labels = np.repeat(np.arange(4), 20)
        folds = list(ref.loo_folds(_bovw_dists(np.random.default_rng(7), labels), labels))
        grams = np.stack([gram for _, gram, _, _ in folds])
        assert grams.shape == (80, 79, 79)
        peak = traced_peak(lambda: train_kernel_svms(grams, [lab for _, _, lab, _ in folds], c=100.0))
        assert peak < 1.5 * grams.nbytes

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": -1.0},
            {"c": 0.0},
            {"c": float("nan")},
            {"c": float("inf")},
            {"c": -float("inf")},
        ],
    )
    def test_bad_solver_parameters_rejected(self, rng, kwargs):
        x, y = separable_points(rng, n_per=4)
        with pytest.raises(InvalidParameterError):
            train_kernel_svm(x @ x.T, y, **kwargs, **_tables(8))
        with pytest.raises(InvalidParameterError):
            train_kernel_svms((x @ x.T)[None], [y], **kwargs)

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_gram_rejected(self, rng, bad):
        x, y = separable_points(rng, n_per=4)
        gram = x @ x.T
        gram[2, 5] = gram[5, 2] = bad
        for train in (lambda: train_kernel_svm(gram, y, **_tables(8)), lambda: train_kernel_svms(gram[None], [y])):
            with pytest.raises(InvalidParameterError, match="non-finite"):
                train()

    def test_stack_shape_and_label_count_checked(self, rng):
        x, y = separable_points(rng, n_per=4)
        gram = x @ x.T
        with pytest.raises(InvalidParameterError):
            train_kernel_svms(gram, [y])  # not a stack
        with pytest.raises(InvalidParameterError):
            train_kernel_svms(np.stack([gram, gram]), [y])  # one label set for two Grams
        with pytest.raises(InvalidParameterError):
            train_kernel_svms(gram[None], [y[:-1]])
        with pytest.raises(DegenerateInputError):
            train_kernel_svms(np.stack([gram, gram]), [y, np.zeros_like(y)])

    def test_every_class_has_a_support_vector(self, rng):
        x, y = separable_points(rng)
        model = train_kernel_svms((x @ x.T)[None], [y], c=10.0)[0]
        assert all(sol.support.size >= 1 for sol in model.solutions)

    def test_multiclass_three_blobs(self, rng):
        centers = np.array([[-6.0, 0.0], [6.0, 0.0], [0.0, 7.0]])
        xs, ys = [], []
        for cls, ctr in enumerate(centers):
            xs.append(rng.normal(size=(15, 2)) * 0.6 + ctr)
            ys.extend([cls] * 15)
        x = np.vstack(xs)
        y = np.asarray(ys)
        gram = np.exp(-0.1 * ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
        model = train_kernel_svms(gram[None], [y], c=10.0)[0]
        preds = model.predict(gram)
        assert np.mean([p.label == t for p, t in zip(preds, y)]) == 1.0


class TestPrediction:
    def _model(self, scores):
        class Fake:
            classes = np.arange(len(scores))

            def predict(self, x):
                from avcmd.svm import _argmax_prediction

                return [_argmax_prediction(self.classes, np.asarray(scores, dtype=float))]

        return Fake()

    def test_argmax(self):
        pred = self._model([0.2, 1.7, -0.3]).predict(np.zeros((1, 1)))[0]
        assert pred.label == 1
        assert not pred.tie

    def test_all_equal_scores_tie_to_lowest(self):
        pred = self._model([0.5, 0.5, 0.5]).predict(np.zeros((1, 1)))[0]
        assert pred.label == 0
        assert pred.tie

    def test_argmax_invariant_to_constant_shift(self, rng):
        scores = rng.normal(size=5)
        p1 = self._model(list(scores)).predict(np.zeros((1, 1)))[0]
        p2 = self._model(list(scores + 123.0)).predict(np.zeros((1, 1)))[0]
        assert p1.label == p2.label

    def test_nbest_ordering_and_tiebreak(self):
        classes = np.array([0, 1, 2, 3])
        pred = Prediction(label=2, scores=np.array([0.1, 0.9, 0.9, -1.0]), tie=False)
        # The ranked hypotheses the fusion layer consumes come from command_2best.
        pipeline = SimpleNamespace(model=SimpleNamespace(classes=classes))
        assert GesturePipeline.command_2best(pipeline, pred) == [(1, 0.9), (2, 0.9)]


class TestModelIO:
    def test_kernel_model_round_trip(self, tmp_path, rng):
        x, y = separable_points(rng, n_per=8)
        tables = _tables(16)
        tables["train_hists"][Channel.HOF][3, 1] = 2.0**24  # the largest count stored
        model = train_kernel_svm(x @ x.T, y, c=3.0, **tables)
        path = tmp_path / "m.igsv"
        write_model(path, model)
        back = read_model(path)
        assert isinstance(back, KernelSvmModel)
        assert np.array_equal(back.classes, model.classes)
        assert back.n_train == model.n_train
        assert back.codebook_hashes == tables["codebook_hashes"]
        assert back.channel_means == tables["channel_means"]
        for ch, h in tables["train_hists"].items():
            assert back.train_hists[ch].dtype == np.float64 and np.array_equal(back.train_hists[ch], h)
        probe = rng.normal(size=(5, 2))
        np.testing.assert_allclose(
            back.decision_values(probe @ x.T), model.decision_values(probe @ x.T), atol=1e-6
        )

    def test_old_linear_kind_refused(self, tmp_path, rng):
        x, y = separable_points(rng, n_per=4)
        path = tmp_path / "m.igsv"
        write_model(path, train_kernel_svm(x @ x.T, y, c=3.0, **_tables(8)))
        raw = bytearray(path.read_bytes())
        assert raw[6] == 0  # the kind byte after magic and version u16
        raw[6] = 1  # the removed linear kind
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError, match="model kind 1"):
            read_model(path)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.igsv"
        p.write_bytes(b"NOPE" + b"\0" * 20)
        from avcmd.errors import BadMagicError

        with pytest.raises(BadMagicError):
            read_model(p)


# Spoiled tables, none of which a deployable model has, and the refusal's message.
_SPOILED_TABLES = {
    "no tables": (lambda t: [table.clear() for table in t.values()], "one channel set"),
    "no histogram table": (lambda t: (t["train_hists"].clear(), t["channel_means"].clear()), "one channel set"),
    "hash channels differ": (lambda t: t["codebook_hashes"].update({Channel.MBH: "ee" * 32}), "one channel set"),
    "hash channel missing": (lambda t: t["codebook_hashes"].pop(Channel.HOF), "one channel set"),
    "mean 0": (lambda t: t["channel_means"].update({Channel.HOF: 0.0}), "mean for HOF"),
    "mean -0.5": (lambda t: t["channel_means"].update({Channel.HOG: -0.5}), "mean for HOG"),
    "count -1": (lambda t: t["train_hists"][Channel.HOG].__setitem__((2, 0), -1.0), "HOG training counts"),
    "count 2.5": (lambda t: t["train_hists"][Channel.HOF].__setitem__((5, 2), 2.5), "HOF training counts"),
    "count 2**25": (lambda t: t["train_hists"][Channel.HOF].__setitem__((0, 1), 2.0**25), "HOF training counts"),
}


class TestDeployableModel:
    """The trainer and the writer refuse a model without the histograms,
    channel means and codebook hashes of one channel set."""

    def test_writer_refuses_a_bare_fit(self, tmp_path, rng):
        x, y = separable_points(rng, n_per=4)
        with pytest.raises(InvalidParameterError, match="one channel set"):
            write_model(tmp_path / "m.igsv", train_kernel_svms((x @ x.T)[None], [y], c=3.0)[0])

    @pytest.mark.parametrize("spoil, match", list(_SPOILED_TABLES.values()), ids=list(_SPOILED_TABLES))
    def test_trainer_and_writer_refuse_spoiled_tables(self, tmp_path, rng, spoil, match):
        x, y = separable_points(rng, n_per=4)
        tables = _tables(8)
        model = train_kernel_svm(x @ x.T, y, c=3.0, **tables)
        spoil(tables)
        with pytest.raises(InvalidParameterError, match=match):
            train_kernel_svm(x @ x.T, y, c=3.0, **tables)
        with pytest.raises(InvalidParameterError, match=match):
            write_model(tmp_path / "m.igsv", replace(model, **tables))

    @pytest.mark.parametrize("count", [2.0**24 + 1, 2.0**24 + 2])
    def test_writer_refuses_counts_float32_does_not_store(self, tmp_path, rng, count):
        # 2**24 + 1 used to be written, and read back, as 2**24
        x, y = separable_points(rng, n_per=4)
        model = train_kernel_svm(x @ x.T, y, c=3.0, **_tables(8))
        model.train_hists[Channel.HOG][1, 1] = count
        with pytest.raises(InvalidParameterError, match="float32"):
            write_model(tmp_path / "m.igsv", model)

    @pytest.mark.parametrize("digest", ["ab" * 31, "zz" * 32, "AB" * 32], ids=["31 bytes", "not hex", "upper case"])
    def test_trainer_and_writer_refuse_a_malformed_codebook_hash(self, tmp_path, rng, digest):
        # 31 bytes used to be written and then refused by the reader as a
        # misread channel tag, "zz" raised a bare ValueError from
        # `bytes.fromhex`, and upper case read back in lower case
        x, y = separable_points(rng, n_per=4)
        tables = _tables(8)
        model = train_kernel_svm(x @ x.T, y, c=3.0, **tables)
        tables["codebook_hashes"][Channel.HOF] = digest
        with pytest.raises(InvalidParameterError, match="hash for HOF must be 64 lowercase hex digits"):
            train_kernel_svm(x @ x.T, y, c=3.0, **tables)
        with pytest.raises(InvalidParameterError, match="hash for HOF must be 64 lowercase hex digits"):
            write_model(tmp_path / "m.igsv", replace(model, **tables))

    def test_histograms_of_another_size_refused(self, rng):
        x, y = separable_points(rng, n_per=4)
        tables = _tables(8)
        tables["train_hists"][Channel.HOG] = tables["train_hists"][Channel.HOG][:7]
        with pytest.raises(InvalidParameterError, match="n_train"):
            train_kernel_svm(x @ x.T, y, c=3.0, **tables)


class TestModelReaderRefusesWhatTrainingNeverWrites:
    """Each of these files used to read; writing it back gave other bytes, or
    `predict` failed outside the `AvcmdError` family."""

    @staticmethod
    def _model(rng, **fields):
        x, y = separable_points(rng, n_per=4)
        return replace(train_kernel_svm(x @ x.T, y, c=3.0, **_tables(8)), **fields)

    def _refused(self, path, raw, match):
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=match):
            read_model(path)

    @pytest.mark.parametrize("spoil, match", list(_SPOILED_TABLES.values()), ids=list(_SPOILED_TABLES))
    def test_spoiled_tables(self, tmp_path, rng, monkeypatch, spoil, match):
        # the bare layout and the tables below all used to read
        tables = _tables(8)
        spoil(tables)
        path = tmp_path / "m.igsv"
        with monkeypatch.context() as unchecked:
            unchecked.setattr(svm, "_check_tables", lambda *args: None)
            write_model(path, self._model(rng, **tables))
        self._refused(path, path.read_bytes(), match)

    @pytest.mark.parametrize("n_classes", [0, 1])
    def test_fewer_than_two_classes(self, tmp_path, rng, n_classes):
        # zero classes used to read, and predict then raised a ValueError
        model = self._model(rng)
        model = replace(model, classes=model.classes[:n_classes], solutions=model.solutions[:n_classes])
        path = tmp_path / "m.igsv"
        write_model(path, model)
        self._refused(path, path.read_bytes(), "fewer than two")

    @pytest.mark.parametrize("ids", [[3, 3], [4, 3]])
    def test_class_ids_not_strictly_increasing(self, tmp_path, rng, ids):
        path = tmp_path / "m.igsv"
        write_model(path, self._model(rng, classes=np.array(ids)))
        self._refused(path, path.read_bytes(), "class ids")

    @pytest.mark.parametrize("c", [-1.0, 0.0, -0.0])
    def test_c_not_positive(self, tmp_path, rng, c):
        path = tmp_path / "m.igsv"
        write_model(path, self._model(rng, c=c))
        self._refused(path, path.read_bytes(), "C must be positive")

    @pytest.mark.parametrize("second", [Channel.TRAJ, Channel.HOF])
    def test_histogram_tags_not_strictly_increasing(self, tmp_path, rng, second):
        # written HOG, HOF; read as HOF, TRAJ it was written back sorted
        path = tmp_path / "m.igsv"
        write_model(path, self._model(rng))
        raw = bytearray(path.read_bytes())
        first_tag = svm._MODEL_HEADER.size + 1 + 2 * 33 + svm._TRAIN_SET.size
        second_tag = first_tag + svm._HIST_RECORD.size + 4 * 8 * 3
        assert (raw[first_tag], raw[second_tag]) == (Channel.HOG, Channel.HOF)
        raw[first_tag], raw[second_tag] = Channel.HOF, second
        self._refused(path, raw, "histogram channel tags")

    @pytest.mark.parametrize("second", [Channel.HOG, Channel.TRAJ])
    def test_hash_tags_not_strictly_increasing(self, tmp_path, rng, second):
        path = tmp_path / "m.igsv"
        write_model(path, self._model(rng))
        raw = bytearray(path.read_bytes())
        first_tag = svm._MODEL_HEADER.size + 1
        second_tag = first_tag + 1 + 32
        assert (raw[first_tag], raw[second_tag]) == (Channel.HOG, Channel.HOF)
        raw[second_tag] = second
        self._refused(path, raw, "codebook hash channel tags")


class TestModelReaderTotality:
    """Any cut or corrupted model file reads back or raises an AvcmdError."""

    @staticmethod
    def _models(rng):
        """By model kind: IGSV stores one, the deployable kernel model. Its
        channels have neighbouring tags, so that one flipped bit can repeat a tag."""
        x, y = separable_points(rng, n_per=4)
        tables = _tables(8, channels=(Channel.HOG, Channel.HOF, Channel.MBH))
        return {"kernel": train_kernel_svm(x @ x.T, y, c=3.0, **tables)}

    @pytest.mark.parametrize("kind", ["kernel"])
    def test_every_truncation_raises(self, tmp_path, rng, kind):
        path = tmp_path / "m.igsv"
        write_model(path, self._models(rng)[kind])
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(AvcmdError):
                read_model(path)

    @pytest.mark.parametrize("kind", ["kernel"])
    def test_trailing_byte_rejected(self, tmp_path, rng, kind):
        path = tmp_path / "m.igsv"
        write_model(path, self._models(rng)[kind])
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError):
            read_model(path)

    @pytest.mark.parametrize("kind", ["kernel"])
    def test_every_byte_flip_reads_or_raises(self, tmp_path, rng, kind):
        path = tmp_path / "m.igsv"
        write_model(path, self._models(rng)[kind])
        raw = path.read_bytes()
        for pos in range(len(raw)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(raw)
                flipped[pos] ^= mask
                path.write_bytes(bytes(flipped))
                try:
                    model = read_model(path)
                except AvcmdError:
                    continue
                assert isinstance(model, KernelSvmModel)
                assert self._all_finite(model)
                assert all(int(s.support.max(initial=-1)) < model.n_train for s in model.solutions)
                write_model(path, model)
                assert path.read_bytes() == flipped  # what a read accepts is written back as it was

    @staticmethod
    def _all_finite(model) -> bool:
        numbers = [model.c, *model.train_hists.values(), *model.channel_means.values()]
        numbers += [v for s in model.solutions for v in (s.bias, s.coef)]
        return all(np.all(np.isfinite(v)) for v in numbers)

    @pytest.mark.parametrize(
        "kind, spoil",
        [
            ("kernel", lambda m: setattr(m, "c", float("nan"))),
            ("kernel", lambda m: setattr(m.solutions[0], "bias", float("nan"))),
            ("kernel", lambda m: m.solutions[1].coef.__setitem__(0, float("inf"))),
            ("kernel", lambda m: m.channel_means.__setitem__(Channel.MBH, float("inf"))),
            ("kernel", lambda m: m.train_hists[Channel.HOG].__setitem__((3, 1), float("nan"))),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, rng, monkeypatch, kind, spoil):
        model = self._models(rng)[kind]
        spoil(model)
        path = tmp_path / "m.igsv"
        with monkeypatch.context() as unchecked:  # the writer refuses the table spoils
            unchecked.setattr(svm, "_check_tables", lambda *args: None)
            write_model(path, model)
        with pytest.raises(FormatError, match="non-finite"):
            read_model(path)


def _bovw_dists(rng, labels, k=24, spread=4.0):
    """Chi-square distances of class-structured Poisson count histograms, per channel."""
    rates = rng.gamma(1.0, size=(labels.max() + 1, k))
    dists = {}
    for ch in CHANNEL_ORDER:
        noise = rng.gamma(1.0, size=(labels.size, k))
        counts = rng.poisson(spread * rates[labels] + noise).astype(np.float64)
        dists[ch] = chi2_distance_matrix(_l1_rows(counts))
    return dists


class TestBatchedSmoAgainstReference:
    """The batched solver against the scalar per-problem SMO of `reference_svm`, bit for bit."""

    @staticmethod
    def _assert_same(model, want):
        assert np.array_equal(model.classes, want.classes)
        assert model.n_train == want.n_train
        for got, exp in zip(model.solutions, want.solutions, strict=True):
            assert np.array_equal(got.support, exp.support)
            assert np.array_equal(got.coef, exp.coef)
            assert got.bias == exp.bias
            assert got.iterations == exp.iterations

    def _check_folds(self, dists, labels, c=100.0):
        folds = list(ref.loo_folds(dists, labels))
        models = train_kernel_svms(
            np.stack([gram for _, gram, _, _ in folds]), [lab for _, _, lab, _ in folds], c=c
        )
        for model, (_, gram, fold_labels, _) in zip(models, folds, strict=True):
            self._assert_same(model, ref.train_kernel_svm(gram, fold_labels, c, max_iter=svm.SMO_MAX_ITER))
        return models

    def test_offline_build_size_loo(self):
        labels = np.repeat(np.arange(7), 4)
        dists = _bovw_dists(np.random.default_rng(1), labels, spread=1.5)
        models = self._check_folds(dists, labels)
        assert sum(m.classes.size for m in models) == 28 * 7
        want = ref.evaluate_loo_bovw(dists, labels)
        assert 0.0 < want < 1.0  # some folds are wrong, so the check is not vacuous
        assert evaluate_loo_bovw(dists, labels) == want
        for ch in (Channel.HOG, Channel.MBH):
            assert evaluate_loo_bovw({ch: dists[ch]}, labels, c=10.0) == ref.evaluate_loo_bovw(
                dists, labels, channels=(ch,), c=10.0
            )

    def test_singleton_class(self):
        labels = np.concatenate([np.repeat(np.arange(4), 4), [4]])
        dists = _bovw_dists(np.random.default_rng(3), labels, spread=1.5)
        models = self._check_folds(dists, labels)
        assert sorted({m.classes.size for m in models}) == [4, 5]  # the fold without class 4
        assert evaluate_loo_bovw(dists, labels) == ref.evaluate_loo_bovw(dists, labels)

    def test_duplicated_samples(self):
        # identical samples with different labels give eta = 0 pairs
        x = np.random.default_rng(4).normal(size=(6, 2))
        x = np.vstack([x, x])
        gram = x @ x.T
        for seed in range(5):
            labels = np.random.default_rng(seed).integers(0, 3, size=12)
            labels[:3] = [0, 1, 2]
            got = train_kernel_svms(gram[None], [labels], c=10.0)[0]
            self._assert_same(got, ref.train_kernel_svm(gram, labels, 10.0))
        labels = np.repeat(np.arange(4), 3)
        dists = _bovw_dists(np.random.default_rng(5), labels)
        dup = {ch: d[np.ix_(np.r_[:12, :12], np.r_[:12, :12])] for ch, d in dists.items()}
        self._check_folds(dup, np.concatenate([labels, labels[::-1]]))

    @pytest.mark.parametrize("max_iter", [1, 3, 7])
    def test_unconverged_problems(self, monkeypatch, max_iter):
        monkeypatch.setattr(svm, "SMO_MAX_ITER", max_iter)
        labels = np.repeat(np.arange(7), 4)
        dists = _bovw_dists(np.random.default_rng(6), labels)
        models = self._check_folds(dists, labels)
        assert all(s.iterations <= max_iter for m in models for s in m.solutions)
        assert any(s.iterations == max_iter for m in models for s in m.solutions)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 60])
    @pytest.mark.parametrize("c", [0.5, 10.0, 100.0])
    def test_random_grams(self, monkeypatch, n, c):
        rng = np.random.default_rng(1000 * n + int(c))
        grams, label_sets = [], []
        for g in range(4):
            x = rng.normal(size=(n, 3))
            if g == 1:
                x[n // 2:] = x[: n - n // 2]  # duplicated samples
            gram = np.exp(-0.5 * ((x[:, None] - x[None]) ** 2).sum(-1))
            if g == 2:
                gram = gram + 1e-9 * rng.normal(size=gram.shape)  # symmetric within 1e-6 only
            labels = rng.integers(0, 2 + g % 3, size=n)
            labels[:2] = [0, 1]
            grams.append(gram)
            label_sets.append(labels)
        for max_iter in (3, 10_000):
            monkeypatch.setattr(svm, "SMO_MAX_ITER", max_iter)
            models = train_kernel_svms(np.stack(grams), label_sets, c=c)
            for model, gram, labels in zip(models, grams, label_sets, strict=True):
                self._assert_same(model, ref.train_kernel_svm(gram, labels, c, max_iter=max_iter))
