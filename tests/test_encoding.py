from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_encoding as ref
from conftest import traced_peak
from avcmd import encoding
from avcmd.encoding import (
    _ASSIGN_CHUNK,
    _SQ_NORM_BYTES,
    CHANNEL_ORDER,
    BovwHist,
    Channel,
    Codebook,
    bovw_encode,
    channel_mean_distance,
    chi2_cross_matrix,
    chi2_distance_matrix,
    cross_gram,
    multichannel_gram,
    _assign,
    _l1_rows,
    _pairwise_sq_dists,
    _sq_norms,
    read_codebook,
    read_encoded,
    train_codebook,
    write_codebook,
    write_encoded,
)
from avcmd.errors import (
    AvcmdError,
    BadMagicError,
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    TruncatedPayloadError,
)


def kmeans_inertia(x, codebook):
    """Sum of squared distances from each row to its nearest centroid."""
    d = ((np.asarray(x, dtype=np.float64)[:, None, :] - codebook.centroids.astype(np.float64)) ** 2).sum(axis=2)
    return float(d.min(axis=1).sum())


def chi2_distance(h1, h2):
    """The chi-square distance of two histograms: one entry of `chi2_cross_matrix`."""
    return float(chi2_cross_matrix(np.atleast_2d(h1), np.atleast_2d(h2))[0, 0])


def multichannel_kernel(sample_i, sample_j, channel_means):
    """exp(-sum_c D(h_i^c, h_j^c) / A_c): `cross_gram` over 1x1 chi-square distances."""
    dists = {ch: chi2_cross_matrix(h.l1_normalized()[None, :], sample_j[ch].l1_normalized()[None, :])
             for ch, h in sample_i.items()}
    return float(cross_gram(dists, channel_means)[0, 0])


class TestKmeans:
    def test_perfect_fit_when_k_equals_n(self, rng):
        x = rng.normal(size=(6, 3)) * 5.0
        cb = train_codebook(x, k=6, seed=0)
        assert kmeans_inertia(x, cb) < 1e-12
        # every point is some centroid
        for row in x:
            assert np.min(np.linalg.norm(cb.centroids.astype(float) - row, axis=1)) < 1e-5

    def test_two_blobs_recovered(self, rng):
        # oracle: closed-form blob means
        a = rng.normal(loc=(-4.0, 0.0), scale=0.05, size=(60, 2))
        b = rng.normal(loc=(5.0, 2.0), scale=0.05, size=(60, 2))
        x = np.vstack([a, b])
        cb = train_codebook(x, k=2, seed=7)
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        cents = sorted(cb.centroids.tolist(), key=lambda m: m[0])
        for m, c in zip(means, cents):
            assert np.linalg.norm(np.asarray(c) - m) < 0.1

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(100, 4))
        cb1 = train_codebook(x, k=5, seed=42)
        cb2 = train_codebook(x, k=5, seed=42)
        assert np.array_equal(cb1.centroids, cb2.centroids)

    def test_inertia_monotone_in_iteration_count(self, rng, monkeypatch):
        x = rng.normal(size=(200, 3))
        inertias = []
        for m in range(1, 9):
            monkeypatch.setattr(encoding, "KMEANS_MAX_ITER", m)
            inertias.append(kmeans_inertia(x, train_codebook(x, k=8, seed=3)))
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_n_below_k_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            train_codebook(rng.normal(size=(3, 2)), k=5, seed=0)

    def test_nan_rejected(self):
        x = np.zeros((10, 2))
        x[3, 1] = np.nan
        with pytest.raises(InvalidParameterError):
            train_codebook(x, k=2, seed=0)

    def test_subsample_keeps_determinism(self, rng):
        x = rng.normal(size=(5000, 2))
        cb1 = train_codebook(x, k=4, seed=1, subsample=500)
        cb2 = train_codebook(x, k=4, seed=1, subsample=500)
        assert np.array_equal(cb1.centroids, cb2.centroids)

    @pytest.mark.parametrize("n,subsample", [(900, 20_000), (900, 400), (3000, 3000)])
    def test_float32_pool_gives_the_float64_codebook(self, n, subsample):
        rng = np.random.default_rng(n)
        pool = (rng.normal(size=(n, 12)) * 3.0).astype(np.float32)
        got = train_codebook(pool, k=10, seed=4, subsample=subsample)
        want = train_codebook(pool.astype(np.float64), k=10, seed=4, subsample=subsample)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.content_hash() == want.content_hash()


def norm_block_rows(dim: int) -> int:
    """Rows one `_sq_norms` block holds at this descriptor width."""
    return max(1, _SQ_NORM_BYTES // (8 * dim))


class TestKmeansAgainstReference:
    """Squared norms computed once per pool give the per-call ones bit for bit."""

    DIM = 32  # a block holds 1024 rows at this width
    BLOCK = norm_block_rows(DIM)
    POOL_ROWS = (1, BLOCK - 1, BLOCK, BLOCK + 1, _ASSIGN_CHUNK + 1)

    @pytest.mark.parametrize("thin", [False, True], ids=["whole", "subsampled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", POOL_ROWS)
    def test_codebook_equals_reference(self, n, dtype, thin):
        rng = np.random.default_rng(n)
        pool = (rng.normal(size=(n, self.DIM)) * 3.0).astype(dtype)
        k = min(5, n)
        subsample = max(k, n - n // 3) if thin else n  # n thins nothing, as the oracle's None
        got = train_codebook(pool, k=k, seed=n, channel=Channel.HOF, subsample=subsample)
        want = ref.train_codebook(pool, k=k, seed=n, channel=Channel.HOF, subsample=subsample if thin else None)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.content_hash() == want.content_hash()

    @pytest.mark.parametrize("dim", [1, 2, 3, 30, 96, 192])
    def test_sq_norms_equal_whole_matrix_sums(self, dim):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(2 * norm_block_rows(dim) + 3, dim)) * 5.0
        for view in (x, np.asfortranarray(x), x[::2], x[:, ::-1]):
            assert np.array_equal(_sq_norms(view), (view * view).sum(axis=1))

    def test_distances_and_assignment_equal_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(_ASSIGN_CHUNK + 1, 11)) * 2.0
        c = rng.normal(size=(9, 11))
        x_sq = _sq_norms(x)
        assert np.array_equal(_pairwise_sq_dists(x, c, x_sq), ref.pairwise_sq_dists(x, c))
        got, want = _assign(x, c, x_sq), ref.assign(x, c)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_bovw_counts_equal_reference(self):
        rng = np.random.default_rng(8)
        cb = train_codebook(rng.normal(size=(400, 9)), k=12, seed=2)
        x = rng.normal(size=(_ASSIGN_CHUNK + 7, 9)).astype(np.float32)
        labels, _ = ref.assign(x.astype(np.float64), cb.centroids.astype(np.float64))
        assert np.array_equal(bovw_encode(x, cb).counts, np.bincount(labels, minlength=cb.k).astype(np.float64))


class TestKmeansMemory:
    def test_no_temporary_the_size_of_the_pool(self, monkeypatch):
        # A per-call (x * x) copy alone is the pool's size.
        pool = np.random.default_rng(0).normal(size=(20_000, 64))
        monkeypatch.setattr(encoding, "KMEANS_MAX_ITER", 3)
        peak = traced_peak(lambda: train_codebook(pool, k=16, seed=0))
        assert peak < 0.75 * pool.nbytes

    def test_no_temporary_near_the_size_of_a_benchmark_pool(self):
        # offline_build's mbh pool: a block of a fixed row count would be most of it.
        pool = np.random.default_rng(1).normal(size=(1480, 192))
        peak = traced_peak(lambda: train_codebook(pool, k=24, seed=0))
        assert peak < 0.4 * pool.nbytes


class TestBovw:
    def _codebook(self, centroids, channel=Channel.HOG):
        return Codebook(channel=channel, centroids=np.asarray(centroids, dtype=np.float32), seed=0)

    def test_empty_descriptor_set(self):
        cb = self._codebook([[0.0, 0.0], [1.0, 1.0]])
        hist = bovw_encode(np.empty((0, 2)), cb)
        assert np.all(hist.counts == 0)

    def test_exact_centroid_match(self):
        cb = self._codebook(np.eye(8))
        x = np.tile(np.eye(8)[7], (5, 1))
        hist = bovw_encode(x, cb)
        assert hist.counts[7] == 5
        assert hist.counts.sum() == 5

    def test_matches_exhaustive_nearest_neighbor(self, rng):
        cb = self._codebook(rng.normal(size=(3, 4)))
        x = rng.normal(size=(10, 4))
        hist = bovw_encode(x, cb)
        # oracle: brute-force scan over all (point, centroid) pairs
        expected = np.zeros(3)
        for row in x:
            dists = [float(np.sum((row - c) ** 2)) for c in cb.centroids.astype(float)]
            expected[int(np.argmin(dists))] += 1
        assert np.array_equal(hist.counts, expected)

    def test_mass_conservation(self, rng):
        cb = self._codebook(rng.normal(size=(5, 6)))
        for n in (0, 1, 17, 100):
            x = rng.normal(size=(n, 6))
            assert bovw_encode(x, cb).counts.sum() == n

    def test_dim_mismatch(self, rng):
        cb = self._codebook(rng.normal(size=(3, 4)))
        with pytest.raises(InvalidParameterError):
            bovw_encode(rng.normal(size=(5, 3)), cb)


class TestChi2:
    def test_identity(self, rng):
        h = rng.random(8)
        h /= h.sum()
        assert chi2_distance(h, h) == 0.0

    def test_disjoint_unit_histograms(self):
        assert chi2_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_equal_halves(self):
        h = np.array([0.5, 0.5])
        assert chi2_distance(h, h) == 0.0

    def test_hand_evaluated_case(self):
        a = np.array([0.5, 0.25, 0.25])
        b = np.array([0.25, 0.5, 0.25])
        # 0.5*((0.25^2/0.75) + (0.25^2/0.75) + 0) = 0.0833...
        assert math.isclose(chi2_distance(a, b), 0.5 * 2 * (0.0625 / 0.75))

    def test_symmetry(self, rng):
        a, b = rng.random(16), rng.random(16)
        a /= a.sum()
        b /= b.sum()
        assert chi2_distance(a, b) == chi2_distance(b, a)

    def test_zero_denominator_bins_skipped(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.0, 1.0])
        assert chi2_distance(a, b) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            chi2_cross_matrix(np.ones((1, 3)), np.ones((1, 4)))
        with pytest.raises(InvalidParameterError):
            chi2_cross_matrix(np.ones(3), np.ones(3))

    def test_matrix_matches_pairwise_calls(self, rng):
        h = rng.random((7, 12))
        h /= h.sum(axis=1, keepdims=True)
        m = chi2_distance_matrix(h)
        for i in range(7):
            for j in range(7):
                assert math.isclose(m[i, j], chi2_distance(h[i], h[j]), abs_tol=1e-12)


class TestMultichannelKernel:
    def _hists(self, rng, n, k=6):
        out = []
        for _ in range(n):
            sample = {}
            for ch in CHANNEL_ORDER:
                c = rng.integers(0, 10, size=k).astype(np.float64)
                sample[ch] = BovwHist(counts=c, channel=ch)
            out.append(sample)
        return out

    def test_self_kernel_is_one(self, rng):
        s = self._hists(rng, 1)[0]
        means = {ch: 0.5 for ch in CHANNEL_ORDER}
        assert multichannel_kernel(s, s, means) == 1.0

    def test_single_channel_at_mean_distance(self):
        a = {Channel.HOG: BovwHist(counts=np.array([1.0, 0.0]), channel=Channel.HOG)}
        b = {Channel.HOG: BovwHist(counts=np.array([0.0, 1.0]), channel=Channel.HOG)}
        # D = 1, A_c = 1 -> exp(-1)
        val = multichannel_kernel(a, b, {Channel.HOG: 1.0})
        assert math.isclose(val, math.exp(-1.0))

    def test_two_channels_halve_and_add_in_exponent(self):
        a = {
            Channel.HOG: BovwHist(counts=np.array([1.0, 0.0]), channel=Channel.HOG),
            Channel.HOF: BovwHist(counts=np.array([1.0, 0.0]), channel=Channel.HOF),
        }
        b = {
            Channel.HOG: BovwHist(counts=np.array([0.0, 1.0]), channel=Channel.HOG),
            Channel.HOF: BovwHist(counts=np.array([0.0, 1.0]), channel=Channel.HOF),
        }
        # both channels have D = 1 and A_c = 2 -> exp(-(0.5 + 0.5))
        val = multichannel_kernel(a, b, {Channel.HOG: 2.0, Channel.HOF: 2.0})
        assert math.isclose(val, math.exp(-1.0))

    def test_nonpositive_channel_mean_rejected(self):
        a = {Channel.HOG: BovwHist(counts=np.array([1.0, 0.0]), channel=Channel.HOG)}
        with pytest.raises(DegenerateInputError):
            multichannel_kernel(a, a, {Channel.HOG: 0.0})

    def test_gram_symmetric_unit_diagonal_near_psd(self, rng):
        n = 50
        dists = {}
        for ch in CHANNEL_ORDER:
            h = rng.random((n, 10))
            h /= h.sum(axis=1, keepdims=True)
            dists[ch] = chi2_distance_matrix(h)
        means = {ch: channel_mean_distance(d) for ch, d in dists.items()}
        gram = multichannel_gram(dists, means)
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) == 1.0)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-8

    def test_channel_mean_requires_two_samples(self):
        with pytest.raises(DegenerateInputError):
            channel_mean_distance(np.zeros((1, 1)))


class TestCodebookIO:
    def test_round_trip(self, tmp_path, rng):
        cb = train_codebook(rng.normal(size=(40, 5)), k=4, seed=9, channel=Channel.MBH)
        path = tmp_path / "cb.igcb"
        write_codebook(path, cb)
        back = read_codebook(path)
        assert back.channel == cb.channel
        assert back.seed == cb.seed
        assert np.array_equal(back.centroids, cb.centroids)
        assert back.content_hash() == cb.content_hash()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "cb.igcb"
        p.write_bytes(b"ZZZZ" + b"\0" * 30)
        with pytest.raises(BadMagicError):
            read_codebook(p)

    def test_truncation(self, tmp_path, rng):
        cb = train_codebook(rng.normal(size=(40, 5)), k=4, seed=9)
        p = tmp_path / "cb.igcb"
        write_codebook(p, cb)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(TruncatedPayloadError):
            read_codebook(p)


def _small_codebook(path):
    write_codebook(path, Codebook(channel=Channel.HOF, centroids=np.arange(6.0).reshape(2, 3), seed=7))


class TestCodebookFileIsTotal:
    def test_cut_at_every_byte_and_trailing_byte_raise(self, tmp_path):
        p = tmp_path / "f.igcb"
        _small_codebook(p)
        raw = p.read_bytes()
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(AvcmdError):
                read_codebook(p)
        p.write_bytes(raw + b"\0")
        with pytest.raises(FormatError):
            read_codebook(p)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_byte_flips_read_or_raise(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("igcb") / "f.igcb"
        _small_codebook(p)
        flipped = bytearray(p.read_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(flipped) - 1))
            flipped[pos] ^= data.draw(st.integers(1, 255))
        p.write_bytes(bytes(flipped))
        try:
            cb = read_codebook(p)
        except AvcmdError:
            return
        assert cb.k >= 1 and cb.dim >= 1 and np.all(np.isfinite(cb.centroids))
        write_codebook(p, cb)
        assert p.read_bytes() == flipped  # what a read accepts is written back as it was

    @pytest.mark.parametrize("k,dim", [(0, 3), (2, 0), (0, 0)])
    def test_empty_centroid_matrix_rejected(self, tmp_path, k, dim):
        p = tmp_path / "cb.igcb"
        p.write_bytes(b"IGCB" + struct.pack("<HBIIQ", 1, 0, k, dim, 0) + b"\0" * (4 * k * dim))
        with pytest.raises(FormatError):
            read_codebook(p)


class TestEncodedVideoIO:
    def test_round_trip(self, tmp_path, rng):
        clips = []
        for _ in range(3):
            clips.append(
                {
                    ch: BovwHist(counts=rng.integers(0, 9, size=6).astype(float), channel=ch)
                    for ch in CHANNEL_ORDER
                }
            )
        p = tmp_path / "enc.igev"
        write_encoded(p, clips)
        back = read_encoded(p)
        assert len(back) == 3
        for a, b in zip(clips, back):
            for ch in CHANNEL_ORDER:
                assert np.array_equal(a[ch].counts, b[ch].counts)

    def test_empty(self, tmp_path):
        p = tmp_path / "enc.igev"
        write_encoded(p, [])
        assert read_encoded(p) == []

    def test_channels_without_bins_or_channels_rejected(self, tmp_path):
        p = tmp_path / "enc.igev"
        with pytest.raises(InvalidParameterError):
            write_encoded(p, [{}, {}, {}])
        with pytest.raises(InvalidParameterError):
            write_encoded(p, [{Channel.HOG: BovwHist(counts=np.zeros(0), channel=Channel.HOG)}])
        with pytest.raises(InvalidParameterError):
            write_encoded(
                p,
                [
                    {Channel.HOG: BovwHist(counts=np.ones(3), channel=Channel.HOG)},
                    {Channel.HOG: BovwHist(counts=np.ones(4), channel=Channel.HOG)},
                ],
            )

    def test_clips_without_channels_fail_closed(self, tmp_path):
        # 3 clips, 0 channels: the 15-byte file that used to read as [{}, {}, {}]
        p = tmp_path / "enc.igev"
        p.write_bytes(b"IGEV" + struct.pack("<HIB", 1, 3, 0))
        with pytest.raises(FormatError):
            read_encoded(p)
        # and no clips with a channel table, which write_encoded never writes
        p.write_bytes(b"IGEV" + struct.pack("<HIB", 1, 0, 1) + struct.pack("<BI", 1, 2))
        with pytest.raises(FormatError, match="0 clips and 1 channels"):
            read_encoded(p)

    def test_zero_bin_channel_fails_closed(self, tmp_path):
        p = tmp_path / "enc.igev"
        p.write_bytes(b"IGEV" + struct.pack("<HIB", 1, 3, 1) + struct.pack("<BI", 1, 0))
        with pytest.raises(FormatError):
            read_encoded(p)

    def _file(self, tmp_path, n_clips=3):
        rng = np.random.default_rng(5)
        clips = [
            {ch: BovwHist(counts=rng.integers(0, 9, size=3 + int(ch)).astype(float), channel=ch)
             for ch in CHANNEL_ORDER}
            for _ in range(n_clips)
        ]
        p = tmp_path / "enc.igev"
        write_encoded(p, clips)
        return p, p.read_bytes()

    def test_cut_at_every_byte_raises(self, tmp_path):
        p, raw = self._file(tmp_path)
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(AvcmdError):
                read_encoded(p)

    def test_trailing_byte_rejected(self, tmp_path):
        p, raw = self._file(tmp_path)
        p.write_bytes(raw + b"\0")
        with pytest.raises(FormatError):
            read_encoded(p)

    def test_single_read_equals_per_clip_layout(self, tmp_path):
        p, raw = self._file(tmp_path)
        head = 11 + 5 * len(CHANNEL_ORDER)
        want = np.frombuffer(raw, dtype="<f4", offset=head)
        got = np.concatenate([e[ch].counts for e in read_encoded(p) for ch in CHANNEL_ORDER])
        assert np.array_equal(got, want.astype(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flips_read_or_raise(self, tmp_path_factory, data):
        p, raw = self._file(tmp_path_factory.mktemp("igev"), n_clips=2)
        flipped = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(raw) - 1))
            flipped[pos] ^= data.draw(st.integers(1, 255))
        p.write_bytes(bytes(flipped))
        try:
            back = read_encoded(p)
        except AvcmdError:
            return
        for hists in back:
            for ch, h in hists.items():
                assert h.channel == ch and h.counts.ndim == 1
                assert np.all(np.isfinite(h.counts)) and np.all(h.counts >= 0)
        write_encoded(p, back)
        assert p.read_bytes() == flipped  # what a read accepts is written back as it was

    @pytest.mark.parametrize(
        "bits",
        [0x7F800001, 0x7FC00000, 0x7F800000, 0xFF800000, 0x40200000, 0xBF800000, 0x4B800001, 0x4E800000],
        ids=["snan", "nan", "inf", "-inf", "2.5", "-1", "2**24+2", "2**30"],
    )
    def test_non_finite_counts_are_a_format_error(self, tmp_path, bits):
        # the last clip's last count: not finite, not an integer, negative, or
        # above the 2**24 that write_encoded stores
        p, raw = self._file(tmp_path)
        p.write_bytes(raw[:-4] + struct.pack("<I", bits))
        with pytest.raises(FormatError, match="finite"):
            read_encoded(p)

    def test_bovw_hist_refuses_non_finite_counts(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match="finite"):
                BovwHist(counts=np.array([1.0, bad]), channel=Channel.HOG)
        assert BovwHist(counts=np.array([1.0, 2.0]), channel=Channel.HOG).counts.sum() == 3.0

    def test_bovw_hist_refuses_non_integer_counts(self):
        with pytest.raises(InvalidParameterError, match="integers"):
            BovwHist(counts=np.array([1.0, 2.5]), channel=Channel.HOG)

    def test_bovw_hist_counts_follow_the_igev_rule(self):
        # one rule for a histogram, the IGEV files and the IGSV tables:
        # integers in [0, 2**24], the range float32 stores exactly
        assert BovwHist(counts=np.array([2.0**24, 0.0]), channel=Channel.HOG).counts[0] == 2**24
        for bad in (2**24 + 1, -1):
            with pytest.raises(InvalidParameterError, match=r"\[0, 16777216\]"):
                BovwHist(counts=np.array([bad, 1], dtype=np.int64), channel=Channel.HOG)

    @staticmethod
    def _hand_built(p, table):
        """A one-clip IGEV file with the channel table `table` and every count 1."""
        header = b"IGEV" + struct.pack("<HIB", 1, 1, len(table))
        counts = np.ones(sum(k for _, k in table), dtype="<f4")
        p.write_bytes(header + b"".join(struct.pack("<BI", tag, k) for tag, k in table) + counts.tobytes())

    def test_repeated_channel_tag_refused(self, tmp_path):
        # used to read as one TRAJ channel, dropping the other's counts
        p = tmp_path / "enc.igev"
        self._hand_built(p, [(int(Channel.TRAJ), 2), (int(Channel.TRAJ), 3)])
        with pytest.raises(FormatError, match="strictly increasing"):
            read_encoded(p)

    def test_channel_tags_out_of_order_refused(self, tmp_path):
        # used to read fine and be written back in CHANNEL_ORDER
        p = tmp_path / "enc.igev"
        self._hand_built(p, [(int(Channel.HOG), 2), (int(Channel.TRAJ), 2)])
        with pytest.raises(FormatError, match="strictly increasing"):
            read_encoded(p)
        self._hand_built(p, [(int(Channel.TRAJ), 2), (int(Channel.HOG), 2)])
        assert list(read_encoded(p)[0]) == [Channel.TRAJ, Channel.HOG]

    def test_counts_above_float32_exact_range_are_refused(self, tmp_path):
        p = tmp_path / "big.igev"
        top = {Channel.HOG: BovwHist(counts=np.array([2.0**24, 1.0]), channel=Channel.HOG)}
        write_encoded(p, [top])
        assert np.array_equal(read_encoded(p)[0][Channel.HOG].counts, top[Channel.HOG].counts)
        with pytest.raises(InvalidParameterError, match="float32"):
            BovwHist(counts=np.array([2.0**24 + 1, 1.0]), channel=Channel.HOG)


class TestSinglePathsAgainstReference:
    """The merged chi-square and kernel paths equal their old forms bit for bit."""

    def test_l1_normalization(self):
        rng = np.random.default_rng(11)
        for k in range(1, 130):
            h = rng.integers(0, 40, size=(40, k)) * (rng.random((40, k)) < 0.5)
            h[rng.random(40) < 0.2] = 0  # all-zero rows
            rows = _l1_rows(h)
            for row, counts in zip(rows, h.astype(np.float64)):
                want = ref.l1_normalized(counts)
                assert np.array_equal(BovwHist(counts=counts, channel=Channel.HOG).l1_normalized(), want)
                assert np.array_equal(row, want)

    def _hist_sets(self):
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3, 17, 59):
            for k in (4, 32, 64, 100, 513):
                h = rng.random((n, k)) * (rng.random((n, k)) < 0.6)
                h[rng.random(n) < 0.2] = 0.0  # some all-zero rows
                sums = h.sum(axis=1, keepdims=True)
                yield np.divide(h, sums, out=np.zeros_like(h), where=sums > 0)

    def test_chi2_distance_matrix(self):
        for h in self._hist_sets():
            got = chi2_distance_matrix(h)
            assert np.array_equal(got, ref.chi2_distance_matrix(h))
            assert np.array_equal(got, chi2_cross_matrix(h, h))

    def test_chi2_distance_matrix_on_counts(self):
        rng = np.random.default_rng(4)
        h = rng.integers(0, 5, size=(23, 40)).astype(np.float64)
        assert np.array_equal(chi2_distance_matrix(h), ref.chi2_distance_matrix(h))

    def _dists(self, n, seed):
        rng = np.random.default_rng(seed)
        dists = {}
        for ch in CHANNEL_ORDER:
            h = rng.random((n, 12))
            h /= h.sum(axis=1, keepdims=True)
            dists[ch] = ref.chi2_distance_matrix(h)
        return dists, {ch: channel_mean_distance(d) for ch, d in dists.items()}

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_gram_and_cross_gram(self, n):
        dists, means = self._dists(n, seed=n)
        assert np.array_equal(multichannel_gram(dists, means), ref.multichannel_gram(dists, means))
        assert np.array_equal(cross_gram(dists, means), ref.cross_gram(dists, means))
        rows = {ch: d[:3, 1:] for ch, d in dists.items()}
        assert np.array_equal(cross_gram(rows, means), ref.cross_gram(rows, means))
        single = {Channel.HOF: dists[Channel.HOF]}
        one_mean = {Channel.HOF: means[Channel.HOF]}
        assert np.array_equal(multichannel_gram(single, one_mean), ref.multichannel_gram(single, one_mean))

    def test_gram_equals_cross_gram_on_symmetric_zero_diagonal_input(self):
        dists, means = self._dists(30, seed=8)
        assert np.array_equal(multichannel_gram(dists, means), cross_gram(dists, means))

    def test_kernel_is_one_entry_of_cross_gram(self, rng):
        samples = [
            {ch: BovwHist(counts=rng.integers(0, 10, size=6).astype(np.float64), channel=ch)
             for ch in CHANNEL_ORDER}
            for _ in range(2)
        ]
        means = {ch: 0.3 + 0.1 * int(ch) for ch in CHANNEL_ORDER}
        a, b = ({ch: h.l1_normalized()[None, :] for ch, h in s.items()} for s in samples)
        dists = {ch: chi2_cross_matrix(a[ch], b[ch]) for ch in CHANNEL_ORDER}
        assert cross_gram(dists, means).shape == (1, 1)
        assert cross_gram(dists, means)[0, 0] == ref.cross_gram(dists, means)[0, 0]

    def test_cross_gram_rejects_missing_mean_and_empty_input(self):
        d = np.zeros((1, 2))
        with pytest.raises(InvalidParameterError):
            cross_gram({Channel.HOG: d, Channel.HOF: d}, {Channel.HOG: 1.0})
        with pytest.raises(InvalidParameterError):
            cross_gram({}, {})
        with pytest.raises(InvalidParameterError):
            multichannel_gram({}, {})

    def test_kernel_rejects_mismatched_channel_sets(self):
        d = np.zeros((1, 1))
        with pytest.raises(InvalidParameterError):
            cross_gram({Channel.HOG: d}, {Channel.HOF: 1.0})
        with pytest.raises(InvalidParameterError):
            cross_gram({Channel.HOG: d}, {Channel.HOG: 1.0, Channel.HOF: 1.0})
