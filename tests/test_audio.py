from __future__ import annotations

import json
import math

import numpy as np
import pytest

from avcmd.audio import (
    GRAM_FALLBACK,
    CommandGrammar,
    Hypothesis,
    NBest,
    SpeakerTransform,
    adapt_speaker,
    classify_command,
    default_grammar,
    dtw_align,
    dtw_distance,
    keyword_gate,
    load_template_store,
    save_template_manifest,
    _backtrack,
    _distances,
    _frame_costs,
)
from avcmd.errors import FormatError, InvalidParameterError
from avcmd.mfcc import FEATURE_DIM, MfccSeq, mfcc, wav_read, wav_write
from avcmd.selftest import build_audio_templates
from avcmd.synth import generate_command_audio
from avcmd.vocabulary import Command

import reference_audio as ref
from conftest import malformed_rows


def seq(frames: np.ndarray) -> MfccSeq:
    return MfccSeq(frames=np.asarray(frames, dtype=np.float64))


def random_seq(rng, t=20, scale=5.0) -> MfccSeq:
    return seq(rng.normal(size=(t, FEATURE_DIM)) * scale)


class TestMfcc:
    def test_digital_silence_is_zero_after_cmn(self):
        feats = mfcc(np.zeros(16000), 16000).frames
        assert np.max(np.abs(feats[:, :13])) < 1e-6
        assert np.max(np.abs(feats[:, 13:])) < 1e-6

    def test_pure_tone_hits_filter_with_nearest_center(self):
        sr, freq = 16000, 1000.0
        t = np.arange(sr) / sr
        tone = 0.5 * np.sin(2 * np.pi * freq * t)
        # independent oracle: recompute centers from the mel formula itself
        def to_mel(f):
            return 2595.0 * math.log10(1.0 + f / 700.0)

        def from_mel(m):
            return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

        points = [from_mel(m) for m in np.linspace(to_mel(0.0), to_mel(sr / 2), 28)]
        centers = np.asarray(points[1:-1])
        expected = int(np.argmin(np.abs(centers - freq)))

        from avcmd.mfcc import mel_filterbank

        frame = tone[:400] * np.hamming(400)
        power = np.abs(np.fft.rfft(frame, 512)) ** 2
        energies = mel_filterbank(sr, 512) @ power
        assert int(np.argmax(energies)) == expected

    def test_concatenation_frame_arithmetic(self, rng):
        x = rng.normal(size=8000) * 0.1
        t1 = len(mfcc(x, 16000))
        t2 = len(mfcc(np.concatenate([x, x]), 16000))
        assert abs(t2 - 2 * t1) <= 1

    def test_determinism(self, rng):
        x = rng.normal(size=6000) * 0.2
        a = mfcc(x, 16000).frames
        b = mfcc(x.copy(), 16000).frames
        assert np.array_equal(a, b)

    def test_cached_constants_are_shared_read_only_and_fresh(self, rng):
        from avcmd.mfcc import _analysis_constants, _dct_matrix, mel_filterbank

        x = rng.normal(size=8000) * 0.2
        first = mfcc(x, 16000).frames
        frame_len, frame_shift, n_fft, window, filterbank, dct = _analysis_constants(16000)
        assert (frame_len, frame_shift, n_fft) == (400, 160, 512)
        for cached, fresh in (
            (window, np.hamming(400)),
            (filterbank, mel_filterbank(16000, 512)),
            (dct, _dct_matrix(13, 26)),
        ):
            assert not cached.flags.writeable
            assert np.array_equal(cached, fresh)
        mfcc(rng.normal(size=20000) * 0.2, 44100)
        assert _analysis_constants(16000)[4] is filterbank
        assert np.array_equal(mfcc(x, 16000).frames, first)

    def test_too_short_signal_rejected(self):
        with pytest.raises(InvalidParameterError):
            mfcc(np.zeros(100), 16000)

    def test_unsupported_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            mfcc(np.zeros(16000), 8000)

    def test_wav_round_trip(self, tmp_path, rng):
        x = np.clip(rng.normal(size=5000) * 0.2, -1, 1)
        path = tmp_path / "a.wav"
        wav_write(path, x, 16000)
        back, rate = wav_read(path)
        assert rate == 16000
        np.testing.assert_allclose(back, x, atol=1.0 / 32767 + 1e-9)

    def test_wav_chunk_inside_the_riff_chunk_is_skipped(self, tmp_path, rng):
        # a LIST chunk between `fmt ` and `data`, counted in the RIFF size
        path = tmp_path / "a.wav"
        wav_write(path, np.clip(rng.normal(size=300) * 0.2, -1, 1), 16000)
        raw = path.read_bytes()
        riff = int.from_bytes(raw[4:8], "little") + 12
        path.with_name("b.wav").write_bytes(
            raw[:4] + riff.to_bytes(4, "little") + raw[8:36] + b"LIST" + (4).to_bytes(4, "little") + b"INFO" + raw[36:]
        )
        back, rate = wav_read(path.with_name("b.wav"))
        assert rate == 16000 and np.array_equal(back, wav_read(path)[0])


class TestDtw:
    def test_identity_is_zero(self, rng):
        s = random_seq(rng)
        assert dtw_distance(s, s) == 0.0

    def test_symmetry(self, rng):
        a, b = random_seq(rng), random_seq(rng, t=14)
        assert math.isclose(dtw_distance(a, b), dtw_distance(b, a), rel_tol=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(5):
            assert dtw_distance(random_seq(rng, t=7), random_seq(rng, t=9)) >= 0.0

    def test_uniform_duplication_absorbed(self, rng):
        frames = rng.normal(size=(9, FEATURE_DIM))
        doubled = np.repeat(frames, 2, axis=0)
        assert dtw_distance(seq(frames), seq(doubled)) == 0.0

    def test_matches_brute_force_on_3x3(self, rng):
        def all_paths(ta, tb):
            # enumerate monotone paths with steps (1,0), (0,1), (1,1)
            stack = [[(0, 0)]]
            while stack:
                path = stack.pop()
                i, j = path[-1]
                if (i, j) == (ta - 1, tb - 1):
                    yield path
                    continue
                for di, dj in ((1, 0), (0, 1), (1, 1)):
                    ni, nj = i + di, j + dj
                    if ni < ta and nj < tb:
                        stack.append(path + [(ni, nj)])

        for trial in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(3, 4))
            cost = np.array([[np.linalg.norm(x - y) for y in b] for x in a])
            best = min(sum(cost[i, j] for i, j in p) for p in all_paths(3, 3))
            expected = best / 6.0
            assert math.isclose(dtw_distance(a, b), expected, rel_tol=1e-10)

    def test_align_path_is_monotone_and_complete(self, rng):
        a, b = random_seq(rng, t=11), random_seq(rng, t=8)
        dist, path = dtw_align(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (10, 7)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}
        assert math.isclose(dist, dtw_distance(a, b), rel_tol=1e-12)

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            dtw_distance(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, rng, bad):
        good = rng.normal(size=(6, 5))
        broken = good.copy()
        broken[3, 2] = bad
        calls = (
            lambda: dtw_distance(broken, good),
            lambda: dtw_distance(good, broken),
            lambda: dtw_align(broken, good),
            lambda: dtw_align(good, broken),
            lambda: _distances(good, [good, broken]),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError, match="non-finite"):
                call()


class TestClassifyCommand:
    def _setup(self, rng, n_cmds=3):
        grammar = CommandGrammar(range(n_cmds))
        templates = {i: [random_seq(rng), random_seq(rng, t=16)] for i in range(n_cmds)}
        return grammar, templates

    def test_exact_template_match_wins_with_zero_score(self, rng):
        grammar, templates = self._setup(rng)
        utt = templates[2][0]
        out = classify_command(utt, templates, grammar)
        assert out.top.command == 2
        assert out.top.score == 0.0

    def test_equidistant_tie_goes_to_lower_id(self):
        grammar = CommandGrammar((0, 1))
        base = np.zeros((1, FEATURE_DIM))
        t0 = base.copy()
        t0[0, 0] = 2.0
        t1 = base.copy()
        t1[0, 1] = 2.0
        templates = {0: [seq(t0)], 1: [seq(t1)]}
        out = classify_command(seq(base), templates, grammar)
        assert out.top.command == 0
        assert out.tie

    def test_missing_templates_rejected(self, rng):
        grammar, templates = self._setup(rng)
        templates[1] = []
        with pytest.raises(InvalidParameterError):
            classify_command(random_seq(rng), templates, grammar)

    def test_ranking_invariant_to_global_feature_scaling(self, rng):
        grammar, templates = self._setup(rng, n_cmds=4)
        utt = random_seq(rng)
        out1 = classify_command(utt, templates, grammar)
        lam = 3.7
        scaled_templates = {
            c: [seq(t.frames * lam) for t in ts] for c, ts in templates.items()
        }
        out2 = classify_command(seq(utt.frames * lam), scaled_templates, grammar)
        assert [h.command for h in out1.hypotheses] == [h.command for h in out2.hypotheses]

    def test_default_grammar_covers_vocabulary(self):
        assert default_grammar() == tuple(int(c) for c in Command)

    def test_grammar_needs_unique_commands(self):
        assert CommandGrammar([4, 1]) == (4, 1)
        for bad in ([], [1, 2, 1]):
            with pytest.raises(InvalidParameterError):
                CommandGrammar(bad)


class TestKeywordGate:
    def _nbest(self):
        return NBest(hypotheses=(Hypothesis(command=1, score=0.3), Hypothesis(command=0, score=0.9)))

    def test_boundary_score_passes(self):
        nb = self._nbest()
        assert keyword_gate(nb, keyword_score=0.5, threshold=0.5) is nb

    def test_below_threshold_empties(self):
        nb = self._nbest()
        out = keyword_gate(nb, keyword_score=0.49, threshold=0.5)
        assert out.is_empty

    def test_pass_through_preserves_payload(self):
        nb = self._nbest()
        out = keyword_gate(nb, keyword_score=0.9, threshold=0.5)
        assert [h.command for h in out.hypotheses] == [1, 0]
        assert [h.score for h in out.hypotheses] == [0.3, 0.9]


class TestAdaptSpeaker:
    def _templates(self, rng, n_cmds=3, t=20):
        return {i: [random_seq(rng, t=t)] for i in range(n_cmds)}

    def test_identity_when_enrollment_equals_templates(self, rng):
        templates = self._templates(rng)
        enrollment = [(c, ts[0]) for c, ts in templates.items()]
        tr = adapt_speaker(templates, enrollment)
        assert not tr.bias_only
        assert np.linalg.norm(tr.a - np.eye(FEATURE_DIM)) < 1e-6
        assert np.linalg.norm(tr.b) < 1e-6

    def test_constant_shift_recovered(self, rng):
        templates = self._templates(rng)
        c = rng.normal(size=FEATURE_DIM) * 0.3
        enrollment = [(cmd, seq(ts[0].frames + c)) for cmd, ts in templates.items()]
        tr = adapt_speaker(templates, enrollment)
        assert np.linalg.norm(tr.a - np.eye(FEATURE_DIM)) < 1e-6
        np.testing.assert_allclose(tr.b, -c, atol=1e-6)

    def test_scaling_by_two_recovered(self, rng):
        templates = self._templates(rng)
        enrollment = [(cmd, seq(ts[0].frames * 2.0)) for cmd, ts in templates.items()]
        tr = adapt_speaker(templates, enrollment)
        np.testing.assert_allclose(tr.a, 0.5 * np.eye(FEATURE_DIM), atol=1e-6)
        np.testing.assert_allclose(tr.b, np.zeros(FEATURE_DIM), atol=1e-6)

    def test_objective_never_worse_than_identity(self, rng):
        templates = self._templates(rng, t=15)
        enrollment = [
            (cmd, seq(ts[0].frames * 1.3 + rng.normal(size=ts[0].frames.shape) * 0.4))
            for cmd, ts in templates.items()
        ]
        fitted = adapt_speaker(templates, enrollment)
        obj_fit = ref.alignment_objective(templates, enrollment, fitted)
        identity = SpeakerTransform(np.eye(FEATURE_DIM), np.zeros(FEATURE_DIM))
        obj_id = ref.alignment_objective(templates, enrollment, identity)
        assert obj_fit <= obj_id + 1e-9

    def test_needs_three_commands(self, rng):
        templates = self._templates(rng, n_cmds=2)
        enrollment = [(c, ts[0]) for c, ts in templates.items()]
        with pytest.raises(InvalidParameterError):
            adapt_speaker(templates, enrollment)

    def test_rank_deficient_falls_back_to_bias_only(self):
        const = seq(np.ones((10, FEATURE_DIM)))
        shifted = seq(np.ones((10, FEATURE_DIM)) * 3.0)
        templates = {0: [const], 1: [const], 2: [const]}
        enrollment = [(0, shifted), (1, shifted), (2, shifted)]
        tr = adapt_speaker(templates, enrollment)
        assert tr.bias_only
        np.testing.assert_allclose(tr.a, np.eye(FEATURE_DIM))
        np.testing.assert_allclose(tr.b, np.full(FEATURE_DIM, -2.0), atol=1e-9)


class TestTemplateStore:
    def test_manifest_round_trip_and_classification(self, tmp_path, rng):
        sr = 16000
        rows = []
        waves = {}
        for cmd in range(3):
            t = np.arange(int(sr * 0.3)) / sr
            freq = 400.0 + 300.0 * cmd
            wave_data = 0.4 * np.sin(2 * np.pi * freq * t)
            name = f"cmd{cmd}.wav"
            wav_write(tmp_path / name, wave_data, sr)
            waves[cmd] = wave_data
            rows.append({"command_id": cmd, "language": "en", "speaker": "s1", "path": name})
        save_template_manifest(tmp_path / "manifest.json", rows)
        store = load_template_store(tmp_path / "manifest.json")
        assert sorted(store) == [0, 1, 2]
        grammar = CommandGrammar(range(3))
        utt = mfcc(waves[1], sr)
        out = classify_command(utt, store, grammar)
        assert out.top.command == 1

    def test_manifest_bytes(self, tmp_path):
        rows = [{"path": "a.wav", "command_id": 2, "speaker": "s0", "language": "en"}]
        save_template_manifest(tmp_path / "manifest.json", rows)
        assert (tmp_path / "manifest.json").read_text() == json.dumps(rows, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("top", [5, None, "rows", {"command_id": 0, "path": "a.wav"}])
    def test_manifest_that_is_not_a_list_is_refused(self, tmp_path, top):
        (tmp_path / "manifest.json").write_text(json.dumps(top))
        with pytest.raises(FormatError):
            load_template_store(tmp_path / "manifest.json")

    @pytest.mark.parametrize("row", malformed_rows({"command_id": 0, "path": "a.wav"}))
    def test_malformed_manifest_row_is_refused(self, tmp_path, row):
        (tmp_path / "manifest.json").write_text(json.dumps([row]))
        with pytest.raises(FormatError, match="bad manifest row"):
            load_template_store(tmp_path / "manifest.json")


# ---------------------------------------------------------------------------
# the batched sweep against the per-pair reference oracles in reference_audio.py

def _random_frames(rng, t, dim=5, integer=False):
    # Small integers make equal path costs, and so tie-breaking, common.
    return rng.integers(0, 3, size=(t, dim)).astype(np.float64) if integer else rng.normal(size=(t, dim))


def assert_within_bound(got, want, dim=5):
    """Gram-product distances against the explicit-difference oracle, under
    the relative bound that `audio.GRAM_FALLBACK` states; a zero stays zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= (dim + 2) * 2.0**-53 / GRAM_FALLBACK * want)


def assert_nbest_within_bound(got, want, dim=FEATURE_DIM):
    assert [h.command for h in got.hypotheses] == [h.command for h in want.hypotheses]
    assert got.tie == want.tie
    assert_within_bound([h.score for h in got.hypotheses], [h.score for h in want.hypotheses], dim)


class TestDtwAgainstReference:
    @pytest.mark.parametrize("integer", [False, True])
    def test_batched_distances_equal_per_pair(self, rng, integer):
        for _ in range(12):
            query = _random_frames(rng, int(rng.integers(1, 61)), integer=integer)
            k = int(rng.integers(1, 8))
            templates = [_random_frames(rng, int(rng.integers(1, 61)), integer=integer) for _ in range(k)]
            got, _ = _distances(query, templates)
            want = np.array([ref.dtw_distance(query, t) for t in templates])
            if integer:  # every product and sum is exact
                assert np.array_equal(got, want)
            else:
                assert_within_bound(got, want)

    def test_single_template_and_edge_lengths(self, rng):
        lengths = [(1, 1), (1, 2), (2, 1), (1, 60), (60, 1), (2, 2), (60, 60), (7, 33)]
        for ta, tb in lengths:
            a, b = _random_frames(rng, ta), _random_frames(rng, tb)
            assert_within_bound(dtw_distance(a, b), ref.dtw_distance(a, b))
        # every length 1..60 against one query, in a single batch
        query = _random_frames(rng, 23)
        templates = [_random_frames(rng, tb) for tb in range(1, 61)]
        got, _ = _distances(query, templates)
        assert_within_bound(got, [ref.dtw_distance(query, t) for t in templates])

    @pytest.mark.parametrize("integer", [False, True])
    def test_alignments_equal(self, rng, integer):
        for _ in range(25):
            a = _random_frames(rng, int(rng.integers(1, 61)), integer=integer)
            b = _random_frames(rng, int(rng.integers(1, 61)), integer=integer)
            dist, path = dtw_align(a, b)
            want_dist, want_path = ref.dtw_align(a, b)
            if integer:
                assert dist == want_dist
            else:
                assert_within_bound(dist, want_dist)
            assert path == want_path

    @pytest.mark.parametrize("integer", [False, True])
    def test_batched_moves_give_each_templates_path(self, rng, integer):
        # adapt_speaker backtracks its chosen template from the batched sweep
        for _ in range(12):
            query = _random_frames(rng, int(rng.integers(1, 41)), integer=integer)
            k = int(rng.integers(1, 6))
            templates = [_random_frames(rng, int(rng.integers(1, 41)), integer=integer) for _ in range(k)]
            _, moves = _distances(query, templates, with_moves=True)
            assert moves.shape[:2] == (k, len(query))
            for n, t in enumerate(templates):
                assert _backtrack(moves[n], len(query) - 1, len(t) - 1) == ref.dtw_align(query, t)[1]

    def test_nbest_with_duplicated_templates(self, rng):
        grammar = CommandGrammar((4, 1, 3, 0))
        shared = random_seq(rng, t=12)
        templates = {
            4: [random_seq(rng, t=9), shared],
            1: [shared, random_seq(rng, t=30), shared],
            3: [random_seq(rng, t=1)],
            0: [random_seq(rng, t=17), random_seq(rng, t=25)],
        }
        for utt in (random_seq(rng, t=14), random_seq(rng, t=1), shared):
            got = classify_command(utt, templates, grammar)
            assert_nbest_within_bound(got, ref.classify_command(utt, templates, grammar))
        # both commands holding `shared` score it exactly: a flagged tie
        near = seq(shared.frames + 1e-3)
        got = classify_command(near, templates, grammar)
        assert got.tie and [h.command for h in got.hypotheses[:2]] == [1, 4]
        assert_nbest_within_bound(got, ref.classify_command(near, templates, grammar))

    def test_nbest_on_synthetic_commands(self):
        templates = build_audio_templates(7, per_command=2)
        grammar = default_grammar()
        enrollment = [(int(c), mfcc(generate_command_audio(int(c), 500 + int(c), 20.0), 16000)) for c in Command]
        transform = adapt_speaker(templates, enrollment)
        for c in Command:
            utt = mfcc(generate_command_audio(int(c), 900 + int(c), 20.0), 16000)
            for tr in (None, transform):
                assert_nbest_within_bound(
                    classify_command(utt, templates, grammar, tr),
                    ref.classify_command(utt, templates, grammar, tr),
                )

    def test_speaker_transforms_equal(self):
        templates = build_audio_templates(11, per_command=3)
        for speaker in range(3):
            enrollment = [
                (int(c), mfcc(generate_command_audio(int(c), 40 * speaker + int(c), 20.0), 16000))
                for c in Command
            ]
            got = adapt_speaker(templates, enrollment)
            want = ref.adapt_speaker(templates, enrollment)
            assert got.bias_only == want.bias_only
            assert np.array_equal(got.a, want.a)
            assert np.array_equal(got.b, want.b)

    def test_bias_only_transform_equal(self):
        const = seq(np.ones((10, FEATURE_DIM)))
        templates = {0: [const, seq(np.ones((4, FEATURE_DIM)) * 2.0)], 1: [const], 2: [const]}
        enrollment = [(0, seq(np.ones((6, FEATURE_DIM)) * 3.0)), (1, const), (2, const)]
        got = adapt_speaker(templates, enrollment)
        want = ref.adapt_speaker(templates, enrollment)
        assert got.bias_only and want.bias_only
        assert np.array_equal(got.b, want.b)


class TestGramFrameCosts:
    """Frame costs from the Gram product keep exact zeros, exact ties between
    copies of a template, and exact results on integer-valued features."""

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    def test_shared_frames_cost_exactly_zero(self, rng, scale):
        x = rng.normal(size=(20, FEATURE_DIM)) * 5.0 * scale
        longer = np.vstack([rng.normal(size=(7, FEATURE_DIM)) * 5.0 * scale, x, x[::-1]])
        costs = _frame_costs(x, longer)
        rows = np.arange(20)
        assert np.all(costs[rows, 7 + rows] == 0.0)
        assert np.all(costs[rows, 46 - rows] == 0.0)
        assert np.count_nonzero(costs) == costs.size - 40
        assert dtw_distance(x, x) == 0.0
        assert dtw_distance(x, np.repeat(x, 2, axis=0)) == 0.0
        grammar = CommandGrammar((0, 1))
        out = classify_command(seq(x), {0: [seq(longer)], 1: [seq(longer), seq(x)]}, grammar)
        assert out.top == Hypothesis(command=1, score=0.0)

    def test_duplicated_template_ties_and_equals_single_pair(self, rng):
        grammar = CommandGrammar(range(5))
        for _ in range(10):
            templates = {
                c: [random_seq(rng, t=int(rng.integers(5, 60))) for _ in range(int(rng.integers(1, 4)))]
                for c in range(5)
            }
            shared = random_seq(rng, t=int(rng.integers(5, 60)))
            pair = sorted(int(c) for c in rng.choice(5, size=2, replace=False))
            for c in pair:
                templates[c].insert(int(rng.integers(0, len(templates[c]) + 1)), shared)
            utt = seq(shared.frames + rng.normal(size=shared.frames.shape) * 0.5)
            out = classify_command(utt, templates, grammar)
            assert out.tie and [h.command for h in out.hypotheses[:2]] == pair
            flat = [t for c in grammar for t in templates[c]]
            batched, _ = _distances(utt, flat)
            assert np.array_equal(batched, [dtw_distance(utt, t) for t in flat])

    def test_integer_features_equal_reference(self, rng):
        # |x|² of 39 features in [-500, 500] is an exact float64 integer
        def ints(t):
            return seq(rng.integers(-500, 501, size=(t, FEATURE_DIM)))

        grammar = CommandGrammar(range(4))
        templates = {c: [ints(int(rng.integers(1, 50))) for _ in range(2)] for c in range(4)}
        for _ in range(5):
            utt = ints(int(rng.integers(1, 50)))
            assert classify_command(utt, templates, grammar) == ref.classify_command(utt, templates, grammar)
            for t in templates[0]:
                assert dtw_align(utt, t) == ref.dtw_align(utt, t)
